"""JSON interchange for graphs, group tables, map families, and points.

Every document is a versioned JSON object.  Parsing is strict by
default: unknown fields are errors naming the offending location, so a
typo cannot silently change meaning.  Serialization is canonical
(sorted keys, two-space indent, one trailing newline), which makes
repeated runs byte-comparable.

parse . serialize is the identity on structural content: vertex count,
dart triples with labels and orientations, and the alphabet.
Annotations ride along as plain JSON values (tuples become lists).
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from . import expander_zoo, metric_diag
from .errors import InvalidInputError
from .graph_core import GraphFamily, LabeledGraph, base_symbol, build_graph

FORMAT_VERSION = "1"


# -- shared helpers -----------------------------------------------------------


def _load(data: Union[bytes, str]):
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InvalidInputError(f"document is not UTF-8: {e}") from e
    try:
        return json.loads(data)
    except json.JSONDecodeError as e:
        raise InvalidInputError(
            f"not valid JSON: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where}must be a JSON object")
    return doc


def _fields(obj: dict, where: str, required, optional, strict: bool) -> None:
    for k in required:
        if k not in obj:
            raise InvalidInputError(f"{where}missing field {k!r}")
    if strict:
        allowed = set(required) | set(optional)
        for k in obj:
            if k not in allowed:
                raise InvalidInputError(f"{where}unknown field {k!r}")


def _check_version(obj: dict, where: str) -> None:
    v = obj.get("format_version")
    if v != FORMAT_VERSION:
        raise InvalidInputError(f"{where}unsupported format_version {v!r}")


def _int(value, where: str, field: str) -> int:
    # bool is an int subclass and must not pass as a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{where}field {field!r} must be an integer")
    return value


def _jsonable(value, where: str):
    """Convert annotation values to plain JSON types, rejecting the rest."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, where) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise InvalidInputError(f"{where}annotation keys must be strings")
            out[k] = _jsonable(v, where)
        return out
    raise InvalidInputError(
        f"{where}annotation value of type {type(value).__name__} is not JSON-serializable"
    )


def canonical_json(doc: dict) -> str:
    """The one JSON encoding every emitter uses: sorted keys, two-space
    indent, ASCII, one trailing newline.  Canonical bytes make repeated
    runs comparable with a plain file diff."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"



# -- graph documents ----------------------------------------------------------


def graph_document(g: LabeledGraph) -> dict:
    """The plain-JSON form of a graph (one object, ready to embed)."""
    edges = []
    for u, v, lab in g.edges():
        edges.append({"u": u, "v": v, "label": lab, "orientation": "forward"})
    doc = {
        "format_version": FORMAT_VERSION,
        "alphabet": sorted(g.alphabet),
        "vertices": g.vertex_count,
        "edges": edges,
    }
    if g.annotations:
        doc["annotations"] = _jsonable(g.annotations, "")
    return doc


def graph_from_document(doc, strict: bool = True, where: str = "") -> LabeledGraph:
    obj = _object(doc, where or "graph document ")
    _fields(
        obj,
        where,
        required=("format_version", "alphabet", "vertices", "edges"),
        optional=("annotations",),
        strict=strict,
    )
    _check_version(obj, where)
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise InvalidInputError(f"{where}field 'alphabet' must be a list of strings")
    n = _int(obj["vertices"], where, "vertices")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise InvalidInputError(f"{where}field 'edges' must be a list")
    declared = set(alphabet)
    triples = []
    for i, e in enumerate(raw_edges):
        ew = f"{where}edge {i}: "
        _object(e, ew)
        _fields(e, ew, required=("u", "v"), optional=("label", "orientation"), strict=strict)
        u = _int(e["u"], ew, "u")
        v = _int(e["v"], ew, "v")
        for name, end in (("u", u), ("v", v)):
            if not (0 <= end < n):
                raise InvalidInputError(
                    f"{ew}endpoint {name} = {end} out of range [0, {n})"
                )
        lab = e.get("label")
        if lab is not None:
            if not isinstance(lab, str):
                raise InvalidInputError(f"{ew}field 'label' must be a string or null")
            if base_symbol(lab) not in declared:
                raise InvalidInputError(
                    f"{ew}label {lab!r} outside the declared alphabet"
                )
        orient = e.get("orientation", "forward")
        if orient not in ("forward", "reverse"):
            raise InvalidInputError(
                f"{ew}field 'orientation' must be 'forward' or 'reverse'"
            )
        if orient == "reverse":
            u, v = v, u
        triples.append((u, v, lab))
    annotations = obj.get("annotations")
    if annotations is not None:
        _object(annotations, f"{where}annotations: ")
    try:
        return build_graph(n, triples, alphabet=alphabet, annotations=annotations)
    except InvalidInputError as err:
        if where:
            raise InvalidInputError(f"{where}{err}") from err
        raise


def serialize_graph(g: LabeledGraph) -> str:
    return canonical_json(graph_document(g))


def family_document(fam: GraphFamily, annotations: dict = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "graphs": [graph_document(g) for g in fam.components],
    }
    if annotations:
        doc["annotations"] = _jsonable(annotations, "")
    return doc


def serialize_graph_family(fam: GraphFamily, annotations: dict = None) -> str:
    return canonical_json(family_document(fam, annotations))


def parse_graph(
    data: Union[bytes, str], strict: bool = True
) -> Union[LabeledGraph, GraphFamily]:
    """Parse a single-graph document, or a family document holding a
    ``graphs`` list (each member a full graph document)."""
    doc = _object(_load(data), "document ")
    if "graphs" in doc:
        _fields(
            doc,
            "",
            required=("format_version", "graphs"),
            optional=("annotations",),
            strict=strict,
        )
        _check_version(doc, "")
        members = doc["graphs"]
        if not isinstance(members, list) or not members:
            raise InvalidInputError("field 'graphs' must be a nonempty list")
        components = tuple(
            graph_from_document(m, strict=strict, where=f"graphs[{i}]: ")
            for i, m in enumerate(members)
        )
        return GraphFamily(components=components)
    return graph_from_document(doc, strict=strict)


# -- group table documents ------------------------------------------------------


def parse_group_table(data: Union[bytes, str], strict: bool = True) -> expander_zoo.FiniteGroupTable:
    obj = _object(_load(data), "document ")
    _fields(
        obj,
        "",
        required=("format_version", "mul"),
        optional=("generators", "names"),
        strict=strict,
    )
    _check_version(obj, "")
    mul = obj["mul"]
    if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
        raise InvalidInputError("field 'mul' must be a list of rows")
    n = len(mul)
    for i, row in enumerate(mul):
        if len(row) != n:
            raise InvalidInputError(f"mul row {i} has {len(row)} entries for order {n}")
        for j, x in enumerate(row):
            _int(x, f"mul[{i}][{j}]: ", "mul")
    generators = obj.get("generators", [])
    if not isinstance(generators, list):
        raise InvalidInputError("field 'generators' must be a list")
    gens = tuple(_int(x, f"generators[{i}]: ", "generators") for i, x in enumerate(generators))
    names = obj.get("names")
    if names is not None:
        if (
            not isinstance(names, list)
            or len(names) != n
            or not all(isinstance(s, str) for s in names)
        ):
            raise InvalidInputError(f"field 'names' must be a list of {n} strings")
    return expander_zoo.FiniteGroupTable(mul, generators=gens, element_names=names)


# -- map family documents ---------------------------------------------------------


def _matrix_from(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InvalidInputError(f"{where}must be a list of rows")
    try:
        arr = np.array(value, dtype=np.float64)
    except ValueError as e:
        raise InvalidInputError(f"{where}rows have inconsistent lengths") from e
    if arr.ndim != 2:
        raise InvalidInputError(f"{where}must be two-dimensional")
    return arr


def _space_from(obj, where: str, graph_key: str, array_key: str, strict: bool):
    _object(obj, where)
    keys = [k for k in (graph_key, array_key) if k in obj]
    if len(keys) != 1:
        raise InvalidInputError(
            f"{where}needs exactly one of {graph_key!r} or {array_key!r}"
        )
    _fields(obj, where, required=(keys[0],), optional=(), strict=strict)
    if keys[0] == graph_key:
        return graph_from_document(obj[graph_key], strict=strict, where=where)
    return _matrix_from(obj[array_key], where)


def map_family_document(mf: metric_diag.MapFamily) -> dict:
    entries = []
    for entry in mf.entries:
        if isinstance(entry.source, LabeledGraph):
            source = {"graph": graph_document(entry.source)}
        else:
            source = {"matrix": np.asarray(entry.source, dtype=np.float64).tolist()}
        if isinstance(entry.target, LabeledGraph):
            target = {"graph": graph_document(entry.target)}
        else:
            target = {"points": np.asarray(entry.target, dtype=np.float64).tolist()}
        entries.append(
            {"source": source, "target": target, "mapping": list(entry.mapping)}
        )
    return {"format_version": FORMAT_VERSION, "entries": entries}


def serialize_map_family(mf: metric_diag.MapFamily) -> str:
    return canonical_json(map_family_document(mf))


def parse_map_family(data: Union[bytes, str], strict: bool = True) -> metric_diag.MapFamily:
    obj = _object(_load(data), "document ")
    _fields(obj, "", required=("format_version", "entries"), optional=(), strict=strict)
    _check_version(obj, "")
    raw = obj["entries"]
    if not isinstance(raw, list) or not raw:
        raise InvalidInputError("field 'entries' must be a nonempty list")
    entries = []
    for i, e in enumerate(raw):
        ew = f"entry {i}: "
        _object(e, ew)
        _fields(e, ew, required=("source", "target", "mapping"), optional=(), strict=strict)
        source = _space_from(e["source"], ew + "source ", "graph", "matrix", strict)
        target = _space_from(e["target"], ew + "target ", "graph", "points", strict)
        mapping = e["mapping"]
        if not isinstance(mapping, list):
            raise InvalidInputError(f"{ew}field 'mapping' must be a list")
        table = tuple(_int(x, f"{ew}mapping[{j}]: ", "mapping") for j, x in enumerate(mapping))
        try:
            entries.append(metric_diag.MapEntry(source=source, target=target, mapping=table))
        except InvalidInputError as err:
            raise InvalidInputError(f"{ew}{err}") from err
    return metric_diag.MapFamily(entries=tuple(entries))


# -- point set documents ------------------------------------------------------------


def points_document(points: np.ndarray) -> dict:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError("points must form an (n, d) array")
    return {"format_version": FORMAT_VERSION, "points": arr.tolist()}


def serialize_points(points: np.ndarray) -> str:
    return canonical_json(points_document(points))


def parse_points(data: Union[bytes, str], strict: bool = True) -> np.ndarray:
    obj = _object(_load(data), "document ")
    _fields(obj, "", required=("format_version", "points"), optional=(), strict=strict)
    _check_version(obj, "")
    return _matrix_from(obj["points"], "field 'points' ")
