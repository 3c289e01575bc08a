"""JSON interchange for graphs, group tables, map families, and points.

Every document is a versioned JSON object.  Parsing is strict by
default: unknown fields are errors naming the offending location, so a
typo cannot silently change meaning.  A graph's edge records are checked
for their shape in bulk and handed to ``build_graph`` as columns, which
checks them once; only when a check fails are they walked, to name the
first bad one.

Serialization is canonical, so repeated runs are byte-comparable: the
bytes of ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)``
and one trailing newline, written by one template writer that
``tests/oracles.py`` holds equal to that call.  parse . serialize is the
identity on vertex count, dart triples with labels and orientations, and
the alphabet; annotations ride along as plain JSON (tuples become lists).
"""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii as _string
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
        raise InvalidInputError(f"not valid JSON: {e.msg} at line {e.lineno} column {e.colno}") from e
    except RecursionError as e:
        raise InvalidInputError("not valid JSON: nested too deeply") from e


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
    if type(value) is not int:
        raise InvalidInputError(f"{where}field {field!r} must be an integer")
    return value


# -- the canonical writer -------------------------------------------------------


def _scalar_row(items, sep: str):
    """``items`` as JSON joined by ``sep`` in one step when they are all
    strings, all ints or all floats, else None."""
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        return sep.join(map(_string, items))
    if kind is int:
        return sep.join(map(int.__repr__, items))
    if kind is not None and issubclass(kind, float):
        text = sep.join(map(float.__repr__, items))
        # repr spells the non-finite values nan, inf and -inf
        return sep.join(map(json.dumps, items)) if "n" in text else text
    return None


def _edges_text(g: LabeledGraph, pad: str) -> str:
    """The edge list of ``g``, one forward record per edge (dart 2k)."""
    if not g.edge_count:
        return "[]"
    inner, field = pad + "  ", pad + "    "
    record = ("{" + field + '"label": %s,' + field + '"orientation": "forward",'
              + field + '"u": %d,' + field + '"v": %d' + inner + "}")
    names = [*map(_string, g.symbols), "null"]
    rows = zip(map(names.__getitem__, g.codes[::2].tolist()), g.src[::2].tolist(), g.dst[::2].tolist())
    return "[" + inner + ("," + inner).join(map(record.__mod__, rows)) + pad + "]"


def _items(value, pad: str) -> list[str]:
    """The items of a list as JSON, each item object written once.  A row
    that a list holds many times, such as the support tuple that
    ``wreath_cayley`` shares among the vertices of one lamp mask, costs one
    lookup after the first.  The key is the object's identity, which the
    list keeps alive: rows that compare equal but write different bytes,
    (1,), (True,) and (1.0,), never share a text."""
    memo = {}
    out = []
    for v in value:
        text = memo.get(id(v))
        if text is None:
            text = memo[id(v)] = _text(v, pad)
        out.append(text)
    return out


def _text(value, pad: str) -> str:
    """``value`` as JSON on a line whose indent is ``pad`` (a newline, then spaces)."""
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        row = _scalar_row(value, sep)
        if row is None:
            row = sep.join(_items(value, inner))
        return "[" + inner + row + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(map(isinstance, value, repeat(str))):
            raise InvalidInputError("annotation keys must be strings")
        fields = [_string(k) + ": " + _text(value[k], inner) for k in sorted(value)]
        return "{" + inner + sep.join(fields) + pad + "}"
    if isinstance(value, LabeledGraph):
        fields = ['"alphabet": ' + _text(sorted(value.alphabet), inner)]
        if value.annotations:
            fields.append('"annotations": ' + _text(value.annotations, inner))
        fields.append('"edges": ' + _edges_text(value, inner))
        fields.append(f'"format_version": "{FORMAT_VERSION}"')
        fields.append(f'"vertices": {value.vertex_count}')
        return "{" + inner + sep.join(fields) + pad + "}"
    try:  # a scalar, or no JSON value
        return json.dumps(value)
    except TypeError:
        raise InvalidInputError(f"annotation value of type {type(value).__name__} is not JSON-serializable") from None


def canonical_json(doc) -> str:
    """The one JSON encoding every emitter uses: sorted keys, two-space
    indent, ASCII, one trailing newline.  A :class:`LabeledGraph` anywhere
    in ``doc`` is written as its graph document."""
    return _text(doc, "\n") + "\n"


# -- graph documents ----------------------------------------------------------


def _edge_columns(raw: list, strict: bool):
    """The u, v and label columns of an edge list, each edge written
    forward, when its records pass the document-shape checks in bulk;
    else None."""
    try:
        keys = set(map(tuple, raw))
        us, vs, labels = (list(map(dict.get, raw, repeat(k))) for k in ("u", "v", "label"))
        orients = list(map(dict.get, raw, repeat("orientation"), repeat("forward")))
        if not (
            all("u" in k and "v" in k for k in keys)
            and (not strict or set().union(*keys) <= {"u", "v", "label", "orientation"})
            and set(orients) <= {"forward", "reverse"}
        ):
            return None
    except TypeError:  # a record that is no object, or an unhashable orientation
        return None
    if "reverse" in orients:
        back = [o == "reverse" for o in orients]
        us, vs = [v if b else u for u, v, b in zip(us, vs, back)], [u if b else v for u, v, b in zip(us, vs, back)]
    return us, vs, labels


def graph_from_document(doc, strict: bool = True, where: str = "") -> LabeledGraph:
    """A graph document's graph.  The edge records pass the document-shape
    checks in bulk and :func:`~coarselab.graph_core.build_graph` checks
    their columns; only when either fails are the records walked, to name
    the first bad one in document terms."""
    obj = _object(doc, where or "graph document ")
    _fields(obj, where, ("format_version", "alphabet", "vertices", "edges"), ("annotations",), strict)
    _check_version(obj, where)
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise InvalidInputError(f"{where}field 'alphabet' must be a list of strings")
    n = _int(obj["vertices"], where, "vertices")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise InvalidInputError(f"{where}field 'edges' must be a list")
    columns = _edge_columns(raw_edges, strict)
    graph = error = None
    try:
        graph = build_graph(n, alphabet=alphabet, columns=columns) if columns else None
    except InvalidInputError as err:
        error = err
    for i, e in enumerate(raw_edges if graph is None else ()):
        ew = f"{where}edge {i}: "
        _object(e, ew)
        _fields(e, ew, required=("u", "v"), optional=("label", "orientation"), strict=strict)
        ends = (_int(e["u"], ew, "u"), _int(e["v"], ew, "v"))
        for name, end in zip("uv", ends):
            if not (0 <= end < n):
                raise InvalidInputError(f"{ew}endpoint {name} = {end} out of range [0, {n})")
        lab = e.get("label")
        if lab is not None and not isinstance(lab, str):
            raise InvalidInputError(f"{ew}field 'label' must be a string or null")
        if lab is not None and base_symbol(lab) not in alphabet:
            raise InvalidInputError(f"{ew}label {lab!r} outside the declared alphabet")
        if e.get("orientation", "forward") not in ("forward", "reverse"):
            raise InvalidInputError(f"{ew}field 'orientation' must be 'forward' or 'reverse'")
    annotations = obj.get("annotations")
    if annotations is not None:
        _object(annotations, f"{where}annotations: ")
    if error is not None:
        raise InvalidInputError(f"{where}{error}") from error
    graph.annotations.update(annotations or {})
    return graph


def serialize_graph(g: LabeledGraph) -> str:
    return canonical_json(g)


def serialize_graph_family(fam: GraphFamily, annotations: dict = None) -> str:
    doc = {"format_version": FORMAT_VERSION, "graphs": fam.components}
    if annotations:
        doc["annotations"] = annotations
    return canonical_json(doc)


def parse_graph(data: Union[bytes, str], strict: bool = True) -> Union[LabeledGraph, GraphFamily]:
    """Parse a single-graph document, or a family document holding a
    ``graphs`` list (each member a full graph document)."""
    doc = _object(_load(data), "document ")
    if "graphs" in doc:
        _fields(doc, "", ("format_version", "graphs"), ("annotations",), strict)
        _check_version(doc, "")
        members = doc["graphs"]
        if not isinstance(members, list) or not members:
            raise InvalidInputError("field 'graphs' must be a nonempty list")
        return GraphFamily(tuple(
            graph_from_document(m, strict=strict, where=f"graphs[{i}]: ") for i, m in enumerate(members)
        ))
    return graph_from_document(doc, strict=strict)


# -- group table documents ------------------------------------------------------


def parse_group_table(data: Union[bytes, str], strict: bool = True) -> expander_zoo.FiniteGroupTable:
    obj = _object(_load(data), "document ")
    _fields(obj, "", ("format_version", "mul"), ("generators", "names"), strict)
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
    if names is not None and (
        not isinstance(names, list) or len(names) != n or not all(isinstance(s, str) for s in names)
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
        raise InvalidInputError(f"{where}needs exactly one of {graph_key!r} or {array_key!r}")
    _fields(obj, where, required=(keys[0],), optional=(), strict=strict)
    if keys[0] == graph_key:
        return graph_from_document(obj[graph_key], strict=strict, where=where)
    return _matrix_from(obj[array_key], where)


def _space(value, array_key: str) -> dict:
    if isinstance(value, LabeledGraph):
        return {"graph": value}
    return {array_key: np.asarray(value, dtype=np.float64).tolist()}


def serialize_map_family(mf: metric_diag.MapFamily) -> str:
    entries = [
        {"source": _space(e.source, "matrix"), "target": _space(e.target, "points"), "mapping": e.mapping}
        for e in mf.entries
    ]
    return canonical_json({"format_version": FORMAT_VERSION, "entries": entries})


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


def serialize_points(points: np.ndarray) -> str:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError("points must form an (n, d) array")
    return canonical_json({"format_version": FORMAT_VERSION, "points": arr.tolist()})


def parse_points(data: Union[bytes, str], strict: bool = True) -> np.ndarray:
    obj = _object(_load(data), "document ")
    _fields(obj, "", required=("format_version", "points"), optional=(), strict=strict)
    _check_version(obj, "")
    return _matrix_from(obj["points"], "field 'points' ")
