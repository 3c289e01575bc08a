"""Small group tables, their JSON documents, and the lamplighter group
law on wreath elements: the fixtures that the tests and ``oracles.py``
build on.  The library reads group tables (``jsonio.parse_group_table``)
and multiplies wreath elements on integer lamp codes; these build the
tables and multiply element by element."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from coarselab.errors import InvalidInputError
from coarselab.expander_zoo import FiniteGroupTable, cayley_graph
from coarselab.graph_core import LabeledGraph, build_graph
from coarselab.jsonio import FORMAT_VERSION, canonical_json
from coarselab.wreath import WreathElement, WreathGroup


def cyclic_group(n: int, generators: Iterable[int] = (1,)) -> FiniteGroupTable:
    """Z/n with addition; generator list is symmetrized automatically."""
    if n < 1:
        raise InvalidInputError("cyclic group order must be >= 1")
    mul = (np.arange(n)[:, None] + np.arange(n)) % n
    gens: list[int] = []
    for s in generators:
        s %= n
        for t in (s, (-s) % n):
            if t != 0 and t not in gens:
                gens.append(t)
    return FiniteGroupTable(mul, gens, [str(i) for i in range(n)])


def symmetric_group(n: int, generators: Optional[Sequence[tuple[int, ...]]] = None) -> FiniteGroupTable:
    """S_n on tuples, product (fg)(i) = f(g(i)); default gens: adjacent transpositions."""
    if not (1 <= n <= 6):
        raise InvalidInputError("symmetric_group supports 1 <= n <= 6")
    elements = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    mul = [
        [index[tuple(f[g[i]] for i in range(n))] for g in elements]
        for f in elements
    ]
    if generators is None:
        generators = [
            tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n))
            for k in range(n - 1)
        ]
    gen_idx = []
    for perm in generators:
        p = tuple(perm)
        if p not in index:
            raise InvalidInputError(f"{perm} is not a permutation of 0..{n - 1}")
        gen_idx.append(index[p])
        inverse = tuple(p.index(i) for i in range(n))
        gen_idx.append(index[inverse])
    names = ["".join(map(str, p)) for p in elements]
    return FiniteGroupTable(mul, dict.fromkeys(gen_idx), names)


def named_cayley_graph(group: FiniteGroupTable, *names: str) -> LabeledGraph:
    """``cayley_graph(group)`` with its labels ``s0, s1, ...`` renamed to
    ``names`` in order."""
    g = cayley_graph(group)
    rename = {f"s{k}": name for k, name in enumerate(names)}
    labels = [rename.get(lab, lab) for lab in g.labels()[0::2]]
    return build_graph(g.vertex_count, columns=(g.src[0::2].tolist(), g.dst[0::2].tolist(), labels))


def group_document(table: FiniteGroupTable) -> dict:
    n = table.order
    return {
        "format_version": FORMAT_VERSION,
        "mul": table.mul_table.tolist(),
        "generators": sorted(table.generators),
        "names": [table.name(i) for i in range(n)],
    }


def serialize_group_table(table: FiniteGroupTable) -> str:
    return canonical_json(group_document(table))


def wreath_mul(W: WreathGroup, x: WreathElement, y: WreathElement) -> WreathElement:
    W.validate(x)
    W.validate(y)
    shift = W.proj[x.b]
    moved = frozenset(int(W.Q.mul_table[shift, q]) for q in y.config)
    return WreathElement(x.config ^ moved, int(W.B.mul_table[x.b, y.b]))
