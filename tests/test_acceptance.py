"""Acceptance gate: one test per advertised criterion.

Each test replays its criterion verbatim at the stated tolerance,
enforces the runtime budget, and prints a single pass line.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

import coarselab.cli as cli
from coarselab.covers_walls import (
    homology_cover,
    validate_walls,
    wall_hilbert_embedding,
    wall_pseudometric,
    walls_from_cover,
)
from coarselab.expander_zoo import cayley_graph, lps_graph
from coarselab.graph_core import (
    GraphFamily,
    adjacency_spectrum,
    build_graph,
    distance_matrix,
    girth,
)
from coarselab.jsonio import parse_graph, serialize_graph
from coarselab.labelings import check_small_cancellation, enumerate_pieces
from coarselab.poincare_lab import (
    GroupFunction,
    KernelFunction,
    cnd_from_function,
    is_cnd,
    relative_form_lhs,
    relative_form_rhs,
    relative_poincare_constant,
    resolve_group,
    subset_indices,
)
from coarselab.wreath import (
    WreathGroup,
    wreath_cayley,
    x_subset,
)

from groups import cyclic_group, serialize_group_table, wreath_mul
from oracles import (
    ball_elements,
    degrees,
    graphs_equal,
    naive_coset_ball_replay,
    naive_piece_summary,
    naive_poincare_constant,
    naive_wreath_table,
    random_reduced_family,
)
from paper_checks import (
    is_positive_definite,
    schoenberg_bound,
    schoenberg_transform,
    subwreath_embed,
    verify_subgraph_embedding,
)


def _pass(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"criterion {number}: PASS ({elapsed:.2f}s of {budget:.0f}s budget) {detail}")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def lamp_instance(n):
    return WreathGroup(Q=cyclic_group(n), B=cyclic_group(n), proj=tuple(range(n)))


def test_criterion_1_lps_reproduction(tmp_path):
    start = time.monotonic()
    out_path = tmp_path / "lps.json"
    code = cli.main(["lps", "--p", "5", "--q", "13", "--out", str(out_path)])
    assert code == 0
    g = parse_graph(out_path.read_text())
    assert g.vertex_count == 2184
    assert set(degrees(g)) == {6}
    assert g.is_connected
    assert girth(g) >= 6
    spectrum = adjacency_spectrum(g)
    assert spectrum.complete
    interior = [v for v in spectrum.eigenvalues if abs(abs(v) - 6.0) > 1e-9]
    assert len(interior) == 2182
    worst = max(abs(v) for v in interior)
    assert worst <= 2.0 * math.sqrt(5.0) + 1e-9
    elapsed = time.monotonic() - start
    _pass(
        1,
        elapsed,
        60,
        f"2184 vertices, 6-regular, connected, girth {girth(g)},"
        f" max nontrivial |eigenvalue| {worst:.6f} <= {2 * math.sqrt(5):.6f}",
    )


def test_criterion_2_k4_homology_cover():
    start = time.monotonic()
    cm = homology_cover(k4())
    cover = cm.cover
    assert cover.vertex_count == 32
    assert cover.edge_count == 48
    assert cm.deck_rank == 3
    assert girth(cover) == 6
    walls = walls_from_cover(cm)
    assert len(walls.walls) == 6
    assert all(len(w) == 8 for w in walls.walls)
    validate_walls(cover, walls)
    # every wall splits the cover into exactly two sides
    sides = walls.side_assignment
    assert sides.shape == (6, 32)
    assert all(set(np.unique(row)) == {0, 1} for row in sides)
    embedding = wall_hilbert_embedding(cover, walls)
    d_wall = wall_pseudometric(cover, walls)
    d_graph = distance_matrix(cover)
    pairs = 0
    for x in range(32):
        for y in range(x + 1, 32):
            gap = embedding[x] - embedding[y]
            assert float(np.dot(gap, gap)) == float(d_wall[x, y])
            pairs += 1
    assert pairs == 496
    assert np.all(d_wall <= d_graph)
    elapsed = time.monotonic() - start
    _pass(2, elapsed, 5, "32/48/rank 3/girth 6, 6 walls of 8, exact on 496 pairs")


def test_criterion_3_small_cancellation_oracle(tmp_path):
    start = time.monotonic()
    rng = random.Random(20260814)
    for _ in range(200):
        fam = random_reduced_family(rng)
        expected = naive_piece_summary(fam)
        report = check_small_cancellation(fam, Fraction(1, 2))
        assert list(report.max_piece_length) == expected["per_comp_max"]
        pieces = enumerate_pieces(fam)
        assert any(p.infinite for p in pieces) == expected["infinite"]
        if not expected["infinite"]:
            assert {p.word for p in pieces} == expected["maximal_words"]

    ladder = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)]
    mono_rng = random.Random(77)
    for _ in range(30):
        fam = random_reduced_family(mono_rng)
        flags = [check_small_cancellation(fam, lam).passed for lam in ladder]
        assert flags == sorted(flags)

    # sound success of the randomized labeling search on two 40-cycles
    edges = [(i, (i + 1) % 40) for i in range(40)]
    edges += [(40 + i, 40 + (i + 1) % 40) for i in range(40)]
    in_path = tmp_path / "two_c40.json"
    in_path.write_text(serialize_graph(build_graph(80, edges)))
    out_path = tmp_path / "labeled.json"
    code = cli.main(
        ["label", str(in_path), "--random", "--alphabet", "4", "--lambda", "1/6",
         "--seed", "1", "--out", str(out_path)]
    )
    assert code == 0
    labeled = parse_graph(out_path.read_text())
    assert isinstance(labeled, GraphFamily)
    summary = naive_piece_summary(labeled)
    assert not summary["infinite"]
    for longest in summary["per_comp_max"]:
        assert longest < Fraction(1, 6) * 40
    elapsed = time.monotonic() - start
    _pass(3, elapsed, 60, "200 oracle agreements, lambda monotone, labeling sound")


def test_criterion_4_wreath_arithmetic():
    start = time.monotonic()
    W = lamp_instance(3)
    ball = wreath_cayley(W)
    assert ball.complete
    assert ball.graph.vertex_count == 2 ** 3 * 3 == 24
    assert degrees(ball.graph) == [3] * 24
    for d in x_subset(W).elements:
        assert wreath_mul(W, d, d) == W.identity()
    _, _, mul = naive_wreath_table(W)
    table = np.array(mul)
    # left[a, b, c] = (ab)c, right[a, b, c] = a(bc); all 24^3 triples
    left = table[table]
    right = table[:, table]
    assert left.shape == (24, 24, 24)
    assert np.array_equal(left, right)

    small = WreathGroup(Q=cyclic_group(2), B=cyclic_group(2), proj=(0, 1))
    big = WreathGroup(
        Q=cyclic_group(6), B=cyclic_group(6, generators=(1, 3, 5)), proj=tuple(range(6))
    )
    mapping = subwreath_embed(
        small, big, vertex_inclusion={0: 0, 1: 3}, quotient_bijection={0: 0, 3: 1}
    )
    small_ball = wreath_cayley(small)
    big_ball = wreath_cayley(big)
    index = {x: i for i, x in enumerate(ball_elements(big, big_ball))}
    gm = {i: index[mapping[x]] for i, x in enumerate(ball_elements(small, small_ball))}
    assert verify_subgraph_embedding(gm, small_ball.graph, big_ball.graph)
    elapsed = time.monotonic() - start
    _pass(4, elapsed, 5, "24 elements, degree 3, involutive X, associative, embeds")


def test_criterion_5_relative_poincare():
    start = time.monotonic()
    for n in (2, 3):
        W = lamp_instance(n)
        result = relative_poincare_constant(W)
        order = resolve_group(W).order
        _, index, mul = naive_wreath_table(W)
        x_members = [index[d] for d in x_subset(W).elements]
        sigma = [index[s] for s in W.generators]
        oracle = naive_poincare_constant(mul, x_members, sigma, samples=100000, seed=0)
        assert oracle <= result.constant + 1e-9
        assert result.constant - oracle <= 1e-6

        rng = np.random.default_rng(500 + n)
        for _ in range(1000):
            f = GroupFunction(W, rng.standard_normal((order, 3)))
            lhs = relative_form_lhs(W, None, f)
            rhs = relative_form_rhs(W, None, f)
            assert lhs <= result.constant * rhs + 1e-9 * max(1.0, rhs)

        wl = relative_form_lhs(W, None, result.witness)
        wr = relative_form_rhs(W, None, result.witness)
        assert wl > (result.constant / 2.0) * wr

    # constant trend over desk instances; boundedness is out of reach
    # at this scale, so the values are only reported
    trend = [
        (n, relative_poincare_constant(lamp_instance(n)).constant) for n in (2, 3, 4)
    ]
    assert all(np.isfinite(c) and c > 0 for _, c in trend)
    elapsed = time.monotonic() - start
    _pass(
        5,
        elapsed,
        120,
        "oracle within 1e-6, 1000 probes clean, witness breaks C/2; trend "
        + ", ".join(f"n={n}: {c:.6f}" for n, c in trend),
    )


def test_criterion_6_schoenberg_machinery():
    start = time.monotonic()
    rng = random.Random(101)
    grid = [2.0 ** k for k in range(-4, 5)]
    cnd_count = 0
    for trial in range(100):
        G = cyclic_group(2 + trial % 7)
        vals = [0.0] * G.order
        for g in range(1, G.order):
            h = G.inverse(g)
            if vals[g] == 0.0 and g <= h:
                v = rng.uniform(-0.5, 1.5)
                vals[g] = v
                vals[h] = v
        psi = KernelFunction(G, np.array(vals))
        left = is_cnd(psi, tol=1e-8)
        right = all(
            is_positive_definite(schoenberg_transform(psi, t), tol=1e-8) for t in grid
        )
        assert left == right
        cnd_count += left
    assert 0 < cnd_count < 100

    replayed = 0
    nrng = np.random.default_rng(43)
    for delta in (0.3, 1.0):
        for trial in range(20):
            G = cyclic_group(4 + trial % 5)
            f = GroupFunction(G, nrng.standard_normal(G.order))
            psi = cnd_from_function(G, f).values
            sup_v = max(psi[s] for s in G.generators)
            if sup_v <= 1e-12:
                continue
            psi = psi / sup_v
            phi = np.exp(-delta * psi)
            inf_v = min(phi[s] for s in G.generators)
            assert inf_v >= 1.0 - delta
            others = [g for g in range(G.order) if g != G.identity]
            sup_x = max(psi[x] for x in others)
            inf_x = min(phi[x] for x in others)
            assert sup_x <= schoenberg_bound(inf_x, delta) + 1e-9
            replayed += 1
    assert replayed > 0
    elapsed = time.monotonic() - start
    _pass(6, elapsed, 30, f"100 equivalences ({cnd_count} cnd), {replayed} replays")


def test_criterion_7_corollary_replay():
    start = time.monotonic()
    W = lamp_instance(3)
    constant = relative_poincare_constant(W).constant
    sigma_size = len(W.generators)
    radius = math.sqrt(2.0 * constant * sigma_size)
    table = resolve_group(W)
    members = subset_indices(W, x_subset(W))
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        raw = rng.standard_normal((table.order, 3))
        worst = max(
            float(np.linalg.norm(raw[table.mul_table[x, s]] - raw[x]))
            for x in range(table.order)
            for s in table.generators
        )
        _, captured = naive_coset_ball_replay(table, members, raw / worst, radius)
        assert 2 * captured >= len(members)
    elapsed = time.monotonic() - start
    _pass(
        7,
        elapsed,
        30,
        f"100 Lipschitz maps, radius {radius:.4f} always holds half a coset",
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    start = time.monotonic()
    # randomized commands are byte-identical under a fixed seed
    in_path = tmp_path / "c12.json"
    in_path.write_text(serialize_graph(cayley_graph(cyclic_group(12))))
    artifacts = []
    for run in range(2):
        out_path = tmp_path / f"label{run}.json"
        code = cli.main(
            ["label", str(in_path), "--random", "--alphabet", "4", "--lambda",
             "1/6", "--seed", "1", "--out", str(out_path)]
        )
        assert code == 0
        artifacts.append(out_path.read_bytes())
    assert artifacts[0] == artifacts[1]

    z3_path = tmp_path / "z3.json"
    z3_path.write_text(serialize_group_table(cyclic_group(3)))
    poincare_runs = []
    for run in range(2):
        out_path = tmp_path / f"poincare{run}.json"
        code = cli.main(
            ["poincare", "--relative", "--q-table", str(z3_path), "--b-table",
             str(z3_path), "--proj", "0,1,2", "--trials", "40", "--seed", "3",
             "--out", str(out_path)]
        )
        assert code == 0
        poincare_runs.append(out_path.read_bytes())
    assert poincare_runs[0] == poincare_runs[1]

    # parse . serialize is the identity on every test graph shape
    lamp = WreathGroup(Q=cyclic_group(2), B=cyclic_group(2), proj=(0, 1))
    graphs = [
        cayley_graph(cyclic_group(6)),
        k4(),
        build_graph(
            3,
            [(0, 1, "a"), (1, 2, "a^-1"), (2, 2, "b"), (0, 2, None)],
            alphabet=["a", "b", "c"],
        ),
        wreath_cayley(lamp).graph,
        homology_cover(k4()).cover,
        lps_graph(13, 5)[0],
    ]
    for g in graphs:
        text = serialize_graph(g)
        back = parse_graph(text)
        assert graphs_equal(g, back)
        assert serialize_graph(back) == text
    elapsed = time.monotonic() - start
    _pass(8, elapsed, 60, f"2 commands byte-stable, {len(graphs)} graphs round-trip")
