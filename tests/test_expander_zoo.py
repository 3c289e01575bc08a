import math
import random
import tracemalloc

import numpy as np
import pytest

from coarselab import expander_zoo
from coarselab.errors import CapExceededError, InvalidInputError
from coarselab.expander_zoo import (
    FiniteGroupTable,
    LpsParams,
    cayley_graph,
    homomorphism_defect,
    is_bipartite,
    is_prime,
    legendre_symbol,
    lps_graph,
    lps_quadruples,
    sqrt_minus_one,
    verify_lps,
)
from coarselab.graph_core import adjacency_spectrum, build_graph, diameter, girth, two_coloring

from groups import cyclic_group, named_cayley_graph, symmetric_group
from oracles import degrees, edge_list, naive_pgl2_mul_table, naive_table_error, right_orbit


def is_regular(g):
    return len(set(degrees(g))) == 1


@pytest.fixture(scope="module")
def x_5_13():
    return lps_graph(5, 13)


@pytest.fixture(scope="module")
def x_13_5():
    return lps_graph(13, 5)


class TestFiniteGroupTable:
    def test_cyclic_basics(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.identity == 0
        assert g.right(2)[3] == 1
        assert g.inverse(1) == 3
        assert set(g.generators) == {1, 3}

    def test_cyclic_table_equals_the_list_version(self):
        for n in range(1, 65):
            rows = [[(a + b) % n for b in range(n)] for a in range(n)]
            g = cyclic_group(n, [1, 5])
            assert g.mul_table.tolist() == rows
            assert g.mul_table.dtype == np.int64

    def test_not_associative_rejected(self):
        # subtraction mod 3 has an identity-like column but no associativity
        bad = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(InvalidInputError):
            FiniteGroupTable(bad, ())

    def test_lights_test_agrees_with_every_triple(self):
        # one corrupted product in a group table; the constructor checks
        # associativity on the generators only, an oracle on all triples
        rng = random.Random(19)
        verdicts = set()
        for base in (symmetric_group(3), cyclic_group(8), cyclic_group(6, generators=(1, 3))):
            n = base.order
            for _ in range(40):
                mul = base.mul_table.copy()
                a, b = rng.randrange(n), rng.randrange(n)
                mul[a, b] = rng.randrange(n)
                associative = all(
                    mul[mul[x, y], z] == mul[x, mul[y, z]]
                    for x in range(n) for y in range(n) for z in range(n)
                )
                try:
                    FiniteGroupTable(mul, base.generators)
                except InvalidInputError as e:
                    if "associative" not in str(e):
                        continue  # an identity, inverse or generation check fired first
                    assert not associative
                    verdicts.add(False)
                else:
                    assert associative
                    verdicts.add(True)
        assert verdicts == {True, False}

    def test_lights_test_checks_every_generator(self):
        # a non-associative loop of order 5, each element its own inverse,
        # times Z/2: the first generator (e, 1) is central and associates
        # with everything, so only the later ones expose the loop
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        mul = [[2 * loop[x >> 1][y >> 1] + ((x ^ y) & 1) for y in range(10)] for x in range(10)]
        with pytest.raises(InvalidInputError, match="not associative"):
            FiniteGroupTable(mul, [1, 2, 4])

    @pytest.mark.parametrize("order", [12, 24, 300, 384])
    def test_checks_fail_like_the_loop_oracle(self, order):
        """Seeded corruptions of a group table, relabelled so the identity
        moves: the constructor passes or fails with the message of the
        per-element loops, and finds the same identity and inverses."""
        from coarselab.poincare_lab import resolve_group
        from coarselab.wreath import WreathGroup

        z6 = cyclic_group(6)
        base = {
            12: cyclic_group(12, generators=(1, 4)),
            24: symmetric_group(4),
            300: cyclic_group(300, generators=(1, 7)),
            384: resolve_group(WreathGroup(Q=z6, B=z6, proj=tuple(range(6)))),
        }[order]
        rng = np.random.default_rng(order)
        seen = set()
        for trial in range(48):
            perm = rng.permutation(order)
            mul = np.empty_like(base.mul_table)
            mul[np.ix_(perm, perm)] = perm[base.mul_table]
            gens = [int(perm[s]) for s in base.generators]
            x, y = rng.integers(order, size=2)
            kind = trial % 6
            if kind == 1:  # a few products overwritten
                k = rng.integers(1, 4)
                mul[rng.integers(order, size=k), rng.integers(order, size=k)] = rng.integers(order, size=k)
            elif kind == 2:  # a second identity in a row
                mul[x, y] = perm[0]
            elif kind == 3:  # two rows exchanged
                mul[[x, y]] = mul[[y, x]]
            elif kind == 4:  # rows scrambled off the identity's column
                for r in rng.choice(np.flatnonzero(perm != perm[0]), size=6, replace=False):
                    keep = mul[r] == perm[0]
                    cols = np.flatnonzero((np.arange(order) != perm[0]) & ~keep)
                    mul[r, cols] = mul[r, rng.permutation(cols)]
            elif kind == 5:  # a generator not closed under inverse
                gens = gens[:1]
            want = naive_table_error(mul, gens)
            seen.add(want.split(" ")[0] if want else None)
            if want is None:
                table = FiniteGroupTable(mul, gens)
                idx = np.arange(order)
                assert table.identity == next(
                    e for e in idx if (mul[e] == idx).all() and (mul[:, e] == idx).all()
                )
                assert (mul[idx, table.inv] == table.identity).all()
                assert (mul[table.inv, idx] == table.identity).all()
                continue
            with pytest.raises(InvalidInputError) as err:
                FiniteGroupTable(mul, gens)
            assert str(err.value) == want
        assert {None, "table", "element", "multiplication"} <= seen

    def test_no_identity_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteGroupTable([[1, 0], [1, 0]], ())

    def test_generators_must_be_closed_under_inverse(self):
        mul = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(InvalidInputError):
            FiniteGroupTable(mul, [1])

    def test_generators_must_generate(self):
        with pytest.raises(InvalidInputError, match="only reach 2 of 4 elements"):
            cyclic_group(4, generators=[2])

    def test_generation_check_counts_the_right_orbit(self):
        s4 = symmetric_group(4)
        rng = random.Random(29)
        reached = set()
        for _ in range(60):
            gens = {rng.randrange(s4.order) for _ in range(rng.randint(1, 3))} - {s4.identity}
            if not gens:
                continue
            gens |= {s4.inverse(s) for s in gens}
            want = int(right_orbit(s4.mul_table[:, sorted(gens)].T, s4.identity).sum())
            if want == s4.order:
                FiniteGroupTable(s4.mul_table, gens)
            else:
                with pytest.raises(InvalidInputError, match=f"only reach {want} of 24 elements"):
                    FiniteGroupTable(s4.mul_table, gens)
            reached.add(want)
        assert {2, 3, 4, 24} <= reached

    def test_identity_is_not_a_generator(self):
        mul = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(InvalidInputError):
            FiniteGroupTable(mul, [0, 1, 2])

    def test_symmetric_group_order(self):
        s4 = symmetric_group(4)
        assert s4.order == 24
        # adjacent transpositions generate
        assert len(s4.generators) == 3

    def test_homomorphism_defect_is_first_failing_pair(self):
        z4, z2 = cyclic_group(4), cyclic_group(2)
        assert homomorphism_defect((0, 1, 0, 1), z4, z2) is None
        assert homomorphism_defect((0, 1, 0, 0), z4, z2) == (1, 2)
        assert homomorphism_defect((0, 0, 0, 0), z4, z2) is None


class TestCayleyGraph:
    def test_z4_gives_c4(self):
        g = cayley_graph(cyclic_group(4))
        assert g.vertex_count == 4 and g.edge_count == 4
        assert girth(g) == 4
        vals = adjacency_spectrum(g).eigenvalues
        assert np.allclose(vals, [2, 0, 0, -2], atol=1e-9)

    def test_involution_and_inverse_pair_give_three_regular(self):
        g = cayley_graph(cyclic_group(6, generators=(1, 3)))
        assert g.vertex_count == 6 and g.edge_count == 9
        assert is_regular(g) and degrees(g)[0] == 3

    def test_z2_involutive_generator_single_edge(self):
        g = cayley_graph(cyclic_group(2))
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_s3_two_transpositions_hexagon(self):
        s3 = symmetric_group(3, generators=[(1, 0, 2), (0, 2, 1)])
        g = cayley_graph(s3)
        assert g.vertex_count == 6 and g.edge_count == 6
        assert girth(g) == 6 and g.is_connected

    def test_every_group_element_and_generator_has_its_dart(self):
        grp = cyclic_group(6)
        g = cayley_graph(grp)
        darts = {(g.src[d], g.dst[d]) for d in range(g.dart_count)}
        for x in range(6):
            for s in grp.generators:
                assert (x, grp.mul_table[x, s]) in darts

    def test_custom_labels(self):
        g = named_cayley_graph(cyclic_group(4), "t")
        assert g.alphabet == {"t"}

    def test_label_orientation_consistent(self):
        # dart x -> x+1 must read the pair's base symbol, x -> x-1 its inverse
        grp = cyclic_group(5)
        g = named_cayley_graph(grp, "a")
        for d in range(g.dart_count):
            u, v = g.src[d], g.dst[d]
            if (u + 1) % 5 == v:
                assert g.labels()[d] == "a"
            else:
                assert g.labels()[d] == "a^-1"


class TestNumberTheory:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_legendre(self):
        assert legendre_symbol(13, 5) == -1
        assert legendre_symbol(5, 13) == -1
        assert legendre_symbol(13, 17) == 1
        assert legendre_symbol(4, 13) == 1
        assert legendre_symbol(26, 13) == 0

    def test_sqrt_minus_one(self):
        for q in (5, 13, 17, 29):
            i = sqrt_minus_one(q)
            assert (i * i) % q == q - 1

    def test_quadruples_count_is_p_plus_one(self):
        for p in (5, 13, 17, 29):
            quads = lps_quadruples(p)
            assert len(quads) == p + 1
            for a0, a1, a2, a3 in quads:
                assert a0 > 0 and a0 % 2 == 1
                assert a1 % 2 == a2 % 2 == a3 % 2 == 0
                assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p


class TestLpsParams:
    def test_valid_pairs(self):
        assert LpsParams.validate(5, 13).legendre == -1
        assert LpsParams.validate(13, 5).legendre == -1

    def test_residue_case_rejected(self):
        with pytest.raises(InvalidInputError, match="Legendre"):
            LpsParams.validate(13, 17)

    def test_wrong_congruence_rejected(self):
        with pytest.raises(InvalidInputError):
            LpsParams.validate(7, 13)
        with pytest.raises(InvalidInputError):
            LpsParams.validate(5, 11)

    def test_equal_or_composite_rejected(self):
        with pytest.raises(InvalidInputError):
            LpsParams.validate(5, 5)
        with pytest.raises(InvalidInputError):
            LpsParams.validate(9, 13)

    def test_large_q_needs_override(self):
        with pytest.raises(CapExceededError):
            lps_graph(5, 73)


class TestPgl2:
    def test_order(self):
        assert expander_zoo._Pgl2(5).order == 120

    @pytest.mark.parametrize("p, q", [(13, 5), (5, 13)], ids=["5", "13"])
    def test_right_products_and_inverses_equal_the_table(self, p, q):
        # every element at q = 5, every generator at q = 13
        _, pgl = lps_graph(p, q)
        table = naive_pgl2_mul_table(pgl)
        assert np.array_equal(table[pgl.identity], np.arange(pgl.order))
        for s in range(pgl.order) if q == 5 else pgl.generators:
            assert np.array_equal(pgl.right(s), table[:, s])
            t = pgl.inverse(s)
            assert table[s, t] == table[t, s] == pgl.identity

    def test_escaped_product_is_rejected(self):
        pgl = expander_zoo._Pgl2(5)
        pgl.elements[7] = (1, 2, 1, 2)  # singular, so every product with it is
        with pytest.raises(InvalidInputError, match="escaped the canonical element list"):
            pgl.right(7)

    @pytest.mark.parametrize("q", [5, 13])
    def test_closed_form_index_is_the_sorted_position(self, q):
        forms = sorted(
            [(0, 1, c, d) for c in range(1, q) for d in range(q)]
            + [(1, b, c, d) for b in range(q) for c in range(q) for d in range(q) if d != b * c % q]
        )
        pgl = expander_zoo._Pgl2(q)
        assert pgl.elements.tolist() == [list(f) for f in forms]
        assert pgl._indices(*np.array(forms).T).tolist() == list(range(len(forms)))
        # any nonzero scalar multiple of a form finds the same index
        scaled = np.array(forms)[:, None, :] * np.arange(1, q)[None, :, None] % q
        assert np.array_equal(pgl._indices(*scaled.T).T, np.repeat(np.arange(len(forms))[:, None], q - 1, axis=1))

    def test_q61_holds_no_dense_table(self):
        tracemalloc.start()
        try:
            expander_zoo._Pgl2(61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense q^4 lookup that the closed form replaced traced 139.7 MB
        assert peak < 32e6

    @staticmethod
    def true_pairs(p, q):
        pgl = lps_graph(p, q)[1]
        return sorted({tuple(sorted((s, pgl.inverse(s)))) for s in pgl.generators})

    def test_generators_not_closed_under_inverse_are_rejected(self, monkeypatch):
        (a, _), *_ = self.true_pairs(13, 5)
        real = expander_zoo._Pgl2.inverse
        outside = next(x for x in range(120) if x not in lps_graph(13, 5)[1].generators)
        monkeypatch.setattr(expander_zoo._Pgl2, "inverse", lambda pgl, x: outside if x == a else real(pgl, x))
        with pytest.raises(InvalidInputError, match="not closed under inverse"):
            lps_graph(13, 5)

    def test_tampered_generator_pair_is_rejected(self, monkeypatch):
        # pair a with b^-1 and b with a^-1: still closed under the tampered
        # inverse, but right(b^-1) does not undo right(a)
        (a, a2), (b, b2), *_ = self.true_pairs(13, 5)
        swap = {a: b2, b2: a, b: a2, a2: b}
        real = expander_zoo._Pgl2.inverse
        monkeypatch.setattr(expander_zoo._Pgl2, "inverse", lambda pgl, x: swap.get(x, real(pgl, x)))
        with pytest.raises(InvalidInputError, match="not undone by its inverse"):
            lps_graph(13, 5)

    def test_lps_generators_distinct_and_inverse_closed(self, x_13_5):
        _, table = x_13_5
        gens = table.generators
        assert len(gens) == 14
        assert {table.inverse(s) for s in gens} == set(gens)
        # quaternion conjugation never fixes a generator here
        assert all(table.inverse(s) != s for s in gens)


class TestLpsGraphs:
    def test_x_5_13_shape(self, x_5_13):
        g, table = x_5_13
        assert g.vertex_count == 13 * (13 * 13 - 1) == 2184
        assert is_regular(g) and degrees(g)[0] == 6
        assert table.order == 2184

    def test_x_5_13_report_passes(self, x_5_13):
        g, table = x_5_13
        rep = verify_lps(g, LpsParams.validate(5, 13), table)
        assert rep.passed, rep.failures
        assert rep.bipartite
        assert rep.girth >= math.ceil(4 * math.log(13, 5) - math.log(4, 5)) == 6
        assert rep.top_eigenvalue == pytest.approx(6.0, abs=1e-9)
        assert rep.bottom_eigenvalue == pytest.approx(-6.0, abs=1e-9)
        assert rep.max_interior_abs <= 2 * math.sqrt(5) + 1e-9
        assert rep.spectrum_complete
        assert (rep.girth, rep.diameter) == (8, 7)

    def test_x_13_5_shape_and_report(self, x_13_5):
        g, table = x_13_5
        assert g.vertex_count == 5 * 24 == 120
        assert degrees(g)[0] == 14
        rep = verify_lps(g, LpsParams.validate(13, 5), table)
        assert rep.passed, rep.failures

    @staticmethod
    def spy_sources(monkeypatch):
        """Record the ``sources`` verify_lps passes to girth and diameter."""
        import coarselab.expander_zoo as expander_zoo

        seen = []
        for name in ("girth", "diameter"):
            real = getattr(expander_zoo, name)
            spy = lambda g, sources=None, real=real, name=name: seen.append((name, sources)) or real(g, sources)
            monkeypatch.setattr(expander_zoo, name, spy)
        return seen

    def test_one_source_girth_and_diameter_match_all_sources(self, x_13_5, monkeypatch):
        g, table = x_13_5
        seen = self.spy_sources(monkeypatch)
        rep = verify_lps(g, LpsParams.validate(13, 5), table)
        assert seen == [("girth", (table.identity,)), ("diameter", (table.identity,))]
        assert (rep.girth, rep.diameter) == (girth(g), diameter(g)) == (4, 3)

    def test_two_switch_fails_the_cayley_guard(self, x_13_5, monkeypatch):
        # replace edges a-b and c-d (a, c on one side) by a-d and c-b:
        # degrees and bipartiteness stay, the Cayley structure does not
        g, table = x_13_5
        edges = list(edge_list(g))
        neighbours = {frozenset((u, v)) for u, v, _ in edges}
        color = two_coloring(g)
        rng = random.Random(11)
        while True:
            i, j = rng.sample(range(len(edges)), 2)
            (a, b, la), (c, d, lc) = edges[i], edges[j]
            fresh = not {frozenset((a, d)), frozenset((c, b))} & neighbours
            if len({a, b, c, d}) == 4 and color[a] == color[c] and fresh:
                break
        edges[i], edges[j] = (a, d, la), (c, b, lc)
        mutant = build_graph(g.vertex_count, edges, alphabet=sorted(g.alphabet))
        assert is_regular(mutant) and is_bipartite(mutant)
        seen = self.spy_sources(monkeypatch)
        rep = verify_lps(mutant, LpsParams.validate(13, 5), table)
        assert seen == [("girth", None), ("diameter", None)]
        assert not rep.passed
        assert "not the Cayley graph of its table" in rep.failures
        assert (rep.girth, rep.diameter) == (girth(mutant), diameter(mutant))

    def test_determinism(self, x_13_5):
        g1, t1 = x_13_5
        g2, t2 = lps_graph(13, 5)
        assert list(edge_list(g1)) == list(edge_list(g2))
        assert np.array_equal(t1.elements, t2.elements)
        assert t1.generators == t2.generators

    def test_vertex_transitive_via_group_translation(self, x_13_5):
        g, group = x_13_5
        table = naive_pgl2_mul_table(group)
        labeled = {}
        for d in range(g.dart_count):
            labeled[(g.src[d], g.labels()[d])] = g.dst[d]
        rng = random.Random(77)
        for _ in range(20):
            u = rng.randrange(g.vertex_count)
            v = rng.randrange(g.vertex_count)
            h = table[v, group.inverse(u)]
            # left translation x -> hx sends u to v and preserves labeled darts
            assert table[h, u] == v
            for (x, lab), y in labeled.items():
                assert labeled[(table[h, x], lab)] == table[h, y]

    def test_lps_graph_traces_no_table(self):
        # the PGL2(17) table alone would take 4896^2 int64 entries, 192 MB
        tracemalloc.start()
        try:
            g, _ = lps_graph(5, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.vertex_count == 4896
        assert peak < 48e6

    def test_mutation_breaks_regularity(self, x_13_5):
        g, table = x_13_5
        edges = list(edge_list(g))
        rng = random.Random(3)
        del edges[rng.randrange(len(edges))]
        mutant = build_graph(g.vertex_count, edges, alphabet=sorted(g.alphabet))
        rep = verify_lps(mutant, LpsParams.validate(13, 5), table)
        assert not rep.passed
        assert any("regular" in f for f in rep.failures)

    def test_bipartite_helper(self):
        assert is_bipartite(build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert not is_bipartite(build_graph(3, [(0, 1), (1, 2), (2, 0)]))
