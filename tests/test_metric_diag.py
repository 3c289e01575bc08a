"""Tests for compression moduli, weak embeddings, distortion, and
ball-concentration diagnostics."""

import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from coarselab import metric_diag
from coarselab.covers_walls import (
    homology_cover,
    iterate_homology_cover,
    wall_hilbert_embedding,
    wall_pseudometric,
    walls_from_cover,
)
from coarselab.errors import DisconnectedGraphError, InvalidInputError
from coarselab.expander_zoo import cayley_graph
from coarselab.graph_core import build_graph, distance_matrix, xor_deck
from coarselab.metric_diag import (
    MapEntry,
    MapFamily,
    ModuliReport,
    ball_concentration,
    compression_moduli,
    is_weak_embedding,
)
from coarselab.poincare_lab import GroupFunction, _form_members, resolve_group
from coarselab.wreath import WreathGroup
from groups import cyclic_group
from oracles import (
    naive_ball_concentration,
    naive_compression_moduli,
    naive_coset_ball_replay,
    naive_distortion,
    naive_is_weak_embedding,
    multi_k4,
    prism,
    random_connected_graph,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# frozen output of the sampling oracle on the lamp group over Z/3; see
# test_poincare_lab for the derivation
DESK_CONSTANT_Z3 = 1.5205176042696106


def cycle(n):
    return cayley_graph(cyclic_group(n))


def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def hexagon():
    # unit circumradius, so adjacent corners sit at distance exactly 1
    return np.array(
        [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
    )


def wall_entry(base):
    """The double cover of ``base`` mapped into its wall coordinates."""
    cm = homology_cover(base)
    walls = walls_from_cover(cm)
    points = wall_hilbert_embedding(cm.cover, walls)
    return cm, walls, MapEntry(cm.cover, points, tuple(range(cm.cover.vertex_count)))


def identity_entry(g):
    return MapEntry(g, g, tuple(range(g.vertex_count)))


# -- map families -------------------------------------------------------------


class TestMapFamily:
    def test_entry_size(self):
        e = identity_entry(cycle(5))
        assert e.size == 5
        assert len(MapFamily((e,))) == 1

    def test_mapping_length_checked(self):
        with pytest.raises(InvalidInputError, match="map table has 2 entries"):
            MapEntry(cycle(3), cycle(3), (0, 1))

    def test_mapping_range_checked(self):
        with pytest.raises(InvalidInputError, match="outside the target"):
            MapEntry(cycle(3), cycle(3), (0, 1, 7))

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one entry"):
            MapFamily(())

    def test_matrix_source_validated(self):
        pts = np.zeros((2, 1))
        with pytest.raises(InvalidInputError, match="square"):
            MapEntry(np.zeros((2, 3)), pts, (0, 0))
        bad_sym = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInputError, match="symmetric"):
            compression_moduli(MapFamily((MapEntry(bad_sym, pts, (0, 1)),)))
        bad_diag = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="symmetric"):
            compression_moduli(MapFamily((MapEntry(bad_diag, pts, (0, 1)),)))
        neg = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="nonnegative"):
            compression_moduli(MapFamily((MapEntry(neg, pts, (0, 1)),)))
        inf = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(InvalidInputError, match="finite"):
            compression_moduli(MapFamily((MapEntry(inf, pts, (0, 1)),)))

    def test_disconnected_source_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        entry = MapEntry(g, np.zeros((1, 1)), (0, 0, 0, 0))
        with pytest.raises(DisconnectedGraphError):
            compression_moduli(MapFamily((entry,)))

    def test_point_target_must_be_2d(self):
        with pytest.raises(InvalidInputError, match=r"\(m, d\) array"):
            MapEntry(cycle(3), np.zeros(3), (0, 1, 2))


# -- compression moduli --------------------------------------------------------


class TestCompressionModuli:
    def test_identity_on_cycle(self):
        rep = compression_moduli(MapFamily((identity_entry(cycle(6)),)))
        assert rep.distances == (1.0, 2.0, 3.0)
        assert rep.rho == (1.0, 2.0, 3.0)
        assert rep.gamma == (1.0, 2.0, 3.0)
        assert rep.rho_envelope == rep.rho
        assert rep.gamma_envelope == rep.gamma
        assert rep.counts == (6, 6, 3)

    def test_constant_map_collapses(self):
        entry = MapEntry(cycle(5), np.zeros((1, 2)), (0,) * 5)
        rep = compression_moduli(MapFamily((entry,)))
        assert all(r == 0.0 for r in rep.rho)
        assert all(g == 0.0 for g in rep.gamma)

    def test_cycle_cover_wall_coordinates_are_exact(self):
        # the wall identity makes every class degenerate: rho = gamma
        # = sqrt(t) for all six distances of the 12-cycle
        _, _, entry = wall_entry(cycle(6))
        rep = compression_moduli(MapFamily((entry,)))
        assert rep.distances == tuple(float(t) for t in range(1, 7))
        for t, r, g in zip(rep.distances, rep.rho, rep.gamma):
            assert r == pytest.approx(math.sqrt(t), rel=1e-12)
            assert g == pytest.approx(math.sqrt(t), rel=1e-12)

    def test_k4_cover_wall_coordinates_split_at_diameter(self):
        # the distance-5 class of the K4 cover mixes wall distances 3
        # and 5, so the lower modulus dips and its envelope flattens
        cm, walls, entry = wall_entry(k4())
        rep = compression_moduli(MapFamily((entry,)))
        s2, s3, s5 = math.sqrt(2), math.sqrt(3), math.sqrt(5)
        assert rep.distances == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert rep.rho == pytest.approx((1.0, s2, s3, 2.0, s3), rel=1e-12)
        assert rep.gamma == pytest.approx((1.0, s2, s3, 2.0, s5), rel=1e-12)
        assert rep.rho_envelope == pytest.approx((1.0, s2, s3, s3, s3), rel=1e-12)
        assert rep.gamma_envelope == rep.gamma
        assert rep.counts == (48, 96, 144, 144, 64)
        assert sum(rep.counts) == 32 * 31 // 2

    def test_moduli_match_wall_pseudometric(self):
        # independent recomputation of each class from the pseudometric
        cm, walls, entry = wall_entry(k4())
        rep = compression_moduli(MapFamily((entry,)))
        d_graph = distance_matrix(cm.cover)
        d_wall = wall_pseudometric(cm.cover, walls)
        n = cm.cover.vertex_count
        classes = {}
        for i in range(n):
            for j in range(i + 1, n):
                classes.setdefault(float(d_graph[i, j]), []).append(
                    math.sqrt(d_wall[i, j])
                )
        assert rep.distances == tuple(sorted(classes))
        for t, r, g in zip(rep.distances, rep.rho, rep.gamma):
            assert r == pytest.approx(min(classes[t]), abs=1e-12)
            assert g == pytest.approx(max(classes[t]), abs=1e-12)

    def test_family_pools_classes(self):
        fam = MapFamily((identity_entry(cycle(4)), identity_entry(cycle(6))))
        rep = compression_moduli(fam)
        assert rep.distances == (1.0, 2.0, 3.0)
        # 4 + 6 edges at distance one, 2 + 6 pairs at distance two
        assert rep.counts == (10, 8, 3)

    def test_envelopes_bound_and_stay_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            pts = rng.normal(size=(n, 3))
            entry = MapEntry(cycle(n), pts, tuple(range(n)))
            rep = compression_moduli(MapFamily((entry,)))
            for r, g, re, ge in zip(
                rep.rho, rep.gamma, rep.rho_envelope, rep.gamma_envelope
            ):
                assert r <= g + 1e-12
                assert re <= r + 1e-12
                assert ge >= g - 1e-12
            assert all(
                a <= b + 1e-12
                for a, b in zip(rep.rho_envelope, rep.rho_envelope[1:])
            )
            assert all(
                a <= b + 1e-12
                for a, b in zip(rep.gamma_envelope, rep.gamma_envelope[1:])
            )

    def test_lipschitz_map_upper_modulus(self):
        # a cover projection contracts distances, so gamma(t) <= t
        cm = homology_cover(cycle(5))
        entry = MapEntry(cm.cover, cm.base, tuple(cm.vertex_map))
        rep = compression_moduli(MapFamily((entry,)))
        for t, g in zip(rep.distances, rep.gamma):
            assert g <= t + 1e-12

    def test_csv_shape_and_determinism(self):
        rep = compression_moduli(MapFamily((identity_entry(cycle(6)),)))
        text = rep.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,rho,gamma,count"
        assert len(lines) == 1 + len(rep.distances)
        assert lines[1] == "1,1,1,6"
        assert text == compression_moduli(
            MapFamily((identity_entry(cycle(6)),))
        ).to_csv()


    def test_point_targets_peak_memory(self):
        """C_640 into 15-dimensional points, as the benchmark's largest
        family index: 204,480 pairs, each 15 coordinates.  The resident set
        of a fresh process grows by at most 24 MB while its moduli are
        read."""
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from coarselab.graph_core import build_graph\n"
            "from coarselab.metric_diag import MapEntry, MapFamily, compression_moduli\n"
            "def family(n):\n"
            "    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])\n"
            "    pts = np.random.default_rng(0).standard_normal((n, 15))\n"
            "    return MapFamily((MapEntry(g, pts, tuple(range(n))),))\n"
            "compression_moduli(family(8))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "compression_moduli(family(640))\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 24

    def test_family_peak_memory_is_one_entry(self):
        """Six entries mapping C_640 onto itself: 1,226,880 pairs in all,
        204,480 per entry.  Each entry is reduced to its distance classes
        before the next is read, so the resident set of a fresh process
        grows by at most 32 MB (holding every pair at once took 95 MB)."""
        script = (
            "import resource\n"
            "from coarselab.graph_core import build_graph\n"
            "from coarselab.metric_diag import MapEntry, MapFamily, compression_moduli\n"
            "def family(n, k):\n"
            "    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])\n"
            "    return MapFamily(tuple(MapEntry(g, g, tuple(range(n))) for _ in range(k)))\n"
            "compression_moduli(family(8, 2))\n"
            "fam = family(640, 6)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "assert compression_moduli(fam).counts == (3840,) * 319 + (1920,)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 32

# -- weak embeddings ------------------------------------------------------------


class TestWeakEmbedding:
    def test_cover_projections_pass(self):
        """Projections of growing double covers are 1-Lipschitz with
        fiber fractions 1/3 > 1/4 > 1/5."""
        entries = []
        for n in (3, 4, 5):
            cm = homology_cover(cycle(n))
            entries.append(MapEntry(cm.cover, cm.base, tuple(cm.vertex_map)))
        rep = is_weak_embedding(MapFamily(tuple(entries)), 1.0)
        assert rep.lipschitz_constants == (1.0, 1.0, 1.0)
        assert rep.fiber_fractions == pytest.approx((1 / 3, 1 / 4, 1 / 5))
        assert rep.lipschitz_ok
        assert rep.fractions_decreasing
        assert rep.passed

    def test_constant_maps_fail(self):
        point = np.zeros((1, 2))
        entries = tuple(
            MapEntry(cycle(n), point, (0,) * n) for n in (3, 4, 5)
        )
        rep = is_weak_embedding(MapFamily(entries), 1.0)
        assert rep.lipschitz_ok
        assert rep.fiber_fractions == (1.0, 1.0, 1.0)
        assert not rep.fractions_decreasing
        assert not rep.passed

    def test_lipschitz_bound_enforced(self):
        entries = tuple(identity_entry(cycle(n)) for n in (4, 6))
        rep = is_weak_embedding(MapFamily(entries), 0.5)
        assert not rep.lipschitz_ok
        assert not rep.passed
        assert is_weak_embedding(MapFamily(entries), 1.0).passed

    def test_single_index_rejected(self):
        fam = MapFamily((identity_entry(cycle(4)),))
        with pytest.raises(InvalidInputError, match="at least two indices"):
            is_weak_embedding(fam, 1.0)

    def test_duplicate_coordinates_are_one_fiber(self):
        # two target rows holding the same point count as one image
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        entry = MapEntry(cycle(3), pts, (0, 1, 2))
        rep = is_weak_embedding(
            MapFamily((entry, identity_entry(cycle(4)))), 2.0
        )
        assert rep.fiber_fractions[0] == pytest.approx(2 / 3)


# -- distortion ------------------------------------------------------------------
# The pair-loop oracle's distortion of the wall embeddings, and of the
# moduli extremes that compression_moduli reports.


class TestDistortion:
    def test_isometry(self):
        assert naive_distortion(identity_entry(cycle(7))) == pytest.approx(1.0)

    def test_square_cycle_into_unit_square(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        entry = MapEntry(cycle(4), corners, (0, 1, 2, 3))
        assert naive_distortion(entry) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_cycle_cover_wall_embedding(self):
        _, _, entry = wall_entry(cycle(6))
        assert naive_distortion(entry) == pytest.approx(math.sqrt(6), rel=1e-12)

    def test_k4_cover_wall_embedding(self):
        _, _, entry = wall_entry(k4())
        assert naive_distortion(entry) == pytest.approx(5 / math.sqrt(3), rel=1e-12)

    def test_matches_moduli_extremes(self):
        _, _, entry = wall_entry(cycle(6))
        rep = compression_moduli(MapFamily((entry,)))
        expansion = max(g / t for t, g in zip(rep.distances, rep.gamma))
        contraction = max(t / r for t, r in zip(rep.distances, rep.rho))
        assert naive_distortion(entry) == pytest.approx(expansion * contraction, rel=1e-12)

    def test_non_injective_rejected(self):
        entry = MapEntry(cycle(3), cycle(3), (0, 0, 1))
        with pytest.raises(InvalidInputError, match="injective"):
            naive_distortion(entry)

    def test_zero_source_distance_rejected(self):
        src = np.zeros((2, 2))
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidInputError, match="not a metric"):
            naive_distortion(MapEntry(src, pts, (0, 1)))

    def test_signed_zero_targets_rejected(self):
        # 0.0 and -0.0 are distinct rows but the same point
        src = np.array([[0.0, 1.0], [1.0, 0.0]])
        pts = np.array([[0.0], [-0.0]])
        with pytest.raises(InvalidInputError, match="zero target distance"):
            naive_distortion(MapEntry(src, pts, (0, 1)))


# -- ball concentration -----------------------------------------------------------


class TestBallConcentration:
    def test_coincident_points(self):
        assert ball_concentration(np.zeros((9, 3)), 0.0) == 9

    def test_hexagon(self):
        pts = hexagon()
        assert ball_concentration(pts, 0.1) == 1
        assert ball_concentration(pts, 1.0) == 3
        assert ball_concentration(pts, 2.0) == 6

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 2))
        counts = [ball_concentration(pts, r) for r in np.linspace(0, 4, 17)]
        assert counts == sorted(counts)
        assert counts[0] >= 1
        assert counts[-1] == 40

    def test_validation(self):
        with pytest.raises(InvalidInputError, match=r"\(n, d\) array"):
            ball_concentration(np.zeros(4), 1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            ball_concentration(np.array([[np.nan, 0.0]]), 1.0)
        with pytest.raises(InvalidInputError, match="nonnegative"):
            ball_concentration(np.zeros((2, 2)), -1.0)

    @pytest.mark.parametrize("top", [1e308, 1e200], ids=["difference", "square"])
    def test_overflowing_distances_are_invalid_input(self, top):
        # every coordinate is finite, but the difference of the two points
        # or its square is not; a warning raised as an error would escape
        # as RuntimeWarning instead
        pts = np.array([[top], [-top]])
        family = MapFamily((MapEntry(np.array([[0.0, 1.0], [1.0, 0.0]]), pts, (0, 1)),) * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^point distances overflow float64$"):
                ball_concentration(pts, 1.0)
            with pytest.raises(InvalidInputError, match="^point distances overflow float64$"):
                compression_moduli(family)
            with pytest.raises(InvalidInputError, match="^point distances overflow float64$"):
                is_weak_embedding(family, 1.0)


# -- agreement with the per-pair loops ---------------------------------------------

# halves make some distances land exactly on a radius, a third makes
# sums that round, and -0.0 sits next to 0.0
COORDINATES = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1 / 3)

# each distance d below also appears as d - 1e-12, whose ball reaches
# exactly d through the 1e-12 tolerance
BALL_RADII = [r for d in (0.5, 1.0, math.sqrt(2.0), 1.5) for r in (d, d - 1e-12)] + [0.0]


def random_points(rng, m, d):
    pts = np.array([[rng.choice(COORDINATES) for _ in range(d)] for _ in range(m)])
    for _ in range(rng.randrange(3)):
        pts[rng.randrange(m)] = pts[rng.randrange(m)]
    return pts


def random_source(rng, n):
    """A connected graph, or a pseudometric matrix from a line whose
    zero distances are partly written as -0.0."""
    if rng.randrange(2):
        return random_connected_graph(rng, n, rng.randrange(3))
    line = np.array([rng.randrange(4) * 0.5 for _ in range(n)])
    mat = np.abs(line[:, None] - line[None, :])
    for x in range(n):
        for y in range(x + 1, n):
            if mat[x, y] == 0 and rng.randrange(2):
                mat[x, y] = mat[y, x] = -0.0
    return mat


def random_entry(rng):
    n = rng.choice((1, 2, 3, 5, 8))
    m = rng.randrange(1, 10)
    if rng.randrange(2):
        target = random_connected_graph(rng, m, rng.randrange(3))
    else:
        target = random_points(rng, m, rng.randrange(1, 4))
    if m >= n and rng.randrange(2):
        mapping = rng.sample(range(m), n)
    else:
        mapping = [rng.randrange(m) for _ in range(n)]
    return MapEntry(random_source(rng, n), target, tuple(mapping))


def outcome(fn, *args):
    """The value of a call, or the class and message of its error."""
    try:
        return fn(*args)
    except InvalidInputError as e:
        return type(e), str(e)


class TestXorDeckPairs:
    """A graph whose darts pass ``xor_deck`` is walked from its fiber
    heads only, and its pairs are read through the deck action."""

    def cover_family(self):
        entries = []
        for base in (k4(), cycle(5), prism(3), multi_k4()):
            cm, _, embedded = wall_entry(base)
            entries += [MapEntry(cm.cover, base, cm.vertex_map), embedded, identity_entry(cm.cover)]
        rng = random.Random(31)
        for _ in range(3):
            cm = homology_cover(random_connected_graph(rng, rng.randint(3, 6), 3))
            entries.append(MapEntry(cm.cover, cm.base, cm.vertex_map))
        theta = iterate_homology_cover(build_graph(2, [(0, 1), (0, 1), (0, 1)]), 2)
        entries.append(MapEntry(theta.cover, theta.base, theta.vertex_map))
        return MapFamily(tuple(entries))

    def test_cover_pairs_equal_the_loops_and_walk_only_the_heads(self, monkeypatch):
        mf = self.cover_family()
        walked = []

        def recorded(g, sources=None):
            walked.append((g.vertex_count, None if sources is None else list(sources)))
            return distance_matrix(g, sources)

        monkeypatch.setattr(metric_diag, "distance_matrix", recorded)
        assert compression_moduli(mf) == naive_compression_moduli(mf)
        assert is_weak_embedding(mf, 1.0) == naive_is_weak_embedding(mf, 1.0)
        graphs = [g for e in mf.entries for g in (e.source, e.target) if not isinstance(g, np.ndarray)]
        heads = {}
        for g in graphs:
            lift = xor_deck(g)
            heads[g.vertex_count] = None if lift is None else lift.fiber_heads().tolist()
        assert sum(h is not None for h in heads.values()) >= 6
        assert walked and all(sources == heads[n] for n, sources in walked)

    @pytest.mark.parametrize("role", ["source", "target"])
    def test_a_disconnected_lift_is_rejected(self, role):
        # two copies of a triangle: the XOR lift of rank 1 with no flip
        g = build_graph(6, [(2 * u + x, 2 * v + x) for u, v in ((0, 1), (1, 2), (2, 0)) for x in (0, 1)])
        assert xor_deck(g).deck_rank == 1
        spaces = (g, cycle(6)) if role == "source" else (cycle(6), g)
        entry = MapEntry(*spaces, tuple(range(6)))
        with pytest.raises(DisconnectedGraphError, match=role):
            compression_moduli(MapFamily((entry,)))


class TestAgreementWithPairLoops:
    def test_diagnostics_equal_the_loops_on_random_families(self):
        rng = random.Random(8)
        for _ in range(300):
            mf = MapFamily(tuple(random_entry(rng) for _ in range(rng.randrange(1, 4))))
            moduli = outcome(compression_moduli, mf)
            assert moduli == outcome(naive_compression_moduli, mf)
            if isinstance(moduli, ModuliReport):
                # the zero class keeps the sign its first pair had
                assert moduli.to_csv() == naive_compression_moduli(mf).to_csv()
            bound = rng.choice((0.0, 0.5, 1.0, 2.0))
            assert outcome(is_weak_embedding, mf, bound) == outcome(
                naive_is_weak_embedding, mf, bound
            )
            pts = random_points(rng, rng.randrange(1, 12), rng.randrange(1, 4))
            for radius in BALL_RADII:
                assert ball_concentration(pts, radius) == naive_ball_concentration(pts, radius)

    def test_distortion_reports_the_first_bad_pair(self):
        # pair (0, 1) has target distance -0.0 - 0.0, pair (1, 2) source
        # distance 0; the first of them names the error
        source = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        entry = MapEntry(source, np.array([[0.0], [-0.0], [1.0]]), (0, 1, 2))
        assert "zero target distance" in outcome(naive_distortion, entry)[1]


# -- coset concentration replay ------------------------------------------------


def lamp_group(n):
    return WreathGroup(Q=cyclic_group(n), B=cyclic_group(n), proj=tuple(range(n)))


def lipschitz_function(W, rng, dim):
    """A random map scaled so every generator moves points at most 1."""
    table = resolve_group(W)
    raw = rng.normal(size=(table.order, dim))
    worst = max(
        float(np.linalg.norm(raw[table.mul_table[x, s]] - raw[x]))
        for x in range(table.order)
        for s in table.generators
    )
    return GroupFunction(W, raw / worst)


class TestCosetBallReplay:
    """The averaging step of the paper, replayed by the pair-loop oracle."""

    def test_averaging_radius_captures_half(self):
        """At radius sqrt(2 C |Sigma|) some coset keeps at least half
        its points together, for every sampled 1-Lipschitz map."""
        W = lamp_group(3)
        table = resolve_group(W)
        members = _form_members(W)[1]
        radius = math.sqrt(2 * DESK_CONSTANT_Z3 * 3)
        rng = np.random.default_rng(20250814)
        for _ in range(25):
            f = lipschitz_function(W, rng, 3)
            _, captured = naive_coset_ball_replay(table, members, f.values, radius)
            assert len(members) == 3
            assert 2 * captured >= len(members)

    def test_constant_map_captures_everything(self):
        W = lamp_group(2)
        members = _form_members(W)[1]
        assert naive_coset_ball_replay(resolve_group(W), members, np.zeros((8, 2)), 0.0) == (0, 2)

    def test_table_group_with_explicit_subset(self):
        G = cyclic_group(6)
        angles = 2 * math.pi * np.arange(6) / 6
        vals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # the off-center corners sit at distance sqrt(3) > 1, so only the
        # center is captured
        assert naive_coset_ball_replay(G, [0, 2, 4], vals, 1.0) == (0, 1)
