"""Tests for the command-line frontend: flags, exit codes, artifacts."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coarselab.cli as cli
import coarselab.expander_zoo as expander_zoo
import coarselab.labelings as labelings
from coarselab.covers_walls import homology_cover, wall_pseudometric, walls_from_cover
from coarselab.errors import CapExceededError, InvalidInputError, VerificationError
from coarselab.expander_zoo import cayley_graph, lps_graph
from coarselab import graph_core
from coarselab.graph_core import build_graph, distance_matrix
from coarselab.jsonio import (
    parse_graph,
    serialize_graph,
    serialize_map_family,
    serialize_points,
)
from coarselab.metric_diag import MapEntry, MapFamily

from groups import cyclic_group, serialize_group_table
from oracles import (
    bfs_distances,
    complete,
    degrees,
    dense_eigvalsh,
    multi_k4,
    naive_girth,
    naive_xor_rank,
    prism,
    wallmetric_csv,
)

DESK_CONSTANT_Z3 = 1.5205176042696106

SRC = Path(__file__).resolve().parents[1] / "src"


# the 6-prism cover has 1,536 vertices, so u and v reach four digits; the
# one-vertex base has a one-vertex cover and no pairs
WALLMETRIC_BASES = {
    "prism6": prism(6),
    "multi_k4": multi_k4(),
    "theta": build_graph(2, [(0, 1, "a"), (0, 1, "b"), (0, 1, "c")]),
    "one_vertex": build_graph(1, []),
}


def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(serialize_graph(cayley_graph(cyclic_group(6))))
    return str(path)


def k4_file(tmp_path):
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.json"
    path.write_text(serialize_graph(g))
    return str(path)


def family_file(tmp_path):
    """The homology covers of C3, C4 and C5 mapped onto their bases."""
    entries = []
    for n in (3, 4, 5):
        cm = homology_cover(cayley_graph(cyclic_group(n)))
        entries.append(MapEntry(cm.cover, cm.base, tuple(cm.vertex_map)))
    path = tmp_path / "family.json"
    path.write_text(serialize_map_family(MapFamily(tuple(entries))))
    return str(path)


def z3_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(serialize_group_table(cyclic_group(3)))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestGraphCommands:
    def test_lps_small_instance(self, capsys, tmp_path):
        out_path = tmp_path / "lps.json"
        # (13|5) = -1, so this is the 120-vertex 14-regular instance
        code, out = run(capsys, ["lps", "--p", "13", "--q", "5", "--out", str(out_path)])
        assert code == 0
        assert "vertices: 120" in out
        assert "regular degree: 14" in out
        assert "verification: passed" in out
        assert "not certified" not in out
        g = parse_graph(out_path.read_text())
        assert g.vertex_count == 120

    def test_lps_says_when_the_window_is_not_certified(self, capsys, monkeypatch):
        # with the dense cap at 100 vertices the 120-vertex LPS(13, 5)
        # takes the Lanczos route
        lanczos = functools.partial(expander_zoo.adjacency_spectrum, dense_cap=100)
        monkeypatch.setattr(expander_zoo, "adjacency_spectrum", lanczos)
        code, out = run(capsys, ["lps", "--p", "13", "--q", "5"])
        assert code == 0
        assert "not certified" in out
        assert "verification: passed" in out

    def test_girth_and_diameter(self, capsys, tmp_path):
        out_path = tmp_path / "girth.json"
        code, out = run(capsys, ["girth", c6_file(tmp_path), "--out", str(out_path)])
        assert code == 0
        assert "girth: 6" in out and "diameter: 3" in out
        doc = json.loads(out_path.read_text())
        assert doc["girth"] == 6 and doc["diameter"] == 3

    def test_girth_of_forest_is_null(self, capsys, tmp_path):
        path = tmp_path / "path.json"
        path.write_text(serialize_graph(build_graph(3, [(0, 1), (1, 2)])))
        out_path = tmp_path / "girth.json"
        code, out = run(capsys, ["girth", str(path), "--out", str(out_path)])
        assert code == 0
        assert "infinite" in out
        assert json.loads(out_path.read_text())["girth"] is None

    def test_spectrum_reports_ramanujan_margin(self, capsys, tmp_path):
        out_path = tmp_path / "spec.json"
        code, out = run(capsys, ["spectrum", c6_file(tmp_path), "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["vertices"] == 6 and doc["regular_degree"] == 2
        # C6 spectrum: 2, 1, 1, -1, -1, -2; off +-2 the largest is 1
        assert doc["max_interior_abs"] == pytest.approx(1.0, abs=1e-9)
        assert doc["ramanujan_bound"] == pytest.approx(2.0)
        assert sorted(doc["eigenvalues"]) == pytest.approx([-2, -1, -1, 1, 1, 2])

    def test_cheeger(self, capsys, tmp_path):
        out_path = tmp_path / "cheeger.json"
        code, out = run(capsys, ["cheeger", c6_file(tmp_path), "--out", str(out_path)])
        assert code == 0
        assert "2/3" in out
        doc = json.loads(out_path.read_text())
        assert doc["numerator"] == 2 and doc["denominator"] == 3
        assert len(doc["witness"]) == 3

    def test_cover_walls_wallmetric(self, capsys, tmp_path):
        k4 = k4_file(tmp_path)
        cover_path = tmp_path / "cover.json"
        code, out = run(capsys, ["cover", k4, "--out", str(cover_path)])
        assert code == 0
        assert "cover: 32 vertices, 48 edges" in out and "deck rank: 3" in out
        cover = parse_graph(cover_path.read_text())
        assert cover.vertex_count == 32
        assert cover.annotations["covering"]["deck_rank"] == 3

        walls_path = tmp_path / "walls.json"
        code, out = run(capsys, ["walls", k4, "--out", str(walls_path)])
        assert code == 0
        doc = json.loads(walls_path.read_text())
        assert doc["wall_count"] == 6 and doc["wall_sizes"] == [8] * 6

        csv_path = tmp_path / "wm.csv"
        code, out = run(capsys, ["wallmetric", k4, "--out", str(csv_path)])
        assert code == 0
        rows = csv_path.read_text().strip().split("\n")
        assert rows[0] == "u,v,wall_distance,graph_distance"
        assert len(rows) == 1 + 32 * 31 // 2
        for row in rows[1:]:
            _, _, dw, dg = row.split(",")
            assert float(dw) <= float(dg) + 1e-9

    def record_girth_sources(self, monkeypatch) -> list:
        sources = []
        for name in ("girth", "diameter"):
            def wrapped(g, src=None, _inner=getattr(cli, name)):
                sources.append(None if src is None else list(src))
                return _inner(g, src)

            monkeypatch.setattr(cli, name, wrapped)
        return sources

    def test_spectrum_and_girth_of_a_cover_read_its_xor_action(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "base.json").write_text(serialize_graph(multi_k4()))
        code, _ = run(capsys, ["cover", str(tmp_path / "base.json"), "--out", str(tmp_path / "cover.json")])
        assert code == 0
        cover = parse_graph((tmp_path / "cover.json").read_text())
        code, _ = run(capsys, ["spectrum", str(tmp_path / "cover.json"), "--out", str(tmp_path / "spec.json")])
        assert code == 0
        doc = json.loads((tmp_path / "spec.json").read_text())
        assert doc["complete"] and len(doc["eigenvalues"]) == cover.vertex_count == 128
        assert np.abs(np.array(doc["eigenvalues"]) - dense_eigvalsh(cover)).max() <= 1e-12

        sources = self.record_girth_sources(monkeypatch)
        code, _ = run(capsys, ["girth", str(tmp_path / "cover.json"), "--out", str(tmp_path / "girth.json")])
        assert code == 0
        heads = [0, 32, 64, 96]
        assert sources == [heads, heads]
        doc = json.loads((tmp_path / "girth.json").read_text())
        assert (doc["girth"], doc["diameter"]) == (naive_girth(cover), max(
            max(bfs_distances(cover, s)) for s in range(cover.vertex_count)))

        # one edited edge: the lift check fails and every vertex is a source
        edited = json.loads((tmp_path / "cover.json").read_text())
        edited["edges"][3]["v"] ^= 1
        (tmp_path / "edited.json").write_text(json.dumps(edited))
        sources.clear()
        code, _ = run(capsys, ["girth", str(tmp_path / "edited.json"), "--out", "-"])
        assert code == 0 and sources == [None, None]

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_covers_take_the_twist_route_with_any_annotation(self, capsys, tmp_path, monkeypatch, iterations):
        (tmp_path / "theta.json").write_text(serialize_graph(build_graph(2, [(0, 1), (0, 1), (0, 1)])))
        code, _ = run(capsys, ["cover", str(tmp_path / "theta.json"), "--iterations", str(iterations),
                               "--out", str(tmp_path / "cover.json")])
        assert code == 0
        doc = json.loads((tmp_path / "cover.json").read_text())
        assert doc["annotations"]["covering"]["single_step"] is (iterations == 1)
        cover = parse_graph(json.dumps(doc))
        lift = graph_core.xor_deck(cover)
        heads = lift.fiber_heads().tolist()
        assert lift.deck_rank == naive_xor_rank(cover) and len(heads) < cover.vertex_count
        del doc["annotations"]
        (tmp_path / "plain.json").write_text(json.dumps(doc))
        doc["annotations"] = {"covering": {"deck_rank": 64, "single_step": "no"}}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        sources = self.record_girth_sources(monkeypatch)
        outputs = []
        for name in ("cover.json", "plain.json", "bad.json"):
            sources.clear()
            code, spectrum = run(capsys, ["spectrum", str(tmp_path / name), "--out", "-"])
            assert code == 0
            code, girth_doc = run(capsys, ["girth", str(tmp_path / name), "--out", "-"])
            assert code == 0 and sources == [heads, heads]
            outputs.append((spectrum, girth_doc))
        assert outputs[0] == outputs[1] == outputs[2]
        spec = json.loads(outputs[0][0])
        assert spec["complete"] and len(spec["eigenvalues"]) == cover.vertex_count
        assert np.abs(np.array(spec["eigenvalues"]) - dense_eigvalsh(cover)).max() <= 1e-12
        girth_doc = json.loads(outputs[0][1])
        assert (girth_doc["girth"], girth_doc["diameter"]) == (naive_girth(cover), max(
            max(bfs_distances(cover, s)) for s in range(cover.vertex_count)))

    @pytest.mark.parametrize("name", list(WALLMETRIC_BASES))
    def test_wallmetric_bytes_equal_the_per_pair_writer(self, capsys, tmp_path, name):
        base = WALLMETRIC_BASES[name]
        (tmp_path / "base.json").write_text(serialize_graph(base))
        code, _ = run(capsys, ["wallmetric", str(tmp_path / "base.json"), "--out", str(tmp_path / "wm.csv")])
        assert code == 0
        cm = homology_cover(base)
        want = wallmetric_csv(wall_pseudometric(cm.cover, walls_from_cover(cm)), distance_matrix(cm.cover))
        assert (tmp_path / "wm.csv").read_bytes() == want.encode("ascii")

    def test_wallmetric_peak_memory_is_a_few_artifacts(self, tmp_path):
        (tmp_path / "prism6.json").write_text(serialize_graph(prism(6)))
        args = cli.build_parser().parse_args(["wallmetric", str(tmp_path / "prism6.json")])
        tracemalloc.start()
        try:
            _, artifact = cli._cmd_wallmetric(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(artifact) == 15_967_863
        assert peak <= 4 * len(artifact)

    def test_stdin_pipe(self, tmp_path):
        text = serialize_graph(cayley_graph(cyclic_group(6)))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "girth"],
            input=text,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "girth: 6" in proc.stdout

    def test_out_dash_emits_only_the_artifact(self, capsys, tmp_path):
        code, out = run(capsys, ["girth", c6_file(tmp_path), "--out", "-"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"] == "girth" and doc["girth"] == 6


LABEL_TWO_C8 = ["--random", "--alphabet", "3", "--lambda", "1/4", "--seed", "7"]


@pytest.fixture(scope="class")
def two_c8(tmp_path_factory):
    """The 2xC8 input and one seed-7 labeling of it, shared by the class:
    the search runs 162,903 attempts, about 5 s on one CPU."""
    work = tmp_path_factory.mktemp("label")
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
    path = work / "two_c8.json"
    path.write_text(serialize_graph(build_graph(16, edges)))
    labeled = work / "labeled.json"
    code = cli.main(["label", str(path), *LABEL_TWO_C8, "--out", str(labeled)])
    return path, code, labeled


class TestLabelingCommands:
    def test_label_succeeds_and_is_deterministic(self, capsys, tmp_path, two_c8):
        path, code, first = two_c8
        assert code == 0
        again = tmp_path / "again.json"
        code, out = run(capsys, ["label", str(path), *LABEL_TWO_C8, "--out", str(again)])
        assert code == 0 and "success" in out
        assert again.read_text() == first.read_text()

    def test_label_seed_is_mandatory(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["label", c6_file(tmp_path), "--random", "--alphabet", "3", "--lambda", "1/4"])
        assert exc.value.code == 2

    def test_label_bad_lambda(self, capsys, tmp_path):
        code = cli.main(
            ["label", c6_file(tmp_path), "--random", "--alphabet", "3",
             "--lambda", "fast", "--seed", "1"]
        )
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--seed", "1", "--max-attempts", "0"],
                  ["--seed", "1", "--max-attempts", "-5"]]
    )
    def test_label_rejects_negative_seed_and_empty_budget(self, capsys, tmp_path, flags):
        code = cli.main(
            ["label", c6_file(tmp_path), "--random", "--alphabet", "3", "--lambda", "1/4", *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("size", ["0", "27"])
    def test_label_rejects_an_alphabet_outside_the_letters(self, capsys, tmp_path, monkeypatch, size):
        path = c6_file(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the alphabet check")

        # refused before any girth is computed or any label drawn
        monkeypatch.setattr(labelings, "girth", refuse)
        monkeypatch.setattr(labelings.np.random, "default_rng", refuse)
        code = cli.main(
            ["label", path, "--random", "--alphabet", size, "--lambda", "1/4", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "letter alphabets support 1..26 symbols" in captured.err

    def test_scipy_stays_unloaded(self, tmp_path, two_c8):
        # importing the CLI, and every command below, must not load scipy;
        # `spectrum` off the twist and character-block routes still does
        _, _, labeled = two_c8
        (tmp_path / "z3.json").write_text(serialize_group_table(cyclic_group(3)))
        (tmp_path / "points.json").write_text(serialize_points(np.eye(3)))
        (tmp_path / "lps.json").write_text(serialize_graph(lps_graph(13, 5)[0]))
        commands = [
            ["label", c6_file(tmp_path), *LABEL_TWO_C8, "--max-attempts", "2000", "--out", "-"],
            ["pieces", str(labeled), "--out", "-"],
            ["present", str(labeled), "--out", "-"],
            ["cover", k4_file(tmp_path), "--out", "-"],
            ["cover", k4_file(tmp_path), "--out", "k4cover.json"],
            ["spectrum", "k4cover.json", "--out", "-"],
            ["girth", "k4cover.json", "--out", "-"],
            ["walls", k4_file(tmp_path), "--out", "-"],
            ["wallmetric", k4_file(tmp_path), "--out", "-"],
            ["girth", k4_file(tmp_path), "--out", "-"],
            ["moduli", family_file(tmp_path), "--out", "-"],
            ["weakembed", family_file(tmp_path), "--lipschitz", "1.0", "--out", "-"],
            ["lps", "--p", "13", "--q", "5", "--out", "-"],
            ["concentrate", "points.json", "--radius", "1.0", "--out", "-"],
            ["wreath", "--q-table", "z3.json", "--b-table", "z3.json", "--proj", "0,1,2",
             "--out", "-"],
            ["spectrum", "lps.json", "--out", "-"],
            ["poincare", "--relative", "--q-table", "z3.json", "--b-table", "z3.json",
             "--proj", "0,1,2", "--out", "-"],
            ["poincare", "--relative", "--q-table", "z3.json", "--b-table", "z3.json",
             "--proj", "0,1,2", "--trials", "4", "--seed", "1", "--out", "-"],
        ]
        script = (
            "import json, sys\n"
            "import coarselab.cli as cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "report = [scipy_modules()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    report.append(scipy_modules())\n"
            "print(json.dumps(report), file=sys.stderr)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stderr.strip().splitlines()[-1])
        assert report == [[]] * (len(commands) + 1)

    def test_pieces_and_present_consume_label_output(self, capsys, tmp_path, two_c8):
        _, code, artifact = two_c8
        assert code == 0
        pieces_path = tmp_path / "pieces.json"
        code, out = run(capsys, ["pieces", str(artifact), "--out", str(pieces_path)])
        assert code == 0
        doc = json.loads(pieces_path.read_text())
        assert all(p["length"] is None or p["length"] >= 1 for p in doc["pieces"])

        pres_path = tmp_path / "pres.json"
        code, out = run(capsys, ["present", str(artifact), "--out", str(pres_path)])
        assert code == 0
        doc = json.loads(pres_path.read_text())
        # one relator per independent cycle of each 8-cycle component
        assert len(doc["relators"]) == 2
        assert all(len(w) == 8 for w in doc["relators"])


class TestGroupCommands:
    def test_wreath_graph(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        out_path = tmp_path / "w33.json"
        code, out = run(
            capsys,
            ["wreath", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2",
             "--out", str(out_path)],
        )
        assert code == 0
        assert "order: 24" in out
        g = parse_graph(out_path.read_text())
        assert g.vertex_count == 24
        assert degrees(g) == [3] * 24

    def test_wreath_ball_radius(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        code, out = run(
            capsys,
            ["wreath", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2",
             "--radius", "1", "--out", "-"],
        )
        assert code == 0
        assert parse_graph(out).vertex_count == 4

    def test_poincare_constant_and_verification(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        out_path = tmp_path / "poincare.json"
        code, out = run(
            capsys,
            ["poincare", "--relative", "--q-table", z3, "--b-table", z3,
             "--proj", "0,1,2", "--trials", "40", "--seed", "3",
             "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["constant"] == pytest.approx(DESK_CONSTANT_Z3, abs=1e-9)
        assert len(doc["witness"]) == 24
        assert doc["verification"]["ok"] is True
        assert doc["verification"]["violations"] == 0

    def test_poincare_requires_relative_flag(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        code = cli.main(
            ["poincare", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2"]
        )
        capsys.readouterr()
        assert code == 2

    def test_poincare_trials_require_seed(self, tmp_path):
        z3 = z3_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["poincare", "--relative", "--q-table", z3, "--b-table", z3,
                 "--proj", "0,1,2", "--trials", "5"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags", [["--trials", "-3", "--seed", "1"], ["--trials", "2", "--seed", "-4"]]
    )
    def test_poincare_rejects_negative_trials_and_seed(self, capsys, tmp_path, flags):
        z3 = z3_file(tmp_path)
        out_path = tmp_path / "poincare.json"
        code = cli.main(
            ["poincare", "--relative", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2",
             *flags, "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags", [["--trials", "-3", "--seed", "1"], ["--trials", "2", "--seed", "-4"]]
    )
    def test_poincare_checks_trials_and_seed_before_the_solve(
        self, capsys, tmp_path, monkeypatch, flags
    ):
        import coarselab.poincare_lab as poincare_lab

        def solve(*args, **kwargs):
            raise AssertionError("the constant was solved before the flags were checked")

        monkeypatch.setattr(poincare_lab, "relative_poincare_constant", solve)
        z3 = z3_file(tmp_path)
        code = cli.main(
            ["poincare", "--relative", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2",
             *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    def test_poincare_replay_solves_once(self, capsys, tmp_path, monkeypatch):
        import coarselab.poincare_lab as poincare_lab

        calls = []
        solve = poincare_lab.relative_poincare_constant

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(poincare_lab, "relative_poincare_constant", counted)
        z3 = z3_file(tmp_path)
        code, _ = run(
            capsys,
            ["poincare", "--relative", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2",
             "--trials", "6", "--seed", "5", "--out", str(tmp_path / "p.json")],
        )
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("k, constant", [(10, 4.938458210977815), (12, 6.516021774228905)])
    def test_poincare_above_the_table_cap(self, capsys, tmp_path, k, constant):
        zk = tmp_path / f"z{k}.json"
        zk.write_text(serialize_group_table(cyclic_group(k)))
        out_path = tmp_path / "poincare.json"
        code, out = run(
            capsys,
            ["poincare", "--relative", "--q-table", str(zk), "--b-table", str(zk),
             "--proj", ",".join(map(str, range(k))), "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["group_order"] == k << k
        assert doc["constant"] == pytest.approx(constant, abs=1e-9)
        assert len(doc["witness"]) == k << k

    def test_poincare_exits_3_above_the_block_cap(self, capsys, tmp_path, monkeypatch):
        import coarselab.poincare_lab as poincare_lab

        def refuse(*args):
            raise AssertionError("blocks were built above the cap")

        monkeypatch.setattr(poincare_lab, "_character_blocks", refuse)
        z14 = tmp_path / "z14.json"
        z14.write_text(serialize_group_table(cyclic_group(14)))
        out_path = tmp_path / "poincare.json"
        code = cli.main(
            ["poincare", "--relative", "--q-table", str(z14), "--b-table", str(z14),
             "--proj", ",".join(map(str, range(14))), "--out", str(out_path)]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "block cap" in captured.err and captured.out == ""
        assert not out_path.exists()

    def test_wreath_rejects_negative_radius(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        code = cli.main(
            ["wreath", "--q-table", z3, "--b-table", z3, "--proj", "0,1,2", "--radius", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    def test_bad_proj_list(self, capsys, tmp_path):
        z3 = z3_file(tmp_path)
        code = cli.main(
            ["wreath", "--q-table", z3, "--b-table", z3, "--proj", "0,x,2"]
        )
        capsys.readouterr()
        assert code == 2


class TestDiagnosticsCommands:
    def test_weakembed(self, capsys, tmp_path):
        out_path = tmp_path / "weak.json"
        code, out = run(
            capsys,
            ["weakembed", family_file(tmp_path), "--lipschitz", "1.0",
             "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert doc["fiber_fractions"] == pytest.approx([1 / 3, 1 / 4, 1 / 5])

    def test_weakembed_failure_is_still_exit_zero(self, capsys, tmp_path):
        # a negative diagnostic is a successful diagnosis, not an error
        code, out = run(
            capsys,
            ["weakembed", family_file(tmp_path), "--lipschitz", "0.1",
             "--out", "-"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is False

    def test_moduli_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "moduli.csv"
        code, out = run(
            capsys, ["moduli", family_file(tmp_path), "--out", str(csv_path)]
        )
        assert code == 0
        rows = csv_path.read_text().strip().split("\n")
        assert rows[0] == "t,rho,gamma,count"
        assert rows[1] == "1,1,1,24"

    def test_concentrate(self, capsys, tmp_path):
        pts = np.array(
            [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]
        )
        path = tmp_path / "points.json"
        path.write_text(serialize_points(pts))
        out_path = tmp_path / "conc.json"
        code, out = run(
            capsys, ["concentrate", str(path), "--radius", "1.0", "--out", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["count"] == 3

    @pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
    def test_weakembed_rejects_a_bound_that_is_not_finite_and_nonnegative(
        self, capsys, tmp_path, bound
    ):
        code = cli.main(["weakembed", family_file(tmp_path), "--lipschitz", bound])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("radius", ["inf", "-inf", "nan"])
    def test_concentrate_rejects_a_radius_that_is_not_finite(self, capsys, tmp_path, radius):
        path = tmp_path / "points.json"
        path.write_text(serialize_points(np.eye(3)))
        code = cli.main(["concentrate", str(path), f"--radius={radius}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error:")


class TestExitCodes:
    def test_invalid_input_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["girth", str(bad)])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_is_2(self, capsys):
        code = cli.main(["girth", "/nonexistent/g.json"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["lps", "--p", "13", "--q", "5"], ["wallmetric", "K4"]], ids=["json", "csv"]
    )
    def test_an_unwritable_out_path_is_2(self, capsys, tmp_path, argv):
        argv = [k4_file(tmp_path) if a == "K4" else a for a in argv]
        out_path = tmp_path / "missing" / "artifact"
        code = cli.main([*argv, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()

    def test_an_empty_out_path_is_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["lps", "--p", "13", "--q", "5", "--out", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --out needs a path, or - for standard output\n"
        assert list(tmp_path.iterdir()) == []

    def test_cap_exceeded_is_3(self, capsys, tmp_path):
        code = cli.main(["cheeger", c6_file(tmp_path), "--cap", "4"])
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize("command", ["cover", "walls", "wallmetric"])
    def test_every_homology_cover_is_capped_before_it_is_built(self, capsys, tmp_path, command):
        # K10 has cycle rank 36, so its cover would have 10 * 2^36 vertices
        path = tmp_path / "k10.json"
        path.write_text(serialize_graph(complete(10)))
        code = cli.main([command, str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: next homology cover would have {10 << 36} vertices (cap {1 << 20})\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, at_zero",
        [
            ("cheeger", "--cap", 3),
            ("cover", "--vertex-cap", 3),
            ("pieces", "--cap", 3),
            ("present", "--rank-cap", 0),
            ("wreath", "--cap", 3),
        ],
    )
    def test_a_negative_cap_is_invalid_input(self, capsys, tmp_path, command, flag, at_zero):
        # a cap counts vertices, darts or cycle rank, so -1 is refused as
        # input before any work, while 0 is a cap like any other
        path = tmp_path / "path.json"
        path.write_text(serialize_graph(build_graph(3, [(0, 1, "a"), (1, 2, "b")])))
        z3 = z3_file(tmp_path)
        inputs = ["--q-table", z3, "--b-table", z3, "--proj", "0,1,2"] if command == "wreath" else [str(path)]
        code = cli.main([command, *inputs, flag, "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and captured.err.startswith("error: the ")
        assert "cap must be nonnegative, got -1" in captured.err
        assert cli.main([command, *inputs, flag, "0", "--out", "-"]) == at_zero
        capsys.readouterr()

    def test_exit_codes_map_error_classes(self, capsys, tmp_path, monkeypatch):
        table = {
            InvalidInputError: 2,
            CapExceededError: 3,
            VerificationError: 4,
        }
        for exc_type, expected in table.items():
            def boom(args, _e=exc_type):
                raise _e("synthetic")

            monkeypatch.setattr(cli, "_cmd_girth", boom)
            code = cli.main(["girth", c6_file(tmp_path)])
            capsys.readouterr()
            assert code == expected

    def test_unknown_field_rejected_then_lax_accepted(self, capsys, tmp_path):
        doc = json.loads(serialize_graph(cayley_graph(cyclic_group(4))))
        doc["comment"] = "hi"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["girth", str(path)])
        capsys.readouterr()
        assert code == 2
        code, out = run(capsys, ["girth", str(path), "--lax"])
        assert code == 0
        assert "girth: 4" in out


def source_env():
    """This environment with the sources first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(script, *args, cwd):
    """Run ``script`` in a new interpreter with the sources on its path;
    returns the JSON value it prints last on stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=cwd, env=source_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


# a package module counts as executed when its type is plain ModuleType: a
# module that is only registered has the LazyLoader's subclass until the
# first read of one of its attributes runs it
EXECUTED = (
    "import json, sys, types\n"
    "def executed():\n"
    "    return sorted(n.split('.', 1)[1] for n, m in sys.modules.items()\n"
    "                  if n.startswith('coarselab.') and type(m) is types.ModuleType)\n"
)

#: What every command executes: the CLI, its error types and graph
#: model, and the JSON reader and writer.
EVERY_COMMAND = {"cli", "errors", "graph_core", "jsonio"}


@pytest.fixture(scope="module")
def startup_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    for write in (c6_file, k4_file, family_file, z3_file):
        write(work)
    (work / "triangle.json").write_text(serialize_graph(build_graph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])))
    (work / "points.json").write_text(serialize_points(np.eye(3)))
    (work / "lps.json").write_text(serialize_graph(lps_graph(13, 5)[0]))
    (work / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (work / "far.json").write_text(serialize_points(np.array([[1e308], [-1e308]])))
    return work


Z3_FLAGS = ["--q-table", "z3.json", "--b-table", "z3.json", "--proj", "0,1,2"]

#: Each command, and the package modules it executes beyond EVERY_COMMAND.
COMMAND_MODULES = [
    (["lps", "--p", "13", "--q", "5"], {"expander_zoo"}),
    (["spectrum", "lps.json"], set()),
    (["girth", "k4.json"], set()),
    (["cheeger", "c6.json"], set()),
    (["label", "c6.json", *LABEL_TWO_C8, "--max-attempts", "200"], {"labelings"}),
    (["pieces", "triangle.json"], {"labelings"}),
    (["present", "triangle.json"], {"labelings"}),
    (["cover", "k4.json"], {"covers_walls"}),
    (["walls", "k4.json"], {"covers_walls"}),
    (["wallmetric", "k4.json"], {"covers_walls"}),
    (["moduli", "family.json"], {"metric_diag"}),
    (["weakembed", "family.json", "--lipschitz", "1.0"], {"metric_diag"}),
    (["concentrate", "points.json", "--radius", "1.0"], {"metric_diag"}),
    (["wreath", *Z3_FLAGS], {"expander_zoo", "wreath"}),
    (["poincare", "--relative", *Z3_FLAGS], {"expander_zoo", "wreath", "poincare_lab"}),
]


class TestStartup:
    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[a[0] for a, _ in COMMAND_MODULES])
    def test_a_command_executes_only_the_modules_it_uses(self, startup_inputs, argv, modules):
        script = EXECUTED + (
            "import coarselab.cli as cli\n"
            "assert cli.main(json.loads(sys.argv[1])) == 0\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([executed(), scipy]), file=sys.stderr)\n"
        )
        executed, scipy = fresh_python(script, json.dumps([*argv, "--out", "artifact"]), cwd=startup_inputs)
        assert executed == sorted(EVERY_COMMAND | modules)
        assert scipy == []

    def test_the_parser_executes_no_layer_and_keeps_the_cap_defaults(self, tmp_path):
        script = EXECUTED + (
            "import contextlib, io\n"
            "import coarselab.cli as cli\n"
            "parser = cli.build_parser()\n"
            "helps = {}\n"
            "for command in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        try:\n"
            "            parser.parse_args([command, '--help'])\n"
            "        except SystemExit:\n"
            "            pass\n"
            "    helps[command] = ' '.join(out.getvalue().split())\n"
            "defaults = vars(parser.parse_args(['cover']))\n"
            "print(json.dumps([executed(), helps, defaults['vertex_cap']]), file=sys.stderr)\n"
        )
        commands = ["pieces", "present", "cover", "wreath", "cheeger"]
        executed, helps, vertex_cap = fresh_python(script, *commands, cwd=tmp_path)
        assert executed == ["cli", "errors", "graph_core"]
        assert "--cap CAP dart budget for the pair search (default 2000)" in helps["pieces"]
        assert "--rank-cap RANK_CAP largest total relator rank to accept (default 64)" in helps["present"]
        assert "--vertex-cap VERTEX_CAP abort when the cover would exceed this many vertices" in helps["cover"]
        assert vertex_cap == 1 << 20
        assert "--cap CAP largest vertex count to enumerate (default 1048576)" in helps["wreath"]
        assert "--cap CAP largest vertex count to sweep (default 20)" in helps["cheeger"]


#: Commands through the process entry, with the exit code each must give.
PROCESS_EXITS = [
    ("good", ["girth", "c6.json"], 0),
    ("missing_input", ["girth", "absent.json"], 2),
    ("deep_json", ["spectrum", "deep.json"], 2),
    ("overflowing_points", ["concentrate", "far.json", "--radius", "1"], 2),
    ("over_vertex_cap", ["cover", "k4.json", "--vertex-cap", "4"], 3),
]

#: Reports the freeze count a patched ``girth`` handler sees under
#: ``cli.main`` and then under ``cli.run``, and the count after ``main``.
FREEZE_PROBE = (
    "import gc, json, sys\n"
    "import coarselab.cli as cli\n"
    "seen = []\n"
    "def probe(args):\n"
    "    seen.append(gc.get_freeze_count())\n"
    "    return [], None\n"
    "cli._cmd_girth = probe\n"
    "assert cli.main(['girth']) == 0\n"
    "after_main = gc.get_freeze_count()\n"
    "sys.argv[1:] = ['girth']\n"
    "assert cli.run() == 0\n"
    "print(json.dumps([seen, after_main]), file=sys.stderr)\n"
)


class TestProcessEntry:
    @pytest.mark.parametrize("argv, code", [c[1:] for c in PROCESS_EXITS], ids=[c[0] for c in PROCESS_EXITS])
    def test_exit_codes_through_python_m(self, startup_inputs, argv, code):
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", *argv],
            cwd=startup_inputs, env=source_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        if code:
            assert proc.stdout == "" and proc.stderr.startswith("error:")
        else:
            assert proc.stderr == "" and "girth: 6" in proc.stdout

    def test_run_freezes_the_import_heap_and_main_does_not(self, tmp_path):
        seen, after_main = fresh_python(FREEZE_PROBE, cwd=tmp_path)
        assert seen[0] == 0 and after_main == 0
        assert seen[1] > 10_000

    def test_the_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["coarselab"]
        assert entry == "coarselab.cli:run"
        assert (SRC / "coarselab" / "cli.py").read_text().endswith(
            'if __name__ == "__main__":\n    sys.exit(run())\n'
        )


def test_artifact_bytes_ignore_the_thread_count(tmp_path):
    """Artifacts are byte-identical at COARSE_LAB_THREADS=1 and =2:
    `poincare --relative` on Z/7 wr Z/7, with and without a replay,
    `wallmetric` on the 6-prism, `spectrum` on LPS(13, 5) and on
    LPS(5, 13) (character blocks: the blocks of LPS(13, 5) have 20 rows,
    too few for BLAS to thread, those of LPS(5, 13) 156, where a BLAS
    block product moves the residual's last digits with the thread
    count), and `spectrum` and `girth` on the K4 homology cover, on the
    same cover with its annotation removed, and on the twice iterated
    theta cover (signed twist blocks and fiber heads, read off the
    darts).  The dense and Lanczos spectrum routes are left out until
    eigenvalues are written in a clustered format: a dense eigensolve
    still moves last digits with the thread count."""
    (tmp_path / "z7.json").write_text(serialize_group_table(cyclic_group(7)))
    (tmp_path / "prism6.json").write_text(serialize_graph(prism(6)))
    (tmp_path / "lps.json").write_text(serialize_graph(lps_graph(13, 5)[0]))
    (tmp_path / "lps_5_13.json").write_text(serialize_graph(lps_graph(5, 13)[0]))
    (tmp_path / "theta.json").write_text(serialize_graph(build_graph(2, [(0, 1), (0, 1), (0, 1)])))
    assert cli.main(["cover", k4_file(tmp_path), "--out", str(tmp_path / "k4cover.json")]) == 0
    iterate = ["cover", str(tmp_path / "theta.json"), "--iterations", "2"]
    assert cli.main([*iterate, "--out", str(tmp_path / "iterated.json")]) == 0
    plain = json.loads((tmp_path / "k4cover.json").read_text())
    del plain["annotations"]
    (tmp_path / "k4plain.json").write_text(json.dumps(plain))
    z7 = ["--relative", "--q-table", "z7.json", "--b-table", "z7.json", "--proj", "0,1,2,3,4,5,6"]
    commands = {
        "poincare.json": ["poincare", *z7],
        "poincare_trials.json": ["poincare", *z7, "--trials", "6", "--seed", "1"],
        "wallmetric.csv": ["wallmetric", "prism6.json"],
        "spectrum_lps.json": ["spectrum", "lps.json"],
        "spectrum_lps_5_13.json": ["spectrum", "lps_5_13.json"],
        "spectrum_cover.json": ["spectrum", "k4cover.json"],
        "girth_cover.json": ["girth", "k4cover.json"],
        "spectrum_plain.json": ["spectrum", "k4plain.json"],
        "girth_plain.json": ["girth", "k4plain.json"],
        "spectrum_iterated.json": ["spectrum", "iterated.json"],
        "girth_iterated.json": ["girth", "iterated.json"],
    }
    script = (
        "import json, sys\n"
        "import coarselab.cli as cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    artifacts = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["COARSE_LAB_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argvs = [argv + ["--out", f"t{threads}_{name}"] for name, argv in commands.items()]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts[threads] = {name: (tmp_path / f"t{threads}_{name}").read_bytes() for name in commands}
    for name in commands:
        assert artifacts["1"][name] == artifacts["2"][name], name
