"""Golden bytes: CLI artifacts on fixed inputs hash to recorded digests.

Every subcommand below runs in one child process at
``COARSE_LAB_THREADS=1`` on inputs built here, and each artifact's
sha256 must match the digest recorded when the test was written.  The
inputs include loops and parallel edges, so the spanning trees behind
cover numberings, relators and piece words are pinned down to the choice
among parallel darts.  The ``poincare`` witnesses list one value per
element in the order of the wreath multiplication table, so they pin
that order and the choice of the canonical witness.  The map family of ``moduli`` and
``weakembed`` sends the homology covers of K4 and the 3-prism onto
their bases and onto their wall coordinates, and ``concentrate`` reads
the wall coordinates of the K4 cover.  ``spectrum`` is left out: its
block routes (character blocks, signed twist blocks) are held
byte-identical across thread counts by ``test_cli``, but its dense and
Lanczos routes still move the last ulp between thread counts, and its
flat eigenvalue list waits for a clustered format.  The pieces of a
family whose pair walk holds several cycles are also run under eight
``PYTHONHASHSEED`` values, which must not change a byte.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coarselab import cli, jsonio
from coarselab.covers_walls import homology_cover, wall_hilbert_embedding, walls_from_cover
from coarselab.graph_core import build_graph
from coarselab.jsonio import (
    serialize_graph,
    serialize_map_family,
    serialize_points,
)
from coarselab.metric_diag import MapEntry, MapFamily

from groups import cyclic_group, serialize_group_table, symmetric_group
from oracles import reference_json

SRC = Path(__file__).resolve().parents[1] / "src"

DRIVER = (
    "import json, sys\n"
    "from coarselab import cli\n"
    "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(json.dumps(codes))\n"
)

# K4 with a doubled edge on the root's first tree edge and a loop
MULTI_EDGES = [(0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3)]

# a triangle reading aaa with a parallel b-edge, and a square reading
# aaaa with a b-loop: a^n is an infinite piece, b-words are finite ones
LABELED_EDGES = [
    (0, 1, "a"), (0, 1, "b"), (1, 2, "a"), (2, 0, "a"),
    (3, 4, "a"), (4, 5, "a"), (5, 6, "a"), (6, 3, "a"), (6, 6, "b"),
]

# two triangles whose pair walk holds more than one cycle; a walk that
# takes its moves in the order of a set of label strings prints a
# different period under a different PYTHONHASHSEED
HASH_SENSITIVE_EDGES = [
    (0, 1, "c"), (1, 2, "a"), (2, 0, "c"),
    (3, 4, "a"), (4, 5, "c"), (5, 3, "a"), (4, 5, "a"), (3, 3, "c"),
]

K4_EDGES = [(i, j) for i in range(4) for j in range(i + 1, 4)]
PRISM3_EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]

TWO_C8_EDGES = [(i, (i + 1) % 8) for i in range(8)] + [(8 + i, 8 + (i + 1) % 8) for i in range(8)]

GOLDEN = {
    "cover.json": "7a7483984bfb199455c2c3a4fc3f7e6265e573d65738acd42b228ad35f0dcd7f",
    "walls.json": "e6176e040e0a5b766ad39d7547bfcd1f8a73e6ba03d31a877e2ee63e06d79e20",
    "wallmetric.csv": "704d0835830bb46c88a86312f6a54b940dd76708c9e281035985bcddbfa5815a",
    "girth.json": "7b346176699c2a5495fd273411116ab838364bd6e18e0e7fd6449b4802c115f9",
    "labeled.json": "ff139bb1e202f33fc91fa33cef3e3dc2b5dbbf6c30eba04657e8c67c0e5066ef",
    "pieces_labeled.json": "62738e5cc10a87aef441f5de6958095e70024dc808c59464129c9fb631244d16",
    "present_labeled.json": "7ff29aca9f08605ab248a34aac521eddf3cd3eca6e79820d957c3e02e8f733d0",
    "pieces_multi.json": "725a4ddde914486612a6e68817a7331800f100e64893c0e42498155aeb8772c1",
    "present_multi.json": "0e3edd5360342058862cc9cac0b1e57e7ec07b3dddb9e8955133c1bd4354b5da",
    "pieces_hash.json": "951ec3bcd2f8d78d5ccdf2a8b360909884afe2abb06d22f2bc8623389d476fa4",
    "wreath.json": "0600cd492612b1142cfcf3e199d40becaf98d969297d43688fc247f1869c3882",
    "wreath_s3.json": "0930ecbf6249f08a9211e4dabf9ade24fa53f864f6a296cec62220e96fb450c4",
    "wreath_sign.json": "f559c583fdb541cd3064b6a9d73247fa750a42c7abf447af3e1c16accafd6808",
    "wreath_z40_ball.json": "188681c0711696b0d66586cd713a6f06febfc009b1c2123e8b0e04fc1bf56ae0",
    "wreath_z10.json": "8448f079fa0b0745cf009e51281672a43d46c2226ee069552507a70874938c96",
    "lps.json": "9098504eb631f4bce347eb07a2008d4136336d3b17773ceb5193f93127156d49",
    "lps_5_13.json": "b08777d28a4cd0d9118f9232ae77fb4c3cb667a3bb0e2a871cbf5758e056002b",
    "poincare_z4.json": "032669263f76573daf97c4f56a679ed8b6847c7e4b0380038952e3679e63ab36",
    "poincare_s3.json": "a522436a7308c779ea85cfe63b38cdf23c94a69a340fc8688439ae240b259a66",
    "poincare_z3_trials.json": "1a2b1064a442a63ff6ab5391e6beb02f661dd43381805d86ef9dffde923eeb1b",
    "poincare_z6_trials.json": "eb21db34ed4d3f925ab4ab21d3570f057f13f2f32427713a289c213723921752",
    "moduli.csv": "3965abad660644a2603636bcdc85a5c21861ddfedbd9706ea2a81be00781a6dc",
    "weakembed.json": "d7004c39d04916acc54e39c232f567f6620d95cffc598b44c504d748c75a5f2c",
    "concentrate.json": "0f713f947163da770b4584cf853ecfc859194ab82ac0a682c75d53f2513507b1",
}


def cover_maps(n, edges):
    """The homology cover of a base graph mapped onto the base and onto
    its wall coordinates, and those coordinates."""
    cm = homology_cover(build_graph(n, edges))
    points = wall_hilbert_embedding(cm.cover, walls_from_cover(cm))
    onto_base = MapEntry(cm.cover, cm.base, cm.vertex_map)
    onto_walls = MapEntry(cm.cover, points, tuple(range(cm.cover.vertex_count)))
    return (onto_base, onto_walls), points


def write_inputs(work):
    """The input files every golden command reads."""
    (work / "multi.json").write_text(serialize_graph(build_graph(4, MULTI_EDGES)))
    (work / "labeled_multi.json").write_text(serialize_graph(build_graph(7, LABELED_EDGES)))
    (work / "hash_sensitive.json").write_text(serialize_graph(build_graph(6, HASH_SENSITIVE_EDGES)))
    (work / "two_c8.json").write_text(serialize_graph(build_graph(16, TWO_C8_EDGES)))
    (work / "z3.json").write_text(serialize_group_table(cyclic_group(3)))
    (work / "z4.json").write_text(serialize_group_table(cyclic_group(4)))
    (work / "s3.json").write_text(serialize_group_table(symmetric_group(3)))
    (work / "z2.json").write_text(serialize_group_table(cyclic_group(2)))
    (work / "z6.json").write_text(serialize_group_table(cyclic_group(6)))
    (work / "z10.json").write_text(serialize_group_table(cyclic_group(10)))
    (work / "z40.json").write_text(serialize_group_table(cyclic_group(40)))
    k4_maps, k4_points = cover_maps(4, K4_EDGES)
    prism3_maps, _ = cover_maps(6, PRISM3_EDGES)
    (work / "family.json").write_text(serialize_map_family(MapFamily(k4_maps + prism3_maps)))
    (work / "points.json").write_text(serialize_points(k4_points))


COMMANDS = [
    ["cover", "multi.json", "--out", "cover.json"],
    ["walls", "multi.json", "--out", "walls.json"],
    ["wallmetric", "multi.json", "--out", "wallmetric.csv"],
    ["girth", "multi.json", "--out", "girth.json"],
    ["label", "two_c8.json", "--random", "--alphabet", "4", "--lambda", "1/4",
     "--seed", "1", "--out", "labeled.json"],
    ["pieces", "labeled.json", "--out", "pieces_labeled.json"],
    ["present", "labeled.json", "--out", "present_labeled.json"],
    ["pieces", "labeled_multi.json", "--out", "pieces_multi.json"],
    ["present", "labeled_multi.json", "--out", "present_multi.json"],
    ["pieces", "hash_sensitive.json", "--out", "pieces_hash.json"],
    ["wreath", "--q-table", "z3.json", "--b-table", "z3.json", "--proj", "0,1,2",
     "--out", "wreath.json"],
    # non-abelian Q, and a quotient map S3 -> Z/2 by sign
    ["wreath", "--q-table", "s3.json", "--b-table", "s3.json", "--proj", "0,1,2,3,4,5",
     "--out", "wreath_s3.json"],
    ["wreath", "--q-table", "z2.json", "--b-table", "s3.json", "--proj", "0,1,1,0,0,1",
     "--out", "wreath_sign.json"],
    # a ball whose lamp masks do not fit in 32 bits
    ["wreath", "--q-table", "z40.json", "--b-table", "z40.json",
     "--proj", ",".join(map(str, range(40))), "--radius", "5", "--out", "wreath_z40_ball.json"],
    # the benchmark's wreath graph: 10240 vertices of Z/10 wr Z/10
    ["wreath", "--q-table", "z10.json", "--b-table", "z10.json",
     "--proj", ",".join(map(str, range(10))), "--out", "wreath_z10.json"],
    ["lps", "--p", "13", "--q", "5", "--out", "lps.json"],
    # the benchmark's expander: 2184 vertices of PGL2(13)
    ["lps", "--p", "5", "--q", "13", "--out", "lps_5_13.json"],
    ["poincare", "--relative", "--q-table", "z4.json", "--b-table", "z4.json",
     "--proj", "0,1,2,3", "--out", "poincare_z4.json"],
    # non-abelian Q, so the lamp shift must act from the left
    ["poincare", "--relative", "--q-table", "s3.json", "--b-table", "s3.json",
     "--proj", "0,1,2,3,4,5", "--out", "poincare_s3.json"],
    ["poincare", "--relative", "--q-table", "z3.json", "--b-table", "z3.json",
     "--proj", "0,1,2", "--trials", "6", "--seed", "5", "--out", "poincare_z3_trials.json"],
    # the benchmark's replay: Z/6 wr Z/6, order 384
    ["poincare", "--relative", "--q-table", "z6.json", "--b-table", "z6.json",
     "--proj", "0,1,2,3,4,5", "--trials", "6", "--seed", "1", "--out", "poincare_z6_trials.json"],
    ["moduli", "family.json", "--out", "moduli.csv"],
    ["weakembed", "family.json", "--lipschitz", "1.0", "--out", "weakembed.json"],
    ["concentrate", "points.json", "--radius", "1.0", "--out", "concentrate.json"],
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    write_inputs(work)
    run_commands(work, COMMANDS)
    return work


def run_commands(work, commands, **env_extra):
    """Run CLI argument lists in one child process; all must exit 0."""
    env = dict(os.environ, COARSE_LAB_THREADS="1", **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(commands)],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(commands), list(zip(codes, commands))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_recorded_digest(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_every_written_document_matches_the_json_dumps_reference(tmp_path, monkeypatch, capsys):
    """The golden inputs and every command's artifact, run in process: each
    document handed to the template writer comes out as the bytes of the
    ``json.dumps`` reference.  ``spectrum`` and ``cheeger`` have no golden
    digest but write reports too."""
    written = []
    writer = jsonio.canonical_json

    def spy(doc):
        written.append((doc, writer(doc)))
        return written[-1][1]

    monkeypatch.setattr(jsonio, "canonical_json", spy)
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    reports = [["spectrum", "multi.json", "--out", "spectrum.json"], ["cheeger", "multi.json", "--out", "cheeger.json"]]
    for argv in COMMANDS + reports:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # six inputs, and one document per command that writes JSON
    assert len(written) == 6 + sum(argv[-1].endswith(".json") for argv in COMMANDS + reports)
    for doc, text in written:
        assert text == reference_json(doc)


def test_pieces_bytes_ignore_the_hash_seed(tmp_path):
    (tmp_path / "family.json").write_text(serialize_graph(build_graph(6, HASH_SENSITIVE_EDGES)))
    for seed in range(8):
        run_commands(
            tmp_path, [["pieces", "family.json", "--out", f"pieces_{seed}.json"]],
            PYTHONHASHSEED=str(seed),
        )
    artifacts = {(tmp_path / f"pieces_{seed}.json").read_bytes() for seed in range(8)}
    assert len(artifacts) == 1
