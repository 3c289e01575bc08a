"""Golden bytes: CLI artifacts on fixed inputs hash to recorded digests.

Every subcommand below runs in one child process at
``COARSE_LAB_THREADS=1`` on inputs built here, and each artifact's
sha256 must match the digest recorded when the test was written.  The
inputs include loops and parallel edges, so the spanning trees behind
cover numberings, relators and piece words are pinned down to the choice
among parallel darts.  ``spectrum`` is left out: its eigenvalues still
differ in the last ulp between thread counts.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coarselab.expander_zoo import cyclic_group
from coarselab.graph_core import build_graph
from coarselab.jsonio import serialize_graph, serialize_group_table

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

TWO_C8_EDGES = [(i, (i + 1) % 8) for i in range(8)] + [(8 + i, 8 + (i + 1) % 8) for i in range(8)]

GOLDEN = {
    "cover.json": "7a7483984bfb199455c2c3a4fc3f7e6265e573d65738acd42b228ad35f0dcd7f",
    "walls.json": "e6176e040e0a5b766ad39d7547bfcd1f8a73e6ba03d31a877e2ee63e06d79e20",
    "wallmetric.csv": "704d0835830bb46c88a86312f6a54b940dd76708c9e281035985bcddbfa5815a",
    "girth.json": "7b346176699c2a5495fd273411116ab838364bd6e18e0e7fd6449b4802c115f9",
    "labeled.json": "2c554c6018676added5e5f937cb5f6af515ce934def328d652f4b05ad6c6b6ef",
    "pieces_labeled.json": "5f2ed21ef1815fbbb36611130d982d47181be42ffbe0d7ce98656fc18573f6dd",
    "present_labeled.json": "8bee8eb22c83dddfc3edcce99f662b64805265e4f4061d9e92d5e534b995e062",
    "pieces_multi.json": "725a4ddde914486612a6e68817a7331800f100e64893c0e42498155aeb8772c1",
    "present_multi.json": "0e3edd5360342058862cc9cac0b1e57e7ec07b3dddb9e8955133c1bd4354b5da",
    "wreath.json": "0600cd492612b1142cfcf3e199d40becaf98d969297d43688fc247f1869c3882",
    "lps.json": "9098504eb631f4bce347eb07a2008d4136336d3b17773ceb5193f93127156d49",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    (work / "multi.json").write_text(serialize_graph(build_graph(4, MULTI_EDGES)))
    (work / "labeled_multi.json").write_text(serialize_graph(build_graph(7, LABELED_EDGES)))
    (work / "two_c8.json").write_text(serialize_graph(build_graph(16, TWO_C8_EDGES)))
    (work / "z3.json").write_text(serialize_group_table(cyclic_group(3)))
    commands = [
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
        ["wreath", "--q-table", "z3.json", "--b-table", "z3.json", "--proj", "0,1,2",
         "--out", "wreath.json"],
        ["lps", "--p", "13", "--q", "5", "--out", "lps.json"],
    ]
    env = dict(os.environ, COARSE_LAB_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(commands)],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(commands), list(zip(codes, commands))
    return work


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_recorded_digest(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
