"""Every byte of stdout and stderr, and the exit code, of a fixed set of CLI
runs in text, JSON and CSV, against ``golden_reports.json``.

The set is the README tour, the ``V(2,5)`` lattice jobs of the benchmark
with the companion action and, at the benchmark's seed-7 action, its
tower-levels job, its genus job and its two Heisenberg tower jobs, vector
towers with Frattini steps, one of them truncated at the table cap, one
invalid and one over-budget input, and the Heisenberg lift invariants of
level-0 vector towers and ``lift --cover heis(l)`` runs, among them an
action of determinant 4 mod 7 whose cover is refused, a raw-mode enumeration
and absolute modes on two ``gens:`` groups, which have no catalog normalizer
generators: A5, whose Sym(5)-normalizer is Sym(5) as it has index 2, and D4
of index 3 in Sym(4), whose normalizer comes from the search over Sym(4).  Braid orbits in inner mode at r = 4, in absolute modes
at r = 3 and r = 5, the D37 genus and two more vector towers pin the braid
moves in every mode and the reduced search; a vector tower at r = 3 pins the
cusp types and the missing genus off r = 4, and the ``spin5`` lift of the
five 3-cycle tuples of A5 pins the one obstructed orbit.  ``USAGE`` pins the argument
parser's help, usage and error output, runs whose argv only the argument
parser reads, and two refused sample sizes, at a fixed terminal width of 80
columns.  To regenerate the file after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest

from hurwitz.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

A4 = ["--group", "A4", "--classes", "[3a,3a,3b,3b]"]
V25 = ["--group", "V(2,5):M=[[0,-1],[1,-1]]", "--classes", "[3a,3a,3b,3b]",
       "--mode", "inner-reduced"]
COMMANDS = [
    ["shinc", *A4, "--mode", "inner-reduced"],
    ["genus", "--group", "D5", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["lift", *A4, "--cover", "spin4"],
    ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]",
     "--mode", "abs-reduced", "--k-max", "1"],
    ["bcl", *A4],
    ["check", "--group", "A5", "--classes", "[3a,3a,3a,3a]"],
    ["enumerate", *A4, "--mode", "inner-reduced"],
    ["orbits", *A4],
    ["orbits", *V25],
    ["shinc", *V25],
    ["genus", *V25],
    ["lift", *V25, "--cover", "heis(5)"],
    ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "1", "--frattini"],
    ["genus", *A4, "--mode", "inner"],
    ["enumerate", "--group", "A4", "--classes", "[3ax2000]"],
    ["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "0"],
    ["lift", "--group", "V(2,5):M=[[4,-7],[3,-5]]", "--classes", "[3a,3a,3b,3b]",
     "--mode", "inner-reduced", "--cover", "heis(5)"],
    # det 4 mod 7: the Heisenberg kernel is not central, so no invariant
    ["tower", "--family", "vector", "--ell", "7", "--action", "[[2,0],[0,2]]",
     "--classes", "[3a,3a,3b,3b]", "--k-max", "0"],
    ["lift", "--group", "V(2,7):M=[[2,0],[0,2]]", "--classes", "[3a,3a,3b,3b]",
     "--cover", "heis(7)"],
    ["enumerate", "--group", "A4", "--classes", "[3a,3a,3b,3b]", "--mode", "raw"],
    ["genus", "--group", "gens:[(1,2,3,4,5),(1,2,3)]", "--classes", "[3a,3a,3a,3a]",
     "--mode", "abs-reduced"],
    # reduced r = 4 searches from one start, with sh filled as an involution;
    # the other modes and tuple lengths derive q1 from q2 and sh
    ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "2", "--frattini"],
    ["tower", "--family", "vector", "--ell", "7", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "0"],
    # Frattini steps stop at the deepest built level, 3 here
    ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "4", "--frattini"],
    ["genus", "--group", "D37", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["orbits", *A4, "--mode", "inner"],
    ["orbits", "--group", "S4", "--classes", "[2b,2b,2b,2b,3a]", "--mode",
     "absolute-reduced"],
    ["orbits", "--group", "A5", "--classes", "[3a,3a,5a]", "--mode", "absolute"],
    # r = 3: cusps typed by the arc split, and orbits with no genus
    ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3a]", "--k-max", "1"],
    # Fried's 3-cycle separation at n = r = 5: spin5 obstructs one orbit of two
    ["lift", "--group", "A5", "--classes", "[3a,3a,3a,3a,3a]", "--mode", "inner",
     "--cover", "spin5"],
    # a gens: group of index 3 in Sym(4), D4: its normalizer comes from the
    # search over Sym(4)
    ["orbits", "--group", "gens:[(1,2,3,4),(1,3)]", "--classes", "[2b,2b,2c,2c]",
     "--mode", "absolute"],
    # the benchmark's own inputs at its seed 7, whose action matrix is a
    # conjugate of the companion matrix: the tower-levels job and the genus
    # job of lattice-level0
    ["tower", "--family", "vector", "--ell", "2", "--action", "[[1,-3],[1,-2]]",
     "--classes", "[3a,3a,3b,3b]", "--k-max", "2", "--frattini"],
    ["genus", "--group", "V(2,5):M=[[1,-3],[1,-2]]", "--classes", "[3a,3a,3b,3b]",
     "--mode", "inner-reduced"],
    # the Heisenberg jobs of lattice-level0 at the seed-7 action: invariant
    # labels of level-0 vector towers off the companion matrix
    *(["tower", "--family", "vector", "--ell", ell, "--action", "[[1,-3],[1,-2]]",
       "--classes", "[3a,3a,3b,3b]", "--k-max", "0"] for ell in ("5", "7")),
]
# help, usage and argument errors, written by argparse before any command runs
USAGE = [
    ["--help"],
    [],
    ["frobnicate"],
    ["genus", "--help"],
    ["tower", "--help"],
    ["genus", "--bogus", "1"],
    ["tower", "--k-max", "x"],
    ["--group", "A4", "genus"],
    # argv outside the exact-flag form: abbreviations, "=" values, a value
    # that looks like a negative number, a repeated flag, a stray value, a
    # missing value, help after valid flags and "--"
    ["genus", "--gro", "D5", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["genus", "--group=D5", "--classes=[2a,2a,2a,2a]", "--mode=abs-reduced"],
    ["tower", "--family", "dihedral", "--ell", "-5", "--classes", "[2a,2a,2a,2a]"],
    ["genus", "--group", "D5", "--classes", "[2a,2a,2a,2a]", "--mode", "inner",
     "--mode", "abs-reduced"],
    ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
     "--frattini", "yes"],
    ["genus", "--group", "D5", "--classes"],
    ["genus", "--group", "D5", "-h"],
    ["genus", "--", "--group", "D5"],
    # a sample of no tuples would pass every check vacuously
    ["check", "--group", "A4", "--classes", "[3a,3a,3b,3b]", "--sample-size", "-1"],
    ["check", "--group", "A4", "--classes", "[3a,3a,3b,3b]", "--sample-size", "0"],
]
CASES = [[*argv, "--format", fmt] for argv in COMMANDS for fmt in ("text", "json", "csv")]
CASES += USAGE


def capture(argv) -> dict:
    """Exit code, stdout and stderr of one run; a ``SystemExit`` from the
    argument parser counts as the run's exit code."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_report_bytes_match_the_golden_file(golden, argv):
    assert capture(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    data = {" ".join(argv): capture(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
