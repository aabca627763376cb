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

Each golden JSON report is also audited against its own numbers, apart from
the code that made it: class counts, cusp widths against orbit sizes,
Riemann-Hurwitz from the cycle types, symmetric sh-incidence blocks whose
rows sum to the cusp widths, and tower edges with one parent per orbit.
"""

import collections
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


# ---------------------------------------------------------------------------
# the audit: each golden JSON report checked against its own numbers only


def _widths(labels) -> list[int]:
    """The widths w of cusp labels O_{i,j}^w."""
    return [int(label.rsplit("^", 1)[1]) for label in labels]


def _audit_genus(rep: dict) -> None:
    """Riemann-Hurwitz from the cycle types; the cusps are the cycles of
    gamma_inf, and the fixed points the 1-cycles of gamma_0 and gamma_1."""
    n, types, ind = rep["degree"], rep["cycle_types"], rep["indices"]
    for name, cycles in types.items():
        assert sum(cycles) == n and ind[name] == n - len(cycles)
    assert 2 * (n + rep["genus"] - 1) == sum(ind.values()) and rep["genus"] >= 0
    assert types["gammainf"] == rep["cusp_widths"]
    assert set(types["gamma0"]) <= {1, 3} and set(types["gamma1"]) <= {1, 2}
    assert rep["fixed_points"] == {g: types[g].count(1) for g in ("gamma0", "gamma1")}


def _audit_enumerate(d: dict) -> None:
    assert d["count"] == len(d["reps"])
    assert all(len(t) == len(d["classes"]) for t in d["reps"])


def _audit_orbits(d: dict) -> None:
    for o in d["orbits"]:
        widths = [c["width"] for c in o["cusps"]]
        assert sum(widths) == o["size"] and _widths(c["label"] for c in o["cusps"]) == widths


def _audit_genus_report(d: dict) -> None:
    for o in d["orbits"]:
        _audit_genus(o)
        assert o["moduli"]["b_fine_reduced"] or not o["moduli"]["fine_reduced"]


def _audit_shinc(d: dict) -> None:
    for b in d["blocks"]:
        rep, mat, widths = b["genus_report"], b["matrix"], _widths(b["cusps"])
        _audit_genus(rep)
        assert rep["orbit"] == b["orbit"] and widths == rep["cusp_widths"]
        assert mat == [list(col) for col in zip(*mat)]  # symmetric
        assert [sum(row) for row in mat] == widths


def _audit_lift(d: dict) -> None:
    assert all(e["trivial"] == (not e["obstructed"]) for e in d["orbit_invariants"])


def _audit_tower(d: dict) -> None:
    orbits = {(lvl["k"], o["label"]) for lvl in d["levels"] for o in lvl["orbits"]}
    for lvl in d["levels"]:
        assert sum(o["size"] for o in lvl["orbits"]) == lvl["ni_count"]
        for o in lvl["orbits"]:
            widths = [c["width"] for c in o["cusps"]]
            assert sum(widths) == o["size"] and _widths(c["label"] for c in o["cusps"]) == widths
    parents = collections.Counter()
    for (k, child), (k0, parent) in d["edges"]:
        assert (k, child) in orbits and (k0, parent) in orbits and k0 == k - 1
        parents[k, child] += 1
    assert parents == collections.Counter({key: 1 for key in orbits if key[0] > 0})


def _audit_check(d: dict) -> None:
    assert d["passed"] == all(c["passed"] for c in d["checks"])


AUDITS = {"enumerate": _audit_enumerate, "orbits": _audit_orbits, "shinc": _audit_shinc,
          "genus": _audit_genus_report, "lift": _audit_lift, "tower": _audit_tower,
          "bcl": lambda d: None, "check": _audit_check}


def test_audits_name_every_command():
    from hurwitz.cli import _COMMANDS

    assert AUDITS.keys() == _COMMANDS.keys()


@pytest.mark.parametrize("case", [" ".join([*argv, "--format", "json"]) for argv in COMMANDS])
def test_json_report_agrees_with_its_own_numbers(golden, case):
    """A run that fails prints no report; a report passes its command's audit."""
    run_ = golden[case]
    if run_["code"]:
        assert run_["stdout"] == ""
        return
    AUDITS[case.split()[0]](json.loads(run_["stdout"]))


if __name__ == "__main__":
    data = {" ".join(argv): capture(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
