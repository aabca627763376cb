"""Every byte of stdout and stderr, and the exit code, of a fixed set of CLI
runs in text, JSON and CSV, against ``golden_reports.json``.

The set is the README tour, the ``V(2,5)`` lattice jobs of the benchmark
with the companion action, a vector tower with Frattini steps, and one
invalid and one over-budget input.  To regenerate the file after a
deliberate change of output, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

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
    ["check", "--suite", "braid-relations", "--group", "A5", "--classes",
     "[3a,3a,3a,3a]"],
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
]
CASES = [[*argv, "--format", fmt] for argv in COMMANDS for fmt in ("text", "json", "csv")]


def capture(argv) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_bytes_match_the_golden_file(golden, argv):
    assert capture(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    data = {" ".join(argv): capture(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
