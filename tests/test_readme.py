"""The README's library example runs as written and shows what it claims,
and its golden counts are those of ``tests/golden_reports.json``."""

import json
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = README.parent / "tests" / "golden_reports.json"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example(capsys):
    ns: dict = {}
    exec(compile(_library_example(), str(README), "exec"), ns)
    orbits = ns["orbits"]
    assert ns["ni"].count == 15
    assert [o.size for o in orbits] == [6, 9]
    assert capsys.readouterr().out.splitlines() == [
        "O1 0 ((2, 1, 1), (1, 0, 0), (1, 0, 0))", "O2 0 ((1, 2, 1), (2, 0, 1), (1, 1, 0))"]
    assert [o.genus_report.genus for o in orbits] == [0, 0]
    assert [ns["moduli_flags"](o).b_fine_reduced for o in orbits] == [False, False]
    assert [ns["lift_invariant"](ns["spin4"], o.rep).trivial for o in orbits] == [False, True]
    assert [o.size for o in ns["tree"].levels[1].orbits] == [24, 24, 36, 36]


def test_readme_golden_counts_match_the_golden_file():
    text = " ".join(README.read_text().split())
    commands, runs, cases = map(int, re.search(
        r"of (\d+) commands in text, JSON and CSV, and of (\d+) runs that go to argparse"
        r".*?, (\d+) cases in all", text).groups())
    assert 3 * commands + runs == cases == len(json.loads(GOLDEN.read_text(encoding="utf-8")))
