"""The README's library example runs as written and shows what it claims."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
    assert capsys.readouterr().out.startswith("orbit O1: degree 6")
    assert [ns["lift_invariant"](ns["spin4"], o.rep).trivial for o in orbits] == [False, True]
    assert [o.size for o in ns["tree"].levels[1].orbits] == [24, 24, 36, 36]
