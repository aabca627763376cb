import csv
import gc
import io
import json
import argparse
import collections
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurwitz.lift
import hurwitz.nielsen
import hurwitz.tower
from hurwitz import cli
from hurwitz.cli import run
from hurwitz.braid import BraidOrbit
from hurwitz.groups import FiniteGroup, make_group
from hurwitz.nielsen import Mode

A4_ARGS = ["--group", "A4", "--classes", "[3a,3a,3b,3b]"]
BIG = "9" * 5000  # more digits than int() converts by default
DEEP = "[" * 20000 + "]" * 20000  # nested past the recursion limit


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_shinc_text(capsys):
    assert run(["shinc", *A4_ARGS, "--mode", "inner-reduced"]) == 0
    out = out_of(capsys)
    assert "orbit O1: degree 6, genus 0" in out
    assert "orbit O2: degree 9, genus 0" in out
    # the size-6 block prints exactly
    assert "2          1          1" in out


def test_genus_modular_curve_example(capsys):
    assert run(["genus", "--group", "D5", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced"]) == 0
    out = out_of(capsys)
    assert "degree 6, genus 0" in out


# one run of each command, small enough to repeat in every format
VIEW_RUNS = {
    "enumerate": A4_ARGS,
    "orbits": A4_ARGS,
    "shinc": A4_ARGS,
    "genus": ["--group", "D5", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    "lift": [*A4_ARGS, "--cover", "spin4"],
    "tower": ["--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]"],
    "bcl": A4_ARGS,
    "check": [*A4_ARGS, "--sample-size", "2"],
}


def test_view_runs_name_every_command():
    assert VIEW_RUNS.keys() == cli._COMMANDS.keys()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", VIEW_RUNS)
def test_every_command_calls_only_the_view_it_prints(command, fmt, monkeypatch, capsys):
    help_text, flags, keys, runner = cli._COMMANDS[command]
    called = []

    def spied(name, view):
        def call():
            called.append(name)
            return view()
        return call

    def spying_runner(cfg):
        data, rows, lines = runner(cfg)
        return data, spied("csv", rows), spied("text", lines)

    monkeypatch.setitem(cli._COMMANDS, command, (help_text, flags, keys, spying_runner))
    assert run([command, *VIEW_RUNS[command], "--format", fmt]) == 0
    assert called == ([] if fmt == "json" else [fmt])
    assert out_of(capsys).count("\n") > 2


def _json_run(capsys, *argv):
    assert run([*argv, "--format", "json"]) == 0
    return json.loads(out_of(capsys))


@pytest.mark.parametrize("family,same,k_max,groups", [
    (["--family", "dihedral", "--ell", "5"],
     ["--classes", "[2a,2a,2a,2a]", "--mode", "absolute-reduced"], 1, ["D5", "D25"]),
    (["--family", "vector", "--ell", "2"], ["--classes", "[3a,3a,3b,3b]"], 0,
     ["V(2,2):M=[[0,-1],[1,-1]]"]),
])
def test_tower_levels_agree_with_orbits_genus_and_shinc(capsys, family, same, k_max, groups):
    """Each tower level reports the orbits that ``orbits``, ``genus`` and
    ``shinc`` report on the level's group with the same classes and mode."""
    data = _json_run(capsys, "tower", *family, *same, "--k-max", str(k_max))
    assert [lvl["k"] for lvl in data["levels"]] == list(range(len(groups)))
    for lvl, group in zip(data["levels"], groups):
        args = ["--group", group, *same]
        want = [(o["label"], o["size"], o["genus"], [(c["label"], c["width"]) for c in o["cusps"]])
                for o in lvl["orbits"]]
        orbits = _json_run(capsys, "orbits", *args)["orbits"]
        genus = _json_run(capsys, "genus", *args)["orbits"]
        blocks = _json_run(capsys, "shinc", *args)["blocks"]
        assert want == [(o["orbit_label"], o["size"], g["genus"],
                         [(c["label"], c["width"]) for c in o["cusps"]])
                        for o, g in zip(orbits, genus)]
        assert want == [(g["orbit"], g["degree"], b["genus_report"]["genus"],
                         [(lab, w) for lab, w in zip(b["cusps"], g["cusp_widths"])])
                        for g, b in zip(genus, blocks)]
        assert [b["orbit"] for b in blocks] == [o[0] for o in want]


def test_genus_builds_each_orbit_gamma_maps_once(monkeypatch, capsys):
    """genus_of_component and moduli_flags both read an orbit's gamma maps."""
    maps = BraidOrbit.__dict__["gamma_maps"]
    build, built = maps.func, collections.Counter()

    def counted(orbit):
        built[orbit.label] += 1
        return build(orbit)

    monkeypatch.setattr(maps, "func", counted)
    assert run(["genus", *A4_ARGS, "--format", "json"]) == 0
    labels = [o["orbit"] for o in json.loads(out_of(capsys))["orbits"]]
    assert labels == ["O1", "O2"] and built == collections.Counter(labels)


def test_check_refuses_an_oversized_sample_before_any_draw(capsys):
    """100,000 samples, each conjugated by the 60 elements of A5, are above
    the table cap: about 70 s of work, refused at once."""
    start = time.monotonic()
    assert run(["check", "--group", "A5", "--classes", "[3a,3a,3a,3a]",
                "--sample-size", "100000"]) == 3
    assert time.monotonic() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: check conjugates 100000 samples by each of 60")
    assert err.count("\n") == 1 and len(err) < 160


def test_check_braid_relations_exit_zero(capsys):
    assert run(["check", "--group", "A5", "--classes", "[3a,3a,3a,3a]"]) == 0
    assert "all passed" in out_of(capsys)


def test_unknown_group_exits_2(capsys):
    assert run(["enumerate", "--group", "E8", "--classes", "[2a,2a]"]) == 2


def test_genus_without_reduced_mode_exits_2(capsys):
    assert run(["genus", *A4_ARGS, "--mode", "inner"]) == 2
    assert "reduced" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", [
    (["enumerate", *A4_ARGS], 0),
    (["genus", *A4_ARGS, "--mode", "inner"], 2),
    (["enumerate", "--group", "D1009", "--classes", "[2a,2a,2a,2a]"], 3),
    (["enumerate", *A4_ARGS, "--bogus"], SystemExit),  # argparse's usage error
])
def test_run_leaves_the_collector_as_it_found_it(argv, code, enabled, capsys, monkeypatch):
    """The cyclic collector is off during a run and, on every way out, back in
    the state the run found it in."""
    during = []
    enumerate_nielsen = cli.enumerate_nielsen
    monkeypatch.setattr(cli, "enumerate_nielsen", lambda *a, **kw:
                        during.append(gc.isenabled()) or enumerate_nielsen(*a, **kw))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                run(argv)
        else:
            assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([False] if code == 0 else [])


def test_orbit_cap_exits_3():
    assert run(["orbits", *A4_ARGS, "--orbit-cap", "2"]) == 3


def test_order_bound_exits_3():
    assert run(["enumerate", "--group", "SL2(9)", "--classes", "[3a,3a,3a]",
                "--order-bound", "50"]) == 3


def test_search_budget_exits_3(capsys):
    """The message echoes the 2,000 classes cut short."""
    assert run(["enumerate", "--group", "A4", "--classes", "[3ax2000]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: Nielsen search for '[3a,3a,") and err.count("\n") == 1
    assert len(err) < 160


@pytest.mark.parametrize("digits", [4000, 4300])
def test_level_zero_order_bound_exits_3_with_one_short_line(digits, capsys):
    """ell is echoed cut short and the order named by formula; 2*ell at 4,301
    digits has more than ``str`` converts, once a traceback."""
    ell = "9" * digits
    assert run(["tower", "--family", "dihedral", "--ell", ell, "--classes",
                "[2a,2a,2a,2a]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: level 0 of the dihedral tower at ell = 999")
    assert "order at least 2*ell" in err and err.count("\n") == 1 and len(err) < 160


LONG = "7" * 4000  # fewer digits than int() converts, but a name of 4,000 characters


def _cycle(n: int) -> str:
    """A cyclic group of order n named by its whole n-cycle."""
    return f"gens:[({','.join(map(str, range(1, n + 1)))})]"


@pytest.mark.parametrize("argv,code,start", [
    (["enumerate", "--group", f"D{LONG}", "--classes", "[2a,2a,2a,2a]"], 3,
     "budget exceeded: group closure for 'D777"),
    (["bcl", "--group", f"SL2({LONG})", "--classes", "[2a,2a]"], 3,
     "budget exceeded: group closure for 'SL2(777"),
    (["genus", "--group", f"V(2,{LONG}):M=[[0,-1],[1,-1]]", "--classes", "[3a,3a,3b,3b]",
      "--mode", "inner-reduced"], 3, "budget exceeded: group closure for 'V(2,777"),
    (["lift", *A4_ARGS, "--cover", f"heis({LONG})"], 2,
     "error: cover base group does not match --group ('V(2,777"),
    (["genus", "--group", _cycle(2001), "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
     3, "budget exceeded: multiplication table of 'gens:[(1,2,3"),
    # 300 class labels, of which the first few are listed
    (["enumerate", "--group", _cycle(300), "--classes", "[7z,7z]"], 2,
     "error: no class '7z' in 'gens:[(1,2,3"),
])
def test_long_group_names_are_echoed_cut_short(argv, code, start, capsys):
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1 and len(err) < 160


def test_an_int_flag_too_long_for_int_exits_2_with_a_short_echo(capsys):
    """argparse reports the flag; its value is echoed cut as in every message."""
    with pytest.raises(SystemExit) as exit_:
        run(["tower", "--family", "vector", "--ell", BIG, "--classes", "[3a,3a,3b,3b]"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last == ("hurwitz tower: error: argument --ell:"
                    " invalid int value: '999999999999...9999999999999'")
    assert len(err) < 400


def test_raw_search_budget_exits_3_before_the_inner_classes(capsys, monkeypatch):
    """Raw mode predicts every class member as a start: 8 * 8^2 = 512 nodes
    on A4 [3a,3a,3b,3b], against 2 * 8^2 = 128 in inner mode, and it checks
    that before it enumerates the inner classes it conjugates."""
    monkeypatch.setattr(hurwitz.nielsen, "SEARCH_NODE_CAP", 200)
    assert run(["enumerate", *A4_ARGS, "--mode", "inner"]) == 0
    capsys.readouterr()
    inner_calls = []
    enumerate_nielsen = hurwitz.nielsen.enumerate_nielsen
    monkeypatch.setattr(hurwitz.nielsen, "enumerate_nielsen",
                        lambda *args: inner_calls.append(args) or enumerate_nielsen(*args))
    assert run(["enumerate", *A4_ARGS, "--mode", "raw"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: Nielsen search") and "(8 starts" in err
    assert inner_calls == []


def test_reduced_search_budget_counts_one_start(capsys, monkeypatch):
    """A reduced search at r = 4 starts only from the least orbit minimum:
    on A4 [3a,3a,3b,3b] inner mode predicts 2 * 8^2 = 128 nodes and the
    inner-reduced mode 8^2 = 64."""
    monkeypatch.setattr(hurwitz.nielsen, "SEARCH_NODE_CAP", 100)
    assert run(["enumerate", *A4_ARGS, "--mode", "inner"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: Nielsen search") and "(2 starts" in err
    assert run(["enumerate", *A4_ARGS, "--mode", "inner-reduced"]) == 0


def test_d127_abs_reduced_is_x0_127(capsys):
    assert run(["genus", "--group", "D127", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced", "--format", "json"]) == 0
    (orbit,) = json.loads(out_of(capsys))["orbits"]
    assert (orbit["degree"], orbit["genus"], orbit["cusp_widths"]) == (128, 10, [127, 1])


def test_out_of_memory_exits_3_with_one_short_line(capsys, monkeypatch):
    """A run that runs out of memory, as an oversized report can, ends in
    exit 3 and one line, not a traceback."""
    def runner(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "enumerate", (*cli._COMMANDS["enumerate"][:3], runner))
    assert run(["enumerate", *A4_ARGS]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: out of memory") and err.count("\n") == 1
    assert len(err) < 160


def test_table_budget_exits_3_before_the_work(capsys):
    start = time.monotonic()
    assert run(["genus", "--group", "D1009", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert "D1009" in err and "above the cap" in err
    assert time.monotonic() - start < 5.0


# the 10 x 10 cyclic shift: an order-10 action whose determinant cofactor
# expansion took seconds
SHIFT10 = json.dumps([[int(j == (i + 1) % 10) for j in range(10)] for i in range(10)],
                     separators=(",", ":"))
# the companion matrix of x^20 + x^3 + 1 over Z/2, of determinant 1: 2^20 is
# above the order bound, and the determinant and the order of the action
# took 7.8 s before that was checked
COMPANION20 = json.dumps([[int(j == i + 1) for j in range(20)] for i in range(19)]
                         + [[int(j in (0, 3)) for j in range(20)]], separators=(",", ":"))


@pytest.mark.parametrize("argv,never", [
    (["bcl", "--group", "SL2(100000000)"], ["hurwitz.groups.FiniteGroup.close"]),
    (["genus", "--group", "D100000"], ["hurwitz.groups._unit_generators"]),
    (["genus", "--group", "D1000000"],
     ["hurwitz.groups._unit_generators", "hurwitz.groups._Dihedral"]),
    (["tower", "--family", "dihedral", "--ell", "1000000000039"],
     ["hurwitz.groups.dihedral", "hurwitz.tower._smallest_prime_factor"]),
    # ell = (10^9 + 7)(10^9 + 9): trial division would run to 10^9 + 7
    (["tower", "--family", "vector", "--ell", str((10**9 + 7) * (10**9 + 9))],
     ["hurwitz.tower._smallest_prime_factor"]),
    (["enumerate", "--group", f"V(10,3):M={SHIFT10}"], ["hurwitz.groups.FiniteGroup.close"]),
    (["tower", "--family", "vector", "--ell", "5", "--action", SHIFT10],
     ["hurwitz.tower._det_mod"]),
    (["bcl", "--group", f"V(20,2):M={COMPANION20}"],
     ["hurwitz.groups._det_mod", "hurwitz.groups._mat_order"]),
    (["bcl", "--group", "A100000"], ["hurwitz.groups.perm_from_cycles"]),
    (["bcl", "--group", "SL2(100000000000031)"], ["hurwitz.groups._smallest_prime_factor"]),
    # a repetition suffix past TABLE_ENTRY_CAP entries used to build the list first
    (["bcl", "--group", "A4", "--classes", "[3ax99999999999]"], ["hurwitz.groups.ClassVector"]),
])
def test_oversized_catalog_input_exits_before_the_work(argv, never, capsys, monkeypatch):
    """Each input ends in a one-line budget message, in well under the
    seconds its work would take; the spied routines, whose cost grows with
    the input, never run."""
    for target in never:
        def refused(*args, _target=target, **kw):
            raise AssertionError(f"{_target} ran before the guard")

        monkeypatch.setattr(target, refused)
    start = time.monotonic()
    classes = [] if "--classes" in argv else ["--classes", "[2a,2a,2a,2a]"]
    assert run([*argv, *classes]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert time.monotonic() - start < 5.0


ABS_REDUCED = ["--mode", "abs-reduced"]


@pytest.mark.parametrize("command", [["enumerate", *ABS_REDUCED], ["orbits", *ABS_REDUCED],
                                     ["shinc", *ABS_REDUCED], ["genus", *ABS_REDUCED],
                                     ["check"], ["lift", "--cover", "spin4", *ABS_REDUCED]])
def test_table_cap_fires_before_the_classes(command, capsys, monkeypatch):
    def no_classes(self):
        raise AssertionError("conjugacy classes computed before the table cap")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", no_classes)
    assert run([*command, "--group", "D1009", "--classes", "[2a,2a,2a,2a]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: multiplication table of 'D1009'")
    assert err.count("\n") == 1


@pytest.fixture
def classes_computed(monkeypatch):
    """The kind of every group whose conjugacy classes get computed."""
    computed = []
    on_any_group = FiniteGroup.conjugacy_classes

    def recorded(self):
        if self._classes is None:
            computed.append(type(self).__name__)
        return on_any_group(self)

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", recorded)
    return computed


@pytest.mark.parametrize("argv", [
    ["genus", "--group", "D37", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]",
     "--mode", "abs-reduced", "--k-max", "1"],
])
def test_classes_are_computed_on_the_indexed_view_only(argv, capsys, classes_computed):
    assert run([*argv, "--format", "json"]) == 0
    assert classes_computed and set(classes_computed) == {"IndexedGroup"}


def test_tower_level_zero_over_the_table_cap_exits_3_before_the_classes(capsys,
                                                                      classes_computed):
    assert run(["tower", "--family", "dihedral", "--ell", "1009", "--classes",
                "[2a,2a,2a,2a]", "--k-max", "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: multiplication table of 'D1009'")
    assert "above the cap" in err and err.count("\n") == 1
    assert set(classes_computed) <= {"IndexedGroup"}


@pytest.mark.parametrize("argv", [
    ["genus", "--group", "D1009", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["tower", "--family", "dihedral", "--ell", "1009", "--classes", "[2a,2a,2a,2a]",
     "--k-max", "0"],
    # S9 has a closed-form order, 9!, like every catalog group
    ["genus", "--group", "S9", "--classes", "[3a,3a,3a,3a]"],
])
def test_a_group_over_the_table_cap_is_never_listed(argv, capsys, monkeypatch):
    on_any_group = FiniteGroup.close

    def close(self, seed, stop_above=None):
        # D1009's normalizer generators close units in an SL2 group: allowed
        if self.kind == "permutation":
            raise AssertionError(f"{self.name} listed before the table cap")
        return on_any_group(self, seed, stop_above)

    monkeypatch.setattr(FiniteGroup, "close", close)
    assert run(argv) == 3
    name = "S9" if "S9" in argv else "D1009"
    assert capsys.readouterr().err.startswith(f"budget exceeded: multiplication table of '{name}'")


class _Declined(Exception):
    pass


def scanned(argv):
    """``_parse_args``'s own reading of argv, or None where it hands argv to
    argparse."""
    def declined(argv):
        raise _Declined

    with mock.patch.object(cli, "_build_parser", declined):
        try:
            return cli._parse_args(argv)
        except _Declined:
            return None


SCAN_VALUES = ["A4", "", "-", "--", "-5", "x", "3"]


@st.composite
def command_lines(draw):
    """A command and its exact flags, each value flag mostly with a value the
    scan takes, and at most one odd token anywhere: a flag prefix, an ``=``
    form, a bare value or ``-h``."""
    command = draw(st.sampled_from(sorted(cli._FLAGS)))
    flags = cli._FLAGS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(flags)), max_size=5)):
        kind = flags[flag][1]
        fitting = ["3"] if kind is int else ["A4", "", "x", "3"]
        argv += [flag] if kind is bool else [flag, draw(st.sampled_from(
            fitting * 3 + SCAN_VALUES))]
    odd = st.one_of(
        st.sampled_from(list(flags)).flatmap(
            lambda f: st.integers(3, len(f)).map(lambda n: f[:n])),
        st.tuples(st.sampled_from(list(flags)), st.sampled_from(SCAN_VALUES)).map("=".join),
        st.sampled_from([*SCAN_VALUES, "-h"]),
    )
    for token in draw(st.lists(odd, max_size=1)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["tower", "--ell", "3", "--frattini", "--k-max", "x", "--frattini"])
@example(argv=["genus", "--mode", "A4", "--mode", "", "--orbit-cap", "3"])
@example(argv=["check"])
def test_the_scan_reads_argv_as_argparse_does(argv):
    got = scanned(argv)
    if got is not None:
        expected = vars(cli._build_parser(argv).parse_args(argv))
        assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("argv", [
    ["genus", "--group", "D37", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"],
    ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]",
     "--mode", "abs-reduced", "--k-max", "1"],
    ["tower", "--family", "vector", "--ell", "2", "--action", "[[1,-3],[1,-2]]",
     "--classes", "[3a,3a,3b,3b]", "--k-max", "1", "--frattini"],
])
def test_exact_flags_build_no_parser(argv, capsys, monkeypatch):
    def no_parser(self, *args, **kwargs):
        raise AssertionError("an argument parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    assert run([*argv, "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["inputs"]["command"] == argv[0]


def test_importing_the_cli_loads_no_argparse_dataclasses_or_csv():
    unused = {"argparse", "gettext", "dataclasses", "inspect", "csv"}
    code = f"import sys, hurwitz.cli; print(sorted({unused!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "[]\n"


FUZZ_GROUPS = st.one_of(
    st.integers(3, 5).map("A{}".format),
    st.integers(2, 4).map("S{}".format),
    st.integers(3, 12).map("D{}".format),
    st.sampled_from(["gens:[(1,2,3),(2,3,4)]", "gens:[(1,2)(3,4),(1,3)]",
                     "V(2,5):M=[[0,-1],[1,-1]]"]),
)


@st.composite
def group_and_classes(draw):
    """A group descriptor and a class vector drawn mostly from its own class
    labels; at most four entries keep the largest search (raw mode on A5)
    near 10^5 nodes."""
    group = draw(FUZZ_GROUPS)
    labels = [c.label for c in make_group(group).conjugacy_classes()]
    items = draw(st.lists(st.sampled_from(labels * 4 + ["zz", "(1,2,3)"]),
                          min_size=2, max_size=4))
    return group, "[" + ",".join(items) + "]"


def config_values(integers):
    return st.one_of(integers, st.booleans(), st.text(max_size=4), st.none())


# config-file values of the integer keys: integers small enough to keep a run
# short (k_max <= 1 keeps a tower at two levels), booleans, strings and nulls;
# ``out`` gets anything but a string, so no run writes a file (its integers are
# negative or far above any open descriptor: open() takes an int as one)
FUZZ_KEYS = {
    **{key: config_values(st.integers(-3, 40))
       for key in ("order_bound", "orbit_cap", "seed", "sample_size")},
    "k_max": config_values(st.integers(-3, 1)),
    "out": st.one_of(st.integers(-3, -1), st.just(10**6),
                     st.lists(st.integers(0, 2), max_size=2), st.none()),
}
FUZZ_CONFIGS = st.fixed_dictionaries({}, optional=FUZZ_KEYS)
# the tower also reads ``action`` (a JSON string or a list of integer rows) and
# ``frattini`` (a boolean) from a config file
FUZZ_TOWER_CONFIGS = st.fixed_dictionaries({}, optional={
    **FUZZ_KEYS,
    "action": st.one_of(
        st.integers(-3, 3), st.none(),
        st.sampled_from(["[[0,-1],[1,-1]]", "[[0,1],[1,1]]", "[[0,-1],[1,-1.0]]", "5", "x"]),
        st.lists(st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=1), st.none()),
                          max_size=3), max_size=3),
    ),
    "frattini": st.one_of(st.booleans(), st.integers(0, 2),
                          st.lists(st.integers(0, 1), max_size=1), st.none()),
})


def run_with_config(argv, config):
    """Exit code and stderr of ``run(argv)`` with ``config`` as a config
    file, written as JSON unless it is already text."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config if isinstance(config, str) else json.dumps(config))
        with redirect_stdout(out), redirect_stderr(err):
            code = run([*argv, "--config", path])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["enumerate", "orbits", "shinc", "genus", "bcl", "check"]),
    group_classes=group_and_classes(),
    mode=st.sampled_from([m.value for m in Mode]),
    fmt=st.sampled_from(["text", "json", "csv"]),
    config=FUZZ_CONFIGS,
)
# a null used to reach the command as None and end in a traceback
@example(command="check", group_classes=("A4", "[3a,3a,3b,3b]"), mode="inner-reduced",
         fmt="text", config={"sample_size": None, "seed": None})
# an int ``out`` used to reach open() as a file descriptor
@example(command="bcl", group_classes=("A4", "[3a,3a,3b,3b]"), mode="inner-reduced",
         fmt="json", config={"out": -1})
def test_fuzzed_commands_exit_0_2_or_3_with_one_line(command, group_classes, mode, fmt,
                                                     config):
    group, classes = group_classes
    mode_flag = ["--mode", mode] if "--mode" in cli._FLAGS[command] else []
    code, err = run_with_config([command, "--group", group, "--classes", classes,
                                 *mode_flag, "--format", fmt], config)
    assert code in (0, 2, 3)
    assert err.count("\n") == (code != 0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    family_classes=st.sampled_from([("dihedral", "5", "[2a,2a,2a,2a]"),
                                    ("vector", "2", "[3a,3a,3b,3b]")]),
    mode=st.sampled_from(["inner-reduced", "absolute-reduced"]),
    config=FUZZ_TOWER_CONFIGS,
)
@example(family_classes=("dihedral", "5", "[2a,2a,2a,2a]"), mode="absolute-reduced",
         config={"k_max": None, "order_bound": None})
def test_fuzzed_tower_config_exits_0_2_or_3_with_one_line(family_classes, mode, config):
    family, ell, classes = family_classes
    code, err = run_with_config(["tower", "--family", family, "--ell", ell,
                                 "--classes", classes, "--mode", mode], config)
    assert code in (0, 2, 3)
    assert err.count("\n") == (code != 0)


def test_json_output_is_stable(capsys):
    args = ["orbits", *A4_ARGS, "--format", "json"]
    assert run(args) == 0
    first = out_of(capsys)
    assert run(args) == 0
    second = out_of(capsys)
    assert first == second
    data = json.loads(first)
    assert data["version"]
    assert data["inputs"]["group"] == "A4"
    assert [o["size"] for o in data["orbits"]] == [6, 9]


# keys and strings with non-ASCII text, quotes, backslashes and control characters
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\u00e9\u2603'), max_size=6)
JSON_LEAVES = st.one_of(
    JSON_TEXT, st.integers(), st.integers(min_value=2**63, max_value=2**80).map(lambda n: -n),
    st.integers(min_value=2**63, max_value=2**80), st.booleans(), st.none(), st.just(0.1),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(JSON_TEXT, inner, max_size=4),
), max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
@example(value={"": [], "b": {}, "a": [[], {}, ()], "é\"\n": [1, -2**64, True, None, 0.1]})
@example(value=[["x", "y"], [1, 2], [True, False], [None], [1, "x"], (3, 4)])
def test_json_writer_matches_json_dumps(value):
    """The report writer gives the bytes of json.dumps(sort_keys=True, indent=2)."""
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_csv_is_rfc4180(capsys):
    assert run(["orbits", *A4_ARGS, "--format", "csv"]) == 0
    out = out_of(capsys)
    assert "\r\n" in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "version"
    assert rows[1][0] == "inputs"
    json.loads(rows[1][1])  # the inputs cell is quoted JSON
    header = rows[2]
    assert header == ["orbit", "size", "cusp", "width", "rep"]
    assert len(rows) == 3 + 6  # six cusp rows across both orbits


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    assert run(["bcl", *A4_ARGS, "--format", "json", "--out", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["N_C"] == 3
    assert data["Q"] == [1, 2]
    assert data["rational_union"] is True


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": "D5", "classes": "[2a,2a,2a,2a]", "mode": "abs-reduced",
    }))
    assert run(["genus", "--config", str(cfg)]) == 0
    assert "degree 6" in out_of(capsys)
    # a flag wins over the config value
    assert run(["enumerate", "--config", str(cfg), "--mode", "inner-reduced",
                "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["mode"] == "inner-reduced"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "A4", "classses": "[3a]"}))
    assert run(["enumerate", "--config", str(cfg), "--classes", "[3a,3a,3a]"]) == 2


GENUS_D5 = ["genus", "--group", "D5", "--classes", "[2a,2a,2a,2a]", "--mode", "abs-reduced"]


def test_one_config_file_serves_every_command(tmp_path, capsys):
    """Keys of flags that ``genus`` lacks are type-checked, then ignored."""
    members = tmp_path / "m.json"
    config = {"members_file": str(members), "frattini": True, "k_max": 3, "cover": "spin4",
              "seed": 1, "family": "vector", "action": [[0, -1], [1, -1]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(GENUS_D5) == 0
    alone = out_of(capsys)
    assert run([*GENUS_D5, "--config", str(path)]) == 0
    assert capsys.readouterr() == (alone, "")
    assert not members.exists()


TOWER_V2 = ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
            "--k-max", "1"]


@pytest.mark.parametrize("argv", [
    # tower levels are gated by their closed-form orders and the table cap
    [*TOWER_V2, "--order-bound", "5"],
    [*TOWER_V2, "--orbit-cap", "1"],
    # these commands build no orbit
    ["enumerate", *A4_ARGS, "--orbit-cap", "1"],
    ["bcl", *A4_ARGS, "--orbit-cap", "1"],
    ["check", *A4_ARGS, "--orbit-cap", "1"],
    # bcl and check read no mode, check has one suite, and a tower's rank is
    # its action matrix's size
    ["bcl", *A4_ARGS, "--mode", "inner"],
    ["check", *A4_ARGS, "--mode", "inner"],
    ["check", *A4_ARGS, "--suite", "braid-relations"],
    [*TOWER_V2, "--t", "2"],
    ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]", "--t", "1"],
])
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_budget_keys_in_a_tower_config_are_checked_then_ignored(tmp_path, capsys):
    assert run(TOWER_V2) == 0
    alone = out_of(capsys)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order_bound": 5, "orbit_cap": 1}))
    assert run([*TOWER_V2, "--config", str(path)]) == 0
    assert capsys.readouterr() == (alone, "")
    assert run_with_config(TOWER_V2, {"orbit_cap": "x"}) == (
        2, "error: orbit-cap must be an integer, got 'x'\n")
    assert run_with_config(TOWER_V2, {"order_bound": [5]}) == (
        2, "error: order-bound must be an integer, got [5]\n")


@pytest.mark.parametrize("argv,config,message", [
    # another command's key, of the wrong type
    (GENUS_D5, {"cover": 3}, "cover must be a string, got 3"),
    (GENUS_D5, {"k_max": "x"}, "k-max must be an integer, got 'x'"),
    (GENUS_D5, {"frattini": 1}, "frattini must be true or false, got 1"),
    (GENUS_D5, {"action": [[0, "a"]]},
     "action must be a string or a list of integer rows, got [[0, 'a']]"),
    # a flag overrides the value, which is still checked
    (GENUS_D5, {"mode": 5}, "mode must be a string, got 5"),
    (["check", *A4_ARGS, "--seed", "2"], {"seed": "x"}, "seed must be an integer, got 'x'"),
    # keys that name no flag
    (GENUS_D5, {"command": "bcl"}, "unknown config key: 'command'"),
    (GENUS_D5, {"config": "other.json"}, "unknown config key: 'config'"),
    # keys of removed flags: the tower's rank is its action matrix's size,
    # and check runs its one suite
    (["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]"], {"t": 2},
     "unknown config key: 't'"),
    (["check", *A4_ARGS], {"suite": "braid-relations"}, "unknown config key: 'suite'"),
    (GENUS_D5, {"x" * 5000: 1}, "unknown config key: '" + "x" * 12 + "..." + "x" * 13 + "'"),
])
def test_config_rule_exits_2(argv, config, message):
    assert run_with_config(argv, config) == (2, f"error: {message}\n")


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config file: "),
    ("{", "config file is not valid JSON: "),
    ('["group", "A4"]', "config file must hold a JSON object"),
    pytest.param('{"seed": %s}' % BIG, "integer of 5000 digits is too long to read",
                 id="long-integer"),
    pytest.param('{"seed": %s}' % DEEP, "config file is not valid JSON: maximum recursion",
                 id="deep-nesting"),
])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert run(["enumerate", *A4_ARGS, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("text,message", [
    (None, "cannot read cover file: "),
    ("{", "cannot read cover file: "),
    ('["SL2(3)", "A4"]', "cover file must hold a JSON object"),
    ('{"source": "SL2(3)", "target": "A4"}', "cover file misses 'images'"),
    pytest.param('{"images": %s}' % BIG,
                 "cannot read cover file: integer of 5000 digits is too long to read",
                 id="long-integer"),
    pytest.param('{"images": %s}' % DEEP, "cannot read cover file: maximum recursion",
                 id="deep-nesting"),
])
def test_unreadable_cover_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cover.json"
    if text is not None:
        path.write_text(text)
    assert run(["lift", *A4_ARGS, "--cover", f"hom:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command,key", [
    ("tower", "order_bound"), ("tower", "orbit_cap"), ("tower", "k_max"),
    ("tower", "ell"), ("check", "seed"), ("check", "sample_size"),
])
def test_non_integer_config_value_exits_2(tmp_path, capsys, command, key):
    base = {"family": "vector", "ell": 2} if command == "tower" else {"group": "A4"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, "classes": "[3a,3a,3b,3b]", key: "x"}))
    assert run([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key.replace("_", "-") in err


# each used to end in a traceback (exit 1): a string function applied to an
# int, open() taking an int for a file descriptor, int() on a matrix entry
@pytest.mark.parametrize("argv,config", [
    (["enumerate"], {"group": "A4", "classes": 5}),
    (["enumerate"], {"group": 5, "classes": "[3a,3a,3b,3b]"}),
    (["lift", *A4_ARGS], {"cover": 5}),
    (["bcl", *A4_ARGS], {"out": 10**6}),
    (["orbits", *A4_ARGS], {"members_file": 10**6}),
    (["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
      "--action", '[[0,"a"],[1,1]]'], {}),
    (["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
      "--action", "5"], {}),
    # and two that no other test reached: --action that is not JSON, an unknown cover
    (["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
      "--action", "[[0,-1],[1,-1]"], {}),
    (["lift", *A4_ARGS, "--cover", "spin6"], {}),
    # an integer too long for int(), in the config file
    pytest.param(["check", *A4_ARGS], '{"seed": %s}' % BIG, id="long-integer"),
])
def test_wrong_type_inputs_exit_2(argv, config):
    code, err = run_with_config(argv, config)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cover", [
    {"source": 5, "target": "A4", "images": ["(2,3,4)", "(1,2,3)"]},
    {"source": "SL2(3)", "target": "A4", "images": [1, 2]},
])
def test_cover_file_with_wrong_types_exits_2(tmp_path, capsys, cover):
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps(cover))
    assert run(["lift", *A4_ARGS, "--cover", f"hom:{hom}"]) == 2
    assert capsys.readouterr().err.startswith("error: cover file needs strings")


@pytest.mark.parametrize("argv", [
    ["bcl", *A4_ARGS, "--out"],
    ["orbits", *A4_ARGS, "--members-file"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    assert run([*argv, str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bcl", *A4_ARGS, "--out"],
    ["orbits", *A4_ARGS, "--members-file"],
    ["enumerate", *A4_ARGS, "--config"],
    ["lift", *A4_ARGS, "--cover", "hom:"],
])
def test_long_missing_file_path_is_cut_in_the_message(tmp_path, capsys, argv):
    """A 3,000-character path is echoed cut short, after the OS error."""
    path = str(tmp_path) + ("/" + "d" * 99) * 30
    *head, last = argv
    assert run([*head, last + path] if last == "hom:" else [*argv, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "No such file or directory: '" in captured.err and len(captured.err) < 160


@pytest.mark.parametrize("argv", [
    ["enumerate", "--group", "V(2,5):M=[[1,0],[0,1]]", "--classes", "[5a,5a,5a]"],
    ["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "-1"],
])
def test_degenerate_inputs_exit_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _enumerate(group, classes):
    return ["enumerate", "--group", group, "--classes", classes]


# the input checks of the group catalog and of the element and class-vector
# parsers, each reached from the command line
@pytest.mark.parametrize("argv,message", [
    (_enumerate("A4", "[(1,2,5),3a,3b,3b]"), "symbol out of range 1..4"),
    (_enumerate("A4", "[(1,1,2),3a,3b,3b]"), "repeated symbol in cycle"),
    (_enumerate("A4", "[(1,2,3)(3,4),3a,3b,3b]"), "cycles are not disjoint"),
    (_enumerate("A4", "[(1,2,3)z,3a,3b,3b]"), "unexpected text in permutation"),
    (_enumerate("A4", "[(1,,2),3a,3b,3b]"), "bad cycle in permutation"),
    (_enumerate("A4", "3a,3a,3b,3b"), "class vector must be bracketed"),
    (_enumerate("A4", "[]"), "empty class vector"),
    (_enumerate("A4", "[3a]"), "class vector needs at least 2 entries"),
    (_enumerate("A2", "[1a,1a]"), "alternating group needs n >= 3"),
    (_enumerate("S1", "[1a,1a]"), "symmetric group needs n >= 2"),
    (_enumerate("D2", "[1a,1a]"), "dihedral group needs n >= 3"),
    (_enumerate("SL2(1)", "[1a,1a]"), "SL2 modulus must be at least 2"),
    (_enumerate("Heis(1)", "[1a,1a]"), "Heisenberg modulus must be at least 2"),
    (_enumerate("V(2,5):M=[[1,0]]", "[1a,1a]"), "action matrix must be 2x2"),
    (_enumerate("V(2,5):M=[[5,0],[0,1]]", "[1a,1a]"), "action matrix not invertible mod 5"),
    (_enumerate("SL2(3)", "[[[1,1],[0]],3a]"), "bad SL2 element"),
    (_enumerate("SL2(3)", "[[[1,1],[1,1]],3a]"), "has determinant != 1 mod 3"),
    (_enumerate("Heis(3)", "[[1,0],3a]"), "bad Heisenberg element"),
    (_enumerate("V(2,5):M=[[0,-1],[1,-1]]", "[[1,0],3a]"), "bad semidirect element"),
    (_enumerate("V(2,5):M=[[0,-1],[1,-1]]", "[[1|0],3a]"), "vector part of '[1|0]' must"),
    (_enumerate("V(0,5):M=[]", "[1a,1a]"), "lattice rank t must be at least 1, got 0"),
    (_enumerate("V(2,0):M=[[0,-1],[1,-1]]", "[1a,1a]"), "lattice modulus must be at least 2"),
    (_enumerate("V(2,1):M=[[0,-1],[1,-1]]", "[1a,1a]"), "lattice modulus must be at least 2"),
    (_enumerate('V(2,5):M=[["a",1],[0,1]]', "[1a,1a]"), "action matrix must be 2x2 with integer"),
    (_enumerate("V(2,5):M=[1,2]", "[1a,1a]"), "action matrix must be 2x2 with integer"),
    (_enumerate("V(2,5):M=[[0.5,1],[0,1]]", "[1a,1a]"), "action matrix must be 2x2 with integer"),
    (_enumerate("SL2(5)", '[[["a",2],[3,4]],3a]'), "bad SL2 element"),
    (_enumerate("Heis(5)", '[["a",1,1],3a]'), "bad Heisenberg element"),
    (_enumerate("V(2,5):M=[[0,-1],[1,-1]]", "[[1,,2|0],3a]"), "bad semidirect element"),
    (_enumerate("V(2,5):M=[[0,-1],[1,-1]]", "[[-|0],3a]"), "bad semidirect element"),
    (["genus", "--group", "A4", "--classes", "[3c,3a,3b,3b]"],
     "no class '3c' in 'A4'; its class labels are 1a, 2a, 3a, 3b"),
    (["tower", "--family", "vector", "--ell", "5", "--action", "[[2,0],[0,3]]",
      "--classes", "[3a,3a,3b,3b]"], "no class '3a' in"),
    # integers too long for int(), each once a ValueError traceback
    *((["bcl", "--group", group, "--classes", "[2a,2a]"], "integer of 5000 digits")
      for group in (f"A{BIG}", f"D{BIG}", f"SL2({BIG})", f"V(2,{BIG}):M=[[0,-1],[1,-1]]",
                    f"gens:[(1,{BIG})]")),
    (["bcl", "--group", "A4", "--classes", f"[3ax{BIG}]"], "integer of 5000 digits"),
    (_enumerate("V(2,5):M=[[0,-1],[1,-1]]", f"[[{BIG},0|0],3a,3b,3b]"), "integer of 5000"),
    (_enumerate(f"V(2,5):M=[[{BIG},-1],[1,-1]]", "[1a,1a]"), "integer of 5000 digits"),
    (["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
      "--action", f"[[{BIG},0],[0,1]]"], "integer of 5000 digits"),
    (["lift", *A4_ARGS, "--cover", f"heis({BIG})"], "integer of 5000 digits"),
    (_enumerate("A4", f"[(1,{BIG}),3a,3b,3b]"), "integer of 5000 digits"),
    # long input text is echoed cut short
    (_enumerate("A4", "[(1,2,3)" + "(3,4)" * 1000 + ",3a,3b,3b]"),
     "cycles are not disjoint: '(1,2,3)(3,4)"),
    (_enumerate("Q" * 5000, "[1a,1a]"), "cannot parse group descriptor 'QQQ"),
    (_enumerate("A4", f"[{BIG}a,3a,3b,3b]"), "no class '999"),
    (_enumerate("A4", "3" * 5000), "class vector must be bracketed: '333"),
    (_enumerate("SL2(3)", f"[[[{BIG},0],[0,1]],3a]"), "bad SL2 element: '[[999"),
    (["enumerate", *A4_ARGS, "--mode", "x" * 5000], "unknown equivalence mode 'xxx"),
    (["enumerate", *A4_ARGS, "--format", "x" * 5000], "unknown format: 'xxx"),
    (["lift", *A4_ARGS, "--cover", "x" * 5000], "unknown cover 'xxx"),
    (_enumerate("A4", "[2ax2000]"), "classes '[2a,2a,2a,2a...,2a,2a,2a,2a]' do not generate"),
    # JSON nested past the recursion limit used to end in a traceback
    (_enumerate("V(2,5):M=" + DEEP, "[1a,1a]"), "bad action matrix in 'V(2,5):M=[[["),
    (["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
      "--action", DEEP], "--action is not valid JSON: maximum recursion"),
    (_enumerate("SL2(3)", f"[{DEEP},3a]"), "bad SL2 element: '[[[["),
])
def test_input_checks_exit_2_with_one_line(argv, message, capsys):
    """Each message is one line and echoes at most about 30 characters of input."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err
    assert len(captured.err) < 140


@pytest.mark.parametrize("group", ["A7", "S7"])
def test_bcl_answers_above_the_table_cap(group, capsys):
    """``bcl`` computes the classes on data, so it answers for groups whose
    Cayley table is over the cap; the other commands exit 3."""
    argv = ["--group", group, "--classes", "[3a,3a,3a,3a]"]
    assert run(["bcl", *argv]) == 0
    assert out_of(capsys).splitlines()[2] == "N_C = 3; Q = [1, 2]; rational union: True"
    assert run(["enumerate", *argv]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: multiplication table")


VECTOR_TOWER = ["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]"]
DIHEDRAL_TOWER = ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]"]


# the rank is the action matrix's size, and a dihedral tower used to echo an
# action it never used
@pytest.mark.parametrize("argv,message", [
    ([*VECTOR_TOWER, "--action", "[]"], "rank t must be at least 1, got 0"),
    ([*VECTOR_TOWER, "--action", "5"], "action matrix must be a list of integer rows"),
    ([*VECTOR_TOWER, "--action", "[[0,-1],[1,-1],[0,0]]"], "action matrix must be 3x3"),
    ([*DIHEDRAL_TOWER, "--action", '[[0,"a"]]'], "no action matrix"),
    ([*DIHEDRAL_TOWER, "--action", "[[0,-1],[1,-1]]"], "no action matrix"),
])
def test_tower_rejects_rank_below_one_and_a_dihedral_action(argv, message, capsys):
    assert run([*argv, "--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("argv,header", [
    (["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
      "--k-max", "0"], "t=2 k_max=0 classes="),
    (["check", *A4_ARGS, "--sample-size", "2"], "seed=0 sample_size=2"),
])
def test_inputs_echo_integer_zero(argv, header, capsys):
    assert run(argv) == 0
    assert header in out_of(capsys).splitlines()[1]


def test_lift_subcommand(capsys):
    assert run(["lift", *A4_ARGS, "--cover", "spin4"]) == 0
    out = out_of(capsys)
    assert "O1 (size 6)" in out and "obstructed" in out
    assert "O2 (size 9)" in out and "unobstructed" in out


NON_COMPANION = "V(2,5):M=[[4,-7],[3,-5]]"


@pytest.mark.parametrize("group,classes,cover,message", [
    ("A5", "[3a,3a,3a,3a]", "spin4", "spin4 covers A4 on 4 points, not 'A5'"),
    ("A4", "[3a,3a,3b,3b]", "spin5", "spin5 covers A5 on 5 points, not 'A4'"),
    ("A4", "[3a,3a,3b,3b]", "heis(5)",
     "cover base group does not match --group ('V(2,5)' vs 'A4')"),
    (NON_COMPANION, "[3a,3a,3b,3b]", "heis(7)",
     "cover base group does not match --group ('V(2,7)' vs 'V(2,5)')"),
    ("A4", "[3a,3a,3b,3b]", "hom:", "cover base group does not match --group ('A5' vs 'A4')"),
])
def test_lift_base_mismatch_exits_2(tmp_path, capsys, group, classes, cover, message):
    """Every cover is built over --group, so a cover of another group exits 2
    with one line; a ``hom:`` file here names SL2(5) over A5."""
    if cover == "hom:":
        cover = _hom_file(tmp_path, "SL2(5)", "A5", ["(1,2,3,4,5)", "(1,2,4,5,3)"])
    assert run(["lift", "--group", group, "--classes", classes, "--cover", cover]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _hom_file(tmp_path, source: str, target: str, images: list) -> str:
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({"source": source, "target": target, "images": images}))
    return f"hom:{hom}"


@pytest.mark.parametrize("argv,built", [
    (["lift", *A4_ARGS, "--cover", "spin4"], ["A4", "SL2(3)"]),
    (["lift", "--group", "A5", "--classes", "[3a,3a,3a,3a,3a]", "--mode", "inner",
      "--cover", "spin5"], ["A5", "SL2(5)"]),
    (["lift", "--group", NON_COMPANION, "--classes", "[3a,3a,3b,3b]", "--cover", "heis(5)"],
     [NON_COMPANION]),
    # a hom: file (SL2(3) over A4) names its source and its target, which is
    # compared with --group
    (["lift", *A4_ARGS, "--cover", "hom:"], ["A4", "SL2(3)", "A4"]),
    (["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
      "--k-max", "0"], ["V(2,5):M=[[0,4],[1,4]]"]),
    (["tower", "--family", "vector", "--ell", "7", "--action", "[[1,-3],[1,-2]]",
      "--classes", "[3a,3a,3b,3b]", "--k-max", "0"], ["V(2,7):M=[[1,4],[1,5]]"]),
])
def test_every_cover_is_built_over_the_command_group(argv, built, tmp_path, monkeypatch,
                                                     capsys):
    """One ``make_group`` call per group a run names, and every invariant is
    taken in a cover whose base is the command's or the level's group object."""
    hom = _hom_file(tmp_path, "SL2(3)", "A4", ["(2,3,4)", "(1,2,3)"])
    argv = [hom if a == "hom:" else a for a in argv]
    made, covers = [], []
    make, lift = make_group, hurwitz.lift.lift_invariant

    def recorded_make(descriptor, *args, **kw):
        made.append((descriptor, make(descriptor, *args, **kw)))
        return made[-1][1]

    def recorded_lift(ext, t):
        covers.append(ext)
        return lift(ext, t)

    for module in (hurwitz.cli, hurwitz.lift, hurwitz.tower):
        monkeypatch.setattr(module, "make_group", recorded_make)
    monkeypatch.setattr(hurwitz.cli, "lift_invariant", recorded_lift)
    monkeypatch.setattr(hurwitz.tower, "lift_invariant", recorded_lift)
    assert run(argv) == 0
    assert [d for d, _g in made] == built
    assert covers and all(ext.base is made[0][1] for ext in covers)


def test_lift_heis_follows_the_group_action(capsys):
    assert run(["lift", "--group", NON_COMPANION, "--classes", "[3a,3a,3b,3b]",
                "--cover", "heis(5)", "--format", "json"]) == 0
    entries = json.loads(out_of(capsys))["orbit_invariants"]
    nontrivial = [e["invariant"] for e in entries if not e["trivial"]]
    assert len(entries) == 5
    assert len(nontrivial) == 4 and len(set(nontrivial)) == 4


def test_lift_cover_with_other_multiplication_exits_2(tmp_path, capsys):
    companion = "V(2,5):M=[[0,-1],[1,-1]]"
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({
        "source": companion,
        "target": companion,
        "images": ["[1,0|0]", "[0,1|0]", "[0,0|1]"],
    }))
    assert run(["lift", "--group", NON_COMPANION, "--classes", "[3a,3a,3b,3b]",
                "--cover", f"hom:{hom}"]) == 2
    assert "cover base group does not match" in capsys.readouterr().err


def test_lift_checks_the_cover_before_the_search(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("enumerate_nielsen ran before the cover check")

    monkeypatch.setattr("hurwitz.cli.enumerate_nielsen", no_search)
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({
        "source": "V(2,5):M=[[0,-1],[1,-1]]",
        "target": "V(2,5):M=[[0,-1],[1,-1]]",
        "images": ["[1,0|0]", "[0,1|0]", "[0,0|1]"],
    }))
    assert run(["lift", "--group", NON_COMPANION, "--classes", "[3a,3a,3b,3b]",
                "--cover", f"hom:{hom}"]) == 2


def test_lift_computes_each_invariant_once(monkeypatch, capsys):
    import hurwitz.lift

    calls = []
    original = hurwitz.lift.lift_invariant

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr("hurwitz.lift.lift_invariant", counted)
    monkeypatch.setattr("hurwitz.cli.lift_invariant", counted)
    assert run(["lift", *A4_ARGS, "--cover", "spin4"]) == 0
    assert "O1 (size 6)" in out_of(capsys)
    assert len(calls) == 2


def test_lift_hom_cover(tmp_path, capsys):
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({
        "source": "SL2(3)",
        "target": "A4",
        "images": ["(2,3,4)", "(1,2,3)"],
    }))
    assert run(["lift", *A4_ARGS, "--cover", f"hom:{hom}",
                "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["kernel_order"] == 2
    by_label = {e["orbit"]: e["trivial"] for e in data["orbit_invariants"]}
    assert by_label == {"O1": False, "O2": True}


@pytest.mark.parametrize("source,group,classes,images,message", [
    ("gens:[(1,2)]", "gens:[(1,2)(3,4)]", "[2a,2a,2a,2a]", ["(1,3)"],
     "image of generator 1 is not an element of 'gens:[(1,2)(3,4)]'"),
    ("gens:[(1,2,3),(1,2,3)]", "gens:[(1,2,3),(1,2,3)]", "[3a,3a,3b]",
     ["(1,2,3)", "(1,3,2)"], "generator images do not define a homomorphism"),
])
def test_lift_hom_cover_with_bad_images_exits_2(tmp_path, capsys, source, group,
                                                classes, images, message):
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({"source": source, "target": group, "images": images}))
    assert run(["lift", "--group", group, "--classes", classes,
                "--cover", f"hom:{hom}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_lift_hom_cover_that_is_not_onto_exits_2(tmp_path, capsys):
    hom = tmp_path / "cover.json"
    hom.write_text(json.dumps({"source": "SL2(3)", "target": "A4", "images": ["()", "()"]}))
    assert run(["lift", *A4_ARGS, "--cover", f"hom:{hom}"]) == 2
    assert capsys.readouterr().err == "error: central extension projection must be onto\n"


def test_tower_subcommand_json(capsys):
    assert run(["tower", "--family", "vector", "--ell", "2",
                "--classes", "[3a,3a,3b,3b]", "--k-max", "1",
                "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["spec"]["ell"] == 2
    assert len(data["levels"]) == 2
    parents = {tuple(e[1]) for e in data["edges"]}
    assert parents == {(0, "O1"), (0, "O2")}


def test_members_file(tmp_path, capsys):
    members = tmp_path / "members.json"
    assert run(["orbits", *A4_ARGS, "--format", "json",
                "--members-file", str(members)]) == 0
    data = json.loads(out_of(capsys))
    assert all(o["members_file"] == str(members) for o in data["orbits"])
    blob = json.loads(members.read_text())
    assert {k: len(v) for k, v in blob.items()} == {"O1": 6, "O2": 9}


NO_WORK = ["hurwitz.cli.make_group", "hurwitz.tower.make_group", "hurwitz.cli.enumerate_nielsen",
           "hurwitz.tower.enumerate_nielsen"]
A7_ARGS = ["--group", "A7", "--classes", "[3a,3a,3a,3a]"]


@pytest.mark.parametrize("argv,message", [
    (["genus", *A7_ARGS, "--mode", "bogus"], "unknown equivalence mode 'bogus'"),
    (["enumerate", *A7_ARGS, "--mode", "bogus"], "unknown equivalence mode 'bogus'"),
    ([*DIHEDRAL_TOWER, "--mode", "bogus"], "unknown equivalence mode 'bogus'"),
    (["lift", *A7_ARGS, "--cover", "bogus"], "unknown cover 'bogus'"),
    (["lift", "--group", "D625", "--classes", "[2a,2a,2a,2a]", "--cover", "bogus"],
     "unknown cover 'bogus'"),
    (["genus", *A7_ARGS, "--mode", "inner"], "genus_of_component needs a reduced-mode orbit"),
    (["genus", "--group", "D625", "--classes", "[2a,2a,2a,2a]", "--mode", "inner"],
     "genus_of_component needs a reduced-mode orbit"),
    (["shinc", *A7_ARGS, "--mode", "absolute"], "sh_incidence needs a reduced-mode orbit"),
    (["genus", "--group", "A7", "--classes", "[3a,3a,3a]"], "needs r = 4, got r = 3"),
    # D5 [2a,2a,2a] used to exit 0 with no orbits
    (["genus", "--group", "D5", "--classes", "[2a,2a,2a]", "--mode", "inner"],
     "genus_of_component needs a reduced-mode orbit"),
    (["genus", "--group", "D5", "--classes", "[2a,2a,2a]"], "needs r = 4, got r = 3"),
    (["shinc", "--group", "D625", "--classes", "[2ax3]"], "sh_incidence needs r = 4, got r = 3"),
    (["shinc", *A7_ARGS[:3], "[3a,3ax4]"], "sh_incidence needs r = 4, got r = 5"),
])
def test_bad_inputs_exit_2_before_any_group(argv, message, capsys, monkeypatch):
    """A bad mode or cover selector, and a genus or shinc run off a reduced
    mode or r = 4, exit 2 before any group is built: on A7, whose table is
    over the cap, too."""
    for target in NO_WORK:
        def refused(*args, _target=target, **kw):
            raise AssertionError(f"{_target} ran before the input check")

        monkeypatch.setattr(target, refused)
    start = time.monotonic()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert time.monotonic() - start < 0.1


def test_unknown_format_exits_2():
    assert run(["enumerate", *A4_ARGS, "--format", "yaml"]) == 2


def test_missing_classes_exits_2(capsys):
    assert run(["enumerate", "--group", "A4"]) == 2
    assert "--classes" in capsys.readouterr().err
