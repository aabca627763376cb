import csv
import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurwitz.nielsen
from hurwitz.cli import run
from hurwitz.groups import FiniteGroup, make_group
from hurwitz.nielsen import Mode

A4_ARGS = ["--group", "A4", "--classes", "[3a,3a,3b,3b]"]


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


def test_check_braid_relations_exit_zero(capsys):
    assert run(["check", "--suite", "braid-relations", "--group", "A5",
                "--classes", "[3a,3a,3a,3a]"]) == 0
    assert "all passed" in out_of(capsys)


def test_unknown_group_exits_2(capsys):
    assert run(["enumerate", "--group", "E8", "--classes", "[2a,2a]"]) == 2


def test_genus_without_reduced_mode_exits_2(capsys):
    assert run(["genus", *A4_ARGS, "--mode", "inner"]) == 2
    assert "reduced" in capsys.readouterr().err


def test_orbit_cap_exits_3():
    assert run(["orbits", *A4_ARGS, "--orbit-cap", "2"]) == 3


def test_order_bound_exits_3():
    assert run(["enumerate", "--group", "SL2(9)", "--classes", "[3a,3a,3a]",
                "--order-bound", "50"]) == 3


def test_search_budget_exits_3(capsys):
    assert run(["enumerate", "--group", "A4", "--classes", "[3ax2000]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1


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


def test_d127_abs_reduced_is_x0_127(capsys):
    assert run(["genus", "--group", "D127", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced", "--format", "json"]) == 0
    (orbit,) = json.loads(out_of(capsys))["orbits"]
    assert (orbit["degree"], orbit["genus"], orbit["cusp_widths"]) == (128, 10, [127, 1])


def test_table_budget_exits_3_before_the_work(capsys):
    start = time.monotonic()
    assert run(["genus", "--group", "D1009", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and err.count("\n") == 1
    assert "D1009" in err and "above the cap" in err
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("command", [["enumerate"], ["orbits"], ["shinc"], ["genus"],
                                     ["check"], ["lift", "--cover", "spin4"]])
def test_table_cap_fires_before_the_classes(command, capsys, monkeypatch):
    def no_classes(self):
        raise AssertionError("conjugacy classes computed before the table cap")

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", no_classes)
    assert run([*command, "--group", "D1009", "--classes", "[2a,2a,2a,2a]",
                "--mode", "abs-reduced"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: multiplication table of D1009")
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
    assert err.startswith("budget exceeded: multiplication table of D1009")
    assert "above the cap" in err and err.count("\n") == 1
    assert set(classes_computed) <= {"IndexedGroup"}


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
    """Exit code and stderr of ``run(argv)`` with ``config`` as a config file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
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
    code, err = run_with_config([command, "--group", group, "--classes", classes,
                                 "--mode", mode, "--format", fmt], config)
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


@pytest.mark.parametrize("command,key", [
    ("tower", "order_bound"), ("tower", "orbit_cap"), ("tower", "k_max"),
    ("tower", "t"), ("tower", "ell"), ("check", "seed"), ("check", "sample_size"),
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
    ["enumerate", "--group", "V(2,5):M=[[1,0],[0,1]]", "--classes", "[5a,5a,5a]"],
    ["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]",
     "--k-max", "-1"],
])
def test_degenerate_inputs_exit_2(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


VECTOR_TOWER = ["tower", "--family", "vector", "--ell", "5", "--classes", "[3a,3a,3b,3b]"]
DIHEDRAL_TOWER = ["tower", "--family", "dihedral", "--ell", "5", "--classes", "[2a,2a,2a,2a]"]


# --t 0 used to build the rank-2 tower, and a dihedral tower used to echo an
# action and a rank it never used
@pytest.mark.parametrize("argv,message", [
    ([*VECTOR_TOWER, "--t", "0"], "rank t must be at least 1, got 0"),
    ([*VECTOR_TOWER, "--t", "-1"], "rank t must be at least 1, got -1"),
    ([*DIHEDRAL_TOWER, "--action", '[[0,"a"]]'], "no action matrix"),
    ([*DIHEDRAL_TOWER, "--action", "[[0,-1],[1,-1]]"], "no action matrix"),
    ([*DIHEDRAL_TOWER, "--t", "5"], "no lattice rank"),
    ([*DIHEDRAL_TOWER, "--t", "1"], "no lattice rank"),
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


def test_lift_base_mismatch_exits_2():
    assert run(["lift", "--group", "A5", "--classes", "[3a,3a,3a,3a]",
                "--cover", "spin4"]) == 2


NON_COMPANION = "V(2,5):M=[[4,-7],[3,-5]]"


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
     "image of generator 1 is not an element of gens:[(1,2)(3,4)]"),
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


def test_unknown_suite_exits_2():
    assert run(["check", "--suite", "everything", *A4_ARGS]) == 2


def test_unknown_format_exits_2():
    assert run(["enumerate", *A4_ARGS, "--format", "yaml"]) == 2


def test_missing_classes_exits_2(capsys):
    assert run(["enumerate", "--group", "A4"]) == 2
    assert "--classes" in capsys.readouterr().err
