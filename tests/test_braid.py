import ast
import json

import pytest

import hurwitz.braid
from hurwitz import cli
from hurwitz.braid import (
    apply_qi,
    apply_sh,
    braid_orbits,
    cusp_orbits,
    verify_braid_relations,
)
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.geometry import genus_of_component
from hurwitz.groups import TABLE_ENTRY_CAP, IndexedGroup, make_group, parse_class_vector
from hurwitz.nielsen import Mode, NielsenClassSet, canonicalize, enumerate_nielsen
from reference_routines import apply_qi_inv


def test_qi_roundtrip(a4, a4_ni):
    t = a4_ni.reps[0]
    for i in (1, 2, 3):
        assert apply_qi_inv(a4, apply_qi(a4, t, i), i) == t
    twisted = apply_qi(a4, t, 1)
    assert twisted[1] == t[0]  # the twist moves g1 into slot 2


def test_qi_validates_position(a4, a4_ni):
    t = a4_ni.reps[0]
    with pytest.raises(ValidationError):
        apply_qi(a4, t, 0)
    with pytest.raises(ValidationError):
        apply_qi(a4, t, 4)


def test_sh_rotates(a4, a4_ni):
    t = a4_ni.reps[0]
    assert apply_sh(a4, t) == t[1:] + t[:1]
    s = t
    for _ in range(4):
        s = apply_sh(a4, s)
    assert s == t


def test_a4_orbit_sizes_and_labels(a4_orbits):
    assert [o.label for o in a4_orbits] == ["O1", "O2"]
    assert [o.size for o in a4_orbits] == [6, 9]


def test_a4_cusp_widths(a4_orbits):
    widths = [tuple(c.width for c in o.cusps()) for o in a4_orbits]
    assert widths[0] == (4, 1, 1)
    assert widths[1] == (4, 3, 2)
    labels = [c.label for c in a4_orbits[1].cusps()]
    assert labels == ["O_{2,1}^4", "O_{2,2}^3", "O_{2,3}^2"]


def test_cusp_orbits_partition_the_orbit(a4_orbits):
    for o in a4_orbits:
        members = [t for c in cusp_orbits(o) for t in c.members]
        assert sorted(members) == sorted(o.members)


def test_orbit_membership_index(a4_orbits):
    o = a4_orbits[0]
    assert o.rep == o.members[0]


def test_orbit_cap(a4_ni):
    with pytest.raises(BudgetError):
        braid_orbits(a4_ni, orbit_cap=3)


def test_unreduced_orbits_project_onto_reduced(a4, a4_cv, a4_orbits):
    inner = enumerate_nielsen(a4, a4_cv, Mode.INNER)
    unreduced = braid_orbits(inner)
    assert sorted(o.size for o in unreduced) == [12, 18]


@pytest.mark.parametrize(
    "desc,classes",
    [
        ("A4", "[3a,3a,3b,3b]"),
        ("D5", "[2a,2a,2a,2a]"),
        ("A5", "[3a,3a,3a,3a]"),
    ],
)
def test_braid_relations(desc, classes):
    g = make_group(desc)
    cv = parse_class_vector(g, classes)
    report = verify_braid_relations(g, cv, sample_size=20, seed=11)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, failing


def test_braid_relations_bound_their_work_before_the_first_draw(a4, a4_cv, monkeypatch):
    """Each sample is conjugated by every element: above the table cap on
    samples times |G| the check raises before any tuple is drawn."""
    def fail(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(hurwitz.braid, "random_nielsen_tuple", fail)
    with pytest.raises(BudgetError, match="above the cap"):
        verify_braid_relations(a4, a4_cv, sample_size=TABLE_ENTRY_CAP // a4.order + 1)


@pytest.mark.parametrize("sample_size", [0, -1])
def test_braid_relations_refuse_an_empty_sample(a4, a4_cv, sample_size):
    """No sampled tuple would make every relation pass vacuously."""
    with pytest.raises(ValidationError, match="sample_size must be positive"):
        verify_braid_relations(a4, a4_cv, sample_size=sample_size)


def test_orbits_report_lists_each_orbit_and_its_cusps(capsys):
    assert cli.run(["orbits", "--group", "A4", "--classes", "[3a,3a,3b,3b]",
                    "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)["orbits"][0]
    assert d["orbit_label"] == "O1"
    assert d["size"] == 6
    assert [c["width"] for c in d["cusps"]] == [4, 1, 1]


def test_genus_report_is_built_once_per_orbit(a4, a4_cv, monkeypatch):
    """The orbit record keeps its genus report: two reads, one call."""
    calls = []

    def spy(orbit):
        calls.append(orbit.label)
        return genus_of_component(orbit)

    monkeypatch.setattr(hurwitz.braid, "genus_of_component", spy)
    orbits = braid_orbits(enumerate_nielsen(a4, a4_cv, Mode.INNER_REDUCED))
    for o in orbits:
        assert o.genus_report is o.genus_report
        assert o.genus_report == genus_of_component(o)
    assert calls == [o.label for o in orbits]


@pytest.mark.parametrize("desc,classes,mode", [
    ("A4", "[3a,3a,3b,3b]", Mode.INNER),
    ("S4", "[2b,2b,2b,2b,3a]", Mode.ABSOLUTE_REDUCED),
])
def test_genus_report_is_none_without_the_klein_action(group_and_classes, desc, classes,
                                                      mode):
    """Off a reduced mode, or at r != 4, an orbit has no genus report."""
    g, cv = group_and_classes(desc, classes)
    orbits = braid_orbits(enumerate_nielsen(g, cv, mode))
    assert orbits and all(o.genus_report is None for o in orbits)


PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.mark.parametrize("desc,classes,mode", [
    ("A4", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("A4", "[3a,3a,3b,3b]", Mode.RAW),
    ("A5", "[3a,3a,5a]", Mode.ABSOLUTE),
    *((f"D{p}", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED) for p in PRIMES),
    # q1 is derived from q2 and sh in every mode
    ("A4", "[3a,3a,3b,3b]", Mode.INNER),
    ("S4", "[2b,2b,2b,2b,3a]", Mode.ABSOLUTE_REDUCED),
    ("A5", "[3a,3a,3a,3a,3a]", Mode.ABSOLUTE),
    # the Klein-map lookups at 1,920 classes, and X_1(13) beside X_0(13)
    ("vector l=2 level 2", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("D13", "[2a,2a,2a,2a]", Mode.INNER_REDUCED),
])
def test_moves_are_direct_moves_then_canonical_forms(group_and_classes, desc, classes, mode):
    g, cv = group_and_classes(desc, classes)
    ni = enumerate_nielsen(g, cv, mode)
    assert desc != "vector l=2 level 2" or ni.count == 1920
    q1, q2, sh = ni.moves()
    for i, t in enumerate(ni.reps):
        assert ni.reps[q1[i]] == canonicalize(g, apply_qi(g, t, 1), mode, cv)
        assert ni.reps[q2[i]] == canonicalize(g, apply_qi(g, t, 2), mode, cv)
        assert ni.reps[sh[i]] == canonicalize(g, apply_sh(g, t), mode, cv)
    if cv.r == 4 and mode.reduced:
        # gamma0 = q1 q2, gamma1 = q1 q2 q1 and gammainf = q2, left factor
        # first: gamma0^3 = 1 and gamma0 gamma1 gammainf = 1 on every member
        def gamma0(i):
            return q2[q1[i]]

        def gamma1(i):
            return q1[q2[q1[i]]]

        for i in range(ni.count):
            assert gamma0(gamma0(gamma0(i))) == i
            assert q2[gamma1(gamma0(i))] == i


@pytest.mark.parametrize("mode", [Mode.RAW, Mode.INNER, Mode.ABSOLUTE_REDUCED])
def test_reports_never_build_the_data_view(monkeypatch, capsys, mode):
    """Reports format the stored index tuples; the data view ``reps`` is
    built only when a caller reads it."""
    built = []

    def kept(*args, **kwargs):
        built.append(enumerate_nielsen(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "enumerate_nielsen", kept)
    for command in ("enumerate", "orbits"):
        assert cli.run([command, "--group", "A4", "--classes", "[3a,3a,3b,3b]",
                        "--mode", mode.value, "--format", "json"]) == 0
    assert len(built) == 2 and all("reps" not in ni.__dict__ for ni in built)


def test_members_are_the_data_at_their_positions(a4, a4_cv):
    ni = enumerate_nielsen(a4, a4_cv, Mode.INNER)
    ix = a4.indexed()
    for o in braid_orbits(ni):
        for x in (o, *o.cusps()):
            assert x.members == tuple(map(ix.to_data, (ni.tuples[p] for p in x.positions)))
            assert x.members == tuple(ni.reps[p] for p in x.positions)
            assert x.rep == x.members[0]


def test_moves_outside_the_set_are_an_error(a4, a4_cv, a4_ni):
    partial = NielsenClassSet(a4, a4_cv, a4_ni.mode, a4_ni.tuples[:1], a4_ni.action)
    with pytest.raises(ValidationError, match="left the enumerated Nielsen set"):
        partial.moves()


def test_sh_that_is_not_an_involution_is_an_error(a4, a4_cv, a4_ni):
    """sh^2 lies in the reduction group, so a reduced r = 4 set whose sh
    images are not paired off is inconsistent; here a Klein map sending
    every form to the first makes sh send the first two members to the
    first."""
    collapsed = dict.fromkeys(a4_ni.klein, a4_ni.tuples[0])
    broken = NielsenClassSet(a4, a4_cv, a4_ni.mode, a4_ni.tuples, a4_ni.action, collapsed)
    with pytest.raises(ValidationError, match="sh is not an involution"):
        broken.moves()


def _qi_conjugating_the_wrong_way(group, t, i):
    """(a, b) -> (a^-1 b a, a): unlike a plain swap, this breaks the
    relations other than the braid relation, sh-conjugation and sh^r."""
    j = i - 1
    a, b = t[j], t[j + 1]
    return t[:j] + (group.conj(b, a), a) + t[j + 2:]


def test_a_broken_twist_fails_the_checks_it_breaks_with_data_witnesses(capsys, monkeypatch):
    monkeypatch.setattr(hurwitz.braid, "_qi", _qi_conjugating_the_wrong_way)
    g = make_group("A5")
    report = verify_braid_relations(g, parse_class_vector(g, "[3a,3a,3a,3a]"), sample_size=5)
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {
        "moves preserve product-one, classes, generation",
        "q_i q_i^-1 = id and sh^r = id",
        "R_H = q_1..q_{r-1} q_{r-1}..q_1 acts by conjugation",
        "R_H fixes inner classes",
        "gamma0^3 = 1 on reduced classes",
        "gamma0 gamma1 gammainf = 1 on reduced classes",
    }
    elements = set(g.elements)
    for c in report.checks:
        if c.passed:
            assert c.details == ""
            continue
        witnesses = c.details.split("; ")
        assert 1 <= len(witnesses) <= 3
        for w in witnesses:  # each names its tuple as element data
            t = ast.literal_eval(w[w.index("("):])
            assert w.endswith(repr(t)) and len(t) == 4 and set(t) <= elements

    assert cli.run(["check", "--group", "A5", "--classes", "[3a,3a,3a,3a]",
                    "--sample-size", "5"]) == 2
    assert capsys.readouterr().err == "error: property suite reported violations\n"


def test_a_passing_check_converts_no_tuple(monkeypatch, capsys):
    """The suite computes on the indexed view from the first draw to the
    last comparison; element data is read only for a failure's witness."""
    calls = []
    for name in ("to_data", "to_index"):
        method = getattr(IndexedGroup, name)
        monkeypatch.setattr(IndexedGroup, name,
                            lambda self, t, name=name, method=method:
                            calls.append(name) or method(self, t))
    assert cli.run(["check", "--group", "D5", "--classes", "[2a,2a,2a,2a]"]) == 0
    assert calls == []
