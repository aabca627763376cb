import pytest

from hurwitz.braid import (
    apply_qi,
    apply_qi_inv,
    apply_sh,
    braid_orbits,
    cusp_orbits,
    verify_braid_relations,
)
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import Mode, NielsenClassSet, canonicalize, enumerate_nielsen


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


def test_orbit_to_dict(a4_orbits):
    d = a4_orbits[0].to_dict()
    assert d["orbit_label"] == "O1"
    assert d["size"] == 6
    assert [c["width"] for c in d["cusps"]] == [4, 1, 1]


PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.mark.parametrize("desc,classes,mode", [
    ("A4", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("A4", "[3a,3a,3b,3b]", Mode.RAW),
    ("A5", "[3a,3a,5a]", Mode.ABSOLUTE),
    *((f"D{p}", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED) for p in PRIMES),
])
def test_moves_are_direct_moves_then_canonical_forms(desc, classes, mode):
    g = make_group(desc)
    cv = parse_class_vector(g, classes)
    ni = enumerate_nielsen(g, cv, mode)
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


def test_moves_outside_the_set_are_an_error(a4, a4_cv, a4_ni):
    partial = NielsenClassSet(a4, a4_cv, a4_ni.mode, a4_ni.reps[:1], a4_ni.action)
    with pytest.raises(ValidationError, match="left the enumerated Nielsen set"):
        partial.moves()
