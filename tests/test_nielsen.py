import itertools
import random
from math import gcd

import pytest

from hurwitz.errors import ValidationError
from hurwitz.groups import (
    ClassVector,
    PermutationGroup,
    _preserves_class_multiset,
    make_group,
    parse_class_vector,
    perm_mul,
)
from hurwitz.nielsen import (
    Mode,
    _build_action,
    _reduction_orbit,
    canonicalize,
    enumerate_nielsen,
    is_nielsen_tuple,
    random_nielsen_tuple,
    tuple_cover_genus,
)


def test_mode_parsing():
    assert Mode.parse("inner-reduced") is Mode.INNER_REDUCED
    assert Mode.parse("abs-reduced") is Mode.ABSOLUTE_REDUCED
    assert Mode.parse(Mode.RAW) is Mode.RAW
    assert Mode.INNER_REDUCED.reduced and not Mode.INNER.reduced
    with pytest.raises(ValidationError):
        Mode.parse("projective")


def test_is_nielsen_tuple(a4, a4_cv):
    x = a4.parse("(1,2,3)")
    y = a4.parse("(1,3,2)")
    # product-one, generating, class multiset {3a,3a,3b,3b}
    t = (x, x, a4.inv(a4.mul(x, x)), a4.identity)
    assert not is_nielsen_tuple(a4, a4_cv, t)  # identity entry, wrong classes
    good = None
    ni = enumerate_nielsen(a4, a4_cv, Mode.INNER_REDUCED)
    good = ni.reps[0]
    assert is_nielsen_tuple(a4, a4_cv, good)
    assert not is_nielsen_tuple(a4, a4_cv, (x, y, x, y)[:3])


def test_a4_counts(a4, a4_cv):
    assert enumerate_nielsen(a4, a4_cv, Mode.INNER).count == 30
    assert enumerate_nielsen(a4, a4_cv, Mode.INNER_REDUCED).count == 15
    # the class-swapping outer automorphisms merge nothing extra here
    assert enumerate_nielsen(a4, a4_cv, Mode.ABSOLUTE_REDUCED).count <= 15


def test_d5_counts_match_modular_curve_indices():
    d5 = make_group("D5")
    cv = parse_class_vector(d5, "[2a,2a,2a,2a]")
    assert enumerate_nielsen(d5, cv, Mode.ABSOLUTE_REDUCED).count == 6
    assert enumerate_nielsen(d5, cv, Mode.INNER_REDUCED).count == 12


def test_canonicalize_is_idempotent_and_constant_on_classes(a4, a4_cv):
    rng = random.Random(7)
    for _ in range(20):
        t = random_nielsen_tuple(a4, a4_cv, rng)
        c = canonicalize(a4, t, Mode.INNER_REDUCED, a4_cv)
        assert canonicalize(a4, c, Mode.INNER_REDUCED, a4_cv) == c
        # conjugating the whole tuple lands in the same inner class
        a = a4.elements[rng.randrange(a4.order)]
        conj = tuple(a4.mul(a4.mul(a4.inv(a), g), a) for g in t)
        assert canonicalize(a4, conj, Mode.INNER, a4_cv) == canonicalize(
            a4, t, Mode.INNER, a4_cv
        )


def test_canonicalize_short_tuples(a4, a4_cv):
    x = a4.parse("(1,2,3)")
    least = min(a4.conj(x, a) for a in a4.elements)
    assert canonicalize(a4, (x,), Mode.INNER) == (least,)
    # the normalizer S4 swaps the two classes of 3-cycles in a4_cv
    least = min(a4.conj(x, a) for a in make_group("S4").elements)
    assert canonicalize(a4, (x, x), Mode.ABSOLUTE, a4_cv) == (least, least)


def test_raw_mode_keeps_tuples(a4, a4_cv):
    raw = enumerate_nielsen(a4, a4_cv, Mode.RAW)
    inner = enumerate_nielsen(a4, a4_cv, Mode.INNER)
    # raw classes refine inner classes by the (trivial-center) group order
    assert raw.count == inner.count * a4.order


def test_random_nielsen_tuple_is_valid(a4, a4_cv):
    rng = random.Random(0)
    for _ in range(10):
        t = random_nielsen_tuple(a4, a4_cv, rng)
        assert is_nielsen_tuple(a4, a4_cv, t)


def test_cover_genus(a4, a4_ni):
    rep = a4_ni.reps[0]
    cg = tuple_cover_genus(a4, rep)
    assert cg.degree == 4
    assert cg.genus == 1  # four 3-cycles on 4 points, each of index 2
    assert cg.entry_indices == (2, 2, 2, 2)


def test_to_dict_shape(a4_ni):
    d = a4_ni.to_dict()
    assert d["count"] == 15
    assert d["mode"] == "inner-reduced"
    assert len(d["reps"]) == 15


@pytest.mark.parametrize("desc,classes", [
    ("A4", "[3a,3a,3b,3b]"),
    ("D7", "[2a,2a,2a,2a]"),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]"),
])
def test_counting_identities(desc, classes):
    g = make_group(desc)
    cv = parse_class_vector(g, classes)
    raw = enumerate_nielsen(g, cv, Mode.RAW).count
    inner = enumerate_nielsen(g, cv, Mode.INNER).count
    reduced = enumerate_nielsen(g, cv, Mode.INNER_REDUCED)
    center = [a for a in g.elements if all(g.mul(a, x) == g.mul(x, a) for x in g.gens)]
    # a generating tuple's centralizer is Z(G)
    assert raw == inner * (g.order // len(center))
    # each reduced class is the union of its reduction orbit's inner classes
    assert inner == sum(
        len({canonicalize(g, u, Mode.INNER, cv) for u in _reduction_orbit(g, t)})
        for t in reduced.reps
    )


def test_search_is_iterative_on_long_tuples():
    s2 = make_group("S2")
    cv = parse_class_vector(s2, "[2ax1200]")
    assert enumerate_nielsen(s2, cv, Mode.INNER).count == 1


# ---------------------------------------------------------------------------
# conjugation actions built from generators, against one permutation per
# acting element as the action was built before


def action_perms(action):
    """Every permutation of a conjugation action, read back from its tables:
    a permutation moving y to its orbit minimum m is transporter[y] followed
    by an element of the stabilizer of m."""
    n = len(action.orbit_min)
    identity = tuple(range(n))
    return {
        perm_mul(action.transporter[y], z)
        for y in range(n)
        for z in action.stabilizer[action.orbit_min[y]] + (identity,)
    }


def per_element_perms(group, acting):
    """Index automorphism of every acting element, keyed by the element."""
    ix = group.indexed()
    return {
        a: ix.automorphism([group._index[group.conj(g, a)] for g in group.gens])
        for a in acting
    }


def preserving(group, perms, cv):
    return {p for a, p in perms.items() if _preserves_class_multiset(group, cv, a)}


@pytest.mark.parametrize("n", range(3, 41))
def test_dihedral_absolute_action_matches_the_affine_group(n):
    g = make_group(f"D{n}")
    rot = tuple((i + 1) % n for i in range(n))
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    affine = PermutationGroup(
        [rot] + [tuple(a * i % n for i in range(n)) for a in units], n, "affine"
    )
    assert affine.order == n * len(units)
    perms = per_element_perms(g, affine.elements)
    rot_class = g.class_index_of(rot)
    refl_class = g.class_index_of(tuple(-i % n for i in range(n)))
    sq_class = g.class_index_of(perm_mul(rot, rot))
    for indices in [(refl_class,) * 4, (rot_class, rot_class, sq_class)]:
        cv = ClassVector(g, indices)
        assert action_perms(_build_action(g, "absolute", cv)) == preserving(g, perms, cv)


@pytest.mark.parametrize("desc", ["A4", "A5", "S4", "gens:[(1,2,3,4),(1,3)]",
                                  "gens:[(1,2,3),(4,5,6)]"])
def test_absolute_action_matches_brute_force_normalizer(desc):
    g = make_group(desc)
    normalizer = [
        s for s in itertools.permutations(range(g.degree))
        if all(g.conj(x, s) in g for x in g.gens)
    ]
    perms = per_element_perms(g, normalizer)
    k = len(g.conjugacy_classes())
    for i in range(k):
        for j in range(i, k):
            cv = ClassVector(g, (i, i, j))
            assert action_perms(_build_action(g, "absolute", cv)) == preserving(g, perms, cv)


@pytest.mark.parametrize("desc", ["A4", "A5", "S4", "D7", "D8", "SL2(3)", "Heis(3)",
                                  "V(2,5):M=[[0,-1],[1,-1]]", "gens:[(1,2,3),(4,5,6)]"])
def test_inner_action_matches_conjugation_by_every_element(desc):
    g = make_group(desc)
    els = g.elements
    direct = {
        tuple(g._index[g.conj(x, a)] for x in els) for a in els
    }
    assert action_perms(_build_action(g, "inner", None)) == direct
