import random

import pytest

from hurwitz.errors import ValidationError
from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import (
    Mode,
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
