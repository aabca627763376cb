"""Seeded randomized invariants, run on the same groups the fixed tests use."""

import random

from hurwitz.braid import apply_qi, apply_sh, braid_orbits
from hurwitz.groups import class_power, make_group, parse_class_vector
from hurwitz.lift import lift_invariant, spin_cover
from hurwitz.nielsen import (
    Mode,
    canonicalize,
    enumerate_nielsen,
    is_nielsen_tuple,
    random_nielsen_tuple,
)
from hurwitz.tower import TowerSpec, bcl, cusp_type, lift_classes_to_level
from reference_routines import apply_qi_inv, project_tuple

SEED = 20260817


def random_walk(group, t, rng, steps=12):
    for _ in range(steps):
        move = rng.randrange(4)
        if move == 3:
            t = apply_sh(group, t)
        else:
            t = apply_qi(group, t, move + 1)
    return t


def test_braid_moves_preserve_nielsen_membership():
    rng = random.Random(SEED)
    for desc, classes in (("A4", "[3a,3a,3b,3b]"), ("A5", "[3a,3a,3a,3a]"),
                          ("D7", "[2a,2a,2a,2a]")):
        g = make_group(desc)
        cv = parse_class_vector(g, classes)
        for _ in range(15):
            t = random_nielsen_tuple(g, cv, rng)  # an index tuple: walk on the view
            assert is_nielsen_tuple(g, cv, random_walk(g.indexed(), t, rng))


def test_moves_descend_to_classes():
    # equal canonical forms stay equal after the same move
    rng = random.Random(SEED + 1)
    g = make_group("A4")
    cv = parse_class_vector(g, "[3a,3a,3b,3b]")
    for _ in range(15):
        t = g.indexed().to_data(random_nielsen_tuple(g, cv, rng))
        a = g.elements[rng.randrange(g.order)]
        s = tuple(g.mul(g.mul(g.inv(a), x), a) for x in t)
        for i in (1, 2, 3):
            left = canonicalize(g, apply_qi(g, t, i), Mode.INNER_REDUCED, cv)
            right = canonicalize(g, apply_qi(g, s, i), Mode.INNER_REDUCED, cv)
            assert left == right


def test_qi_inverse_and_shift_order():
    rng = random.Random(SEED + 2)
    g = make_group("D5")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    for _ in range(10):
        t = g.indexed().to_data(random_nielsen_tuple(g, cv, rng))
        for i in (1, 2, 3):
            assert apply_qi_inv(g, apply_qi(g, t, i), i) == t
        s = t
        for _ in range(cv.r):
            s = apply_sh(g, s)
        assert s == t


def test_shift_conjugates_twists():
    rng = random.Random(SEED + 3)
    g = make_group("A5")
    cv = parse_class_vector(g, "[3a,3a,3a,3a]")
    for _ in range(10):
        t = g.indexed().to_data(random_nielsen_tuple(g, cv, rng))
        for i in (1, 2):
            # sh q_i = q_{i+1} sh, words applied left factor first
            via_sh = apply_qi(g, apply_sh(g, t), i)
            direct = apply_sh(g, apply_qi(g, t, i + 1))
            assert via_sh == direct


def test_lift_invariant_constant_along_walks():
    rng = random.Random(SEED + 4)
    spin4 = spin_cover(4, make_group("A4"))
    g = spin4.base
    cv = parse_class_vector(g, "[3a,3a,3b,3b]")
    for _ in range(12):
        t = g.indexed().to_data(random_nielsen_tuple(g, cv, rng))
        before = lift_invariant(spin4, t).value
        after = lift_invariant(spin4, random_walk(g, t, rng)).value
        assert before == after


def test_projection_commutes_with_moves_on_vector_tower():
    rng = random.Random(SEED + 5)
    spec = TowerSpec("vector", 2)
    g1 = spec.level_group(1)
    g0 = spec.level_group(0)
    cv0 = parse_class_vector(g0, "[3a,3a,3b,3b]")
    cv1 = lift_classes_to_level(spec, cv0, 1)
    for _ in range(12):
        t = g1.indexed().to_data(random_nielsen_tuple(g1, cv1, rng))
        for i in (1, 2, 3):
            assert project_tuple(spec, 1, apply_qi(g1, t, i)) == apply_qi(
                g0, project_tuple(spec, 1, t), i
            )
        assert project_tuple(spec, 1, apply_sh(g1, t)) == apply_sh(
            g0, project_tuple(spec, 1, t)
        )


def test_cusp_type_is_a_cusp_invariant():
    spec = TowerSpec("dihedral", 5)
    g1 = spec.level_group(1)
    cv1 = lift_classes_to_level(
        spec, parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]"), 1
    )
    ni = enumerate_nielsen(g1, cv1, Mode.ABSOLUTE_REDUCED)
    for orbit in braid_orbits(ni):
        for c in orbit.cusps():
            base = cusp_type(c, 5)
            # classify again from every member by rebuilding a one-member stub
            for p in c.positions:
                probe = type(c)(
                    label=c.label, width=c.width,
                    braid_label=c.braid_label, ni=c.ni, positions=(p,),
                )
                got = cusp_type(probe, 5)
                assert got.type == base.type


def test_bcl_powers_fix_the_class_multiset():
    for desc, classes in (("A4", "[3a,3a,3b,3b]"), ("A5", "[3a,3a,3a,3a]"),
                          ("D5", "[2a,2a,2a,2a]")):
        g = make_group(desc)
        cv = parse_class_vector(g, classes)
        res = bcl(g, cv)
        for m in res.q:
            assert class_power(cv, m) == cv


def test_canonical_forms_are_idempotent_across_modes():
    rng = random.Random(SEED + 6)
    g = make_group("A4")
    cv = parse_class_vector(g, "[3a,3a,3b,3b]")
    for mode in (Mode.INNER, Mode.ABSOLUTE, Mode.INNER_REDUCED,
                 Mode.ABSOLUTE_REDUCED):
        for _ in range(8):
            t = g.indexed().to_data(random_nielsen_tuple(g, cv, rng))
            c = canonicalize(g, t, mode, cv)
            assert canonicalize(g, c, mode, cv) == c
