"""Tower families: level groups, projections, cusps, trees, field data."""

import pytest

from hurwitz.braid import apply_qi, braid_orbits, cusp_orbits
from hurwitz.errors import ValidationError
from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import Mode, enumerate_nielsen
from hurwitz.tower import (
    TowerSpec,
    bcl,
    build_level,
    component_tree,
    cusp_type,
    eventually_frattini_report,
    inner_absolute_fibers,
    lift_classes_to_level,
    lift_partition_is_choice_independent,
    project_tuple,
)


def test_spec_validation():
    with pytest.raises(ValidationError):
        TowerSpec("vector", 3)  # complement order collides with the prime
    with pytest.raises(ValidationError):
        TowerSpec("vector", 6)
    with pytest.raises(ValidationError):
        TowerSpec("dihedral", 2)
    with pytest.raises(ValidationError):
        TowerSpec("cyclic", 5)
    with pytest.raises(ValidationError):
        TowerSpec("vector", 5, action=((1, 0), (0, 1)))  # has a Z/5 quotient


def test_level_groups_vector():
    spec = TowerSpec("vector", 2)
    assert spec.level_group(0).order == 12
    assert spec.level_group(1).order == 48
    assert spec.modulus(1) == 4


def test_each_spec_keeps_its_own_levels():
    a, b = TowerSpec("vector", 2), TowerSpec("vector", 2)
    assert a == b and hash(a) == hash(b)
    assert a.level_group(1) is a.level_group(1)
    assert a.projection(1) is a.projection(1)
    assert a.level_group(1) is not b.level_group(1)


def test_level_groups_dihedral():
    spec = TowerSpec("dihedral", 5)
    assert spec.level_group(0).order == 10
    assert spec.level_group(1).order == 50
    assert spec.level_group(2).order == 250


def test_projection_is_a_hom():
    spec = TowerSpec("vector", 2)
    proj = spec.projection(1)
    g1, g0 = spec.level_group(1), spec.level_group(0)
    assert proj.is_surjective
    for a in g1.elements[:8]:
        for b in g1.gens:
            assert proj(g1.mul(a, b)) == g0.mul(proj(a), proj(b))


def test_projection_commutes_with_braiding():
    spec = TowerSpec("dihedral", 5)
    g1 = spec.level_group(1)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    cv1 = lift_classes_to_level(spec, cv0, 1)
    ni = enumerate_nielsen(g1, cv1, Mode.RAW)
    for t in ni.reps[:40]:
        for i in (1, 2, 3):
            down_then_twist = apply_qi(
                spec.level_group(0), project_tuple(spec, 1, t), i
            )
            twist_then_down = project_tuple(spec, 1, apply_qi(g1, t, i))
            assert down_then_twist == twist_then_down


def test_class_lift_requires_prime_to_ell_order():
    spec = TowerSpec("dihedral", 5)
    g0 = spec.level_group(0)
    rot = parse_class_vector(g0, "[5a,5a,5b,5b]")
    with pytest.raises(ValidationError):
        lift_classes_to_level(spec, rot, 1)


def test_lifted_reflections_stay_reflections():
    spec = TowerSpec("dihedral", 7)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    cv1 = lift_classes_to_level(spec, cv0, 1)
    assert all(
        spec.level_group(1).element_order(r) == 2 for r in cv1.reps()
    )


def test_cusp_trichotomy_on_modular_curve():
    spec = TowerSpec("dihedral", 5)
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]"),
                      0, mode=Mode.ABSOLUTE_REDUCED)
    (orbit,) = lvl.orbits
    types = {c.label: cusp_type(c, 5) for c in orbit.cusps()}
    widths = {c.label: c.width for c in orbit.cusps()}
    for label, cls in types.items():
        if widths[label] == 5:
            assert cls.type == "ell-cusp"
            assert cls.hm is True
        else:
            assert cls.type == "g-ell-prime"
    assert any(cls.double_identity for cls in types.values())


def test_cusp_type_constant_choice_of_representative(a4_orbits):
    # classifying with a prime away from the group order: everything g-ell-prime
    for o in a4_orbits:
        for c in o.cusps():
            assert cusp_type(c, 7).type == "g-ell-prime"


def test_vector_tree_level1_covers_both_components(a4_cv):
    spec = TowerSpec("vector", 2)
    g0 = spec.level_group(0)
    cv0 = parse_class_vector(g0, "[3a,3a,3b,3b]")
    tree = component_tree(spec, cv0, 1)
    l0, l1 = tree.levels
    assert [o.size for o in l0.orbits] == [6, 9]
    assert l1.group.order == 48
    assert l1.ni.count == 120
    assert sorted(o.size for o in l1.orbits) == [24, 24, 36, 36]
    targets = {edge[1] for edge in tree.edges}
    assert targets == {(0, "O1"), (0, "O2")}  # neither component is obstructed
    assert tree.truncated_at is None


def test_tree_chains_reach_level_zero():
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv0, 1, mode=Mode.ABSOLUTE_REDUCED)
    assert tree.levels[1].ni.count == 30
    for chain in tree.chains():
        assert chain[-1][0] == 0
    assert tree.parent(1, tree.levels[1].orbits[0].label) == (0, "O1")


@pytest.fixture(scope="module")
def ell5_level0():
    spec = TowerSpec("vector", 5)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    return build_level(spec, cv, 0)


def test_level0_heisenberg_invariants_ell5(ell5_level0):
    lvl = ell5_level0
    assert lvl.ni.count == 312
    assert sorted(o.size for o in lvl.orbits) == [60, 60, 60, 60, 72]
    invs = [lvl.orbit_invariant(o) for o in lvl.orbits]
    trivial = [o for o, i in zip(lvl.orbits, invs) if i.trivial]
    assert len(trivial) == 1 and trivial[0].size == 72
    assert len({i.label for i in invs}) == 5  # all of (Z/5)* plus the identity
    assert lift_partition_is_choice_independent(lvl) is True


def test_genus_at_level0_ell5(ell5_level0):
    lvl = ell5_level0
    assert {lvl.genus_report(o).genus for o in lvl.orbits} == {1}


def test_bcl_examples(a4, a4_cv):
    res = bcl(a4, a4_cv)
    assert res.n_c == 3 and tuple(res.q) == (1, 2) and res.rational_union
    skew = bcl(a4, parse_class_vector(a4, "[3a,3a,3a,3a]"))
    assert tuple(skew.q) == (1,) and not skew.rational_union
    d5 = make_group("D5")
    refl = bcl(d5, parse_class_vector(d5, "[2a,2a,2a,2a]"))
    assert refl.rational_union


def test_inner_absolute_fibers_dihedral():
    d5 = make_group("D5")
    cv = parse_class_vector(d5, "[2a,2a,2a,2a]")
    rep = inner_absolute_fibers(d5, cv)
    assert rep.absolute_count == 6
    assert rep.inner_count == 12
    assert set(rep.class_fibers) == {2}  # (ell - 1)/2
    assert all(len(labels) >= 1 for _, labels in rep.orbit_fibers)


def test_eventually_frattini_steps():
    spec = TowerSpec("vector", 2)
    steps = eventually_frattini_report(spec, 1)
    assert [s.k for s in steps] == [1]
    assert steps[0].frattini is True
    assert steps[0].kernel_order == 4
    assert steps[0].kernel_is_ell_group is True


def test_tower_level_to_dict():
    spec = TowerSpec("dihedral", 5)
    cv = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv, 1, mode=Mode.ABSOLUTE_REDUCED)
    d = tree.to_dict()
    assert d["spec"]["family"] == "dihedral"
    assert len(d["levels"]) == 2
    assert d["edges"] and d["truncated_at"] is None
    cusps = d["levels"][0]["orbits"][0]["cusps"]
    assert {c["type"] for c in cusps} <= {
        "ell-cusp", "g-ell-prime", "o-ell-prime", "unclassified"
    }
