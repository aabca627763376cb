"""Tower families: level groups, projections, cusps, trees, field data."""

from dataclasses import replace
from itertools import combinations_with_replacement, product

import pytest

import hurwitz.lift
import hurwitz.tower
from hurwitz.braid import CuspOrbit, apply_qi, braid_orbits, cusp_orbits
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import (
    TABLE_ENTRY_CAP,
    ClassVector,
    _mat_mul,
    make_group,
    parse_class_vector,
)
from hurwitz.lift import extend_action_to_heisenberg, is_frattini_cover, lift_invariant
from hurwitz.nielsen import Mode, _reduction_orbit, enumerate_nielsen
from hurwitz.tower import (
    TowerSpec,
    _subgroup_order_prime_to,
    bcl,
    build_level,
    component_tree,
    cusp_type,
    eventually_frattini_report,
    inner_absolute_fibers,
    lift_classes_to_level,
    lift_partition_is_choice_independent,
    project_tuple,
    tuple_is_hm,
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
    with pytest.raises(ValidationError, match="rank"):
        TowerSpec("vector", 5, t=0)
    with pytest.raises(ValidationError, match="no action matrix"):
        TowerSpec("dihedral", 5, action=((0, -1), (1, -1)))
    with pytest.raises(ValidationError, match="no lattice rank"):
        TowerSpec("dihedral", 5, t=1)
    assert (TowerSpec("vector", 5).t, TowerSpec("dihedral", 5).t) == (2, 1)


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


def _reduce_vector(g, m):
    return (tuple(c % m for c in g[0]), g[1])


def _reduce_dihedral(g, m):
    # a level permutation is x -> sign*x + b on Z/(l^(k+1)), read off 0 and 1
    b = g[0]
    sign = 1 if g[1] == (b + 1) % len(g) else -1
    return tuple((b + sign * i) % m for i in range(m))


@pytest.mark.parametrize("family,ell,reduce", [
    ("vector", 2, _reduce_vector),
    ("dihedral", 5, _reduce_dihedral),
])
def test_projection_is_reduction_mod_ell_k(family, ell, reduce):
    spec = TowerSpec(family, ell)
    for k in (1, 2):
        proj = spec.projection(k)
        for g in spec.level_group(k).elements:
            assert proj(g) == reduce(g, ell ** k)


def test_heisenberg_projection_forgets_the_center():
    ext = hurwitz.lift.heisenberg_cover(5)
    assert all(ext.projection(e) == ((e[0][0], e[0][1]), e[1])
               for e in ext.cover.elements)


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


def test_class_lift_rejects_a_class_vector_off_level_zero():
    spec = TowerSpec("vector", 2)
    a4_cv = parse_class_vector(make_group("A4"), "[3a,3a,3b,3b]")
    with pytest.raises(ValidationError, match="level-0 group"):
        lift_classes_to_level(spec, a4_cv, 1)
    with pytest.raises(ValidationError, match="prime to ell"):
        lift_classes_to_level(spec, parse_class_vector(spec.level_group(0), "[2a,3a,3b]"), 1)


@pytest.mark.parametrize("family,ell,descriptor", [
    ("dihedral", 7, "D7"), ("vector", 5, "V(2,5):M=[[0,-1],[1,-1]]"),
])
def test_class_lift_finds_reps_by_their_data(family, ell, descriptor):
    """A class vector on an equal group built from its own descriptor lifts
    as the same vector on the level group does."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    on_level = parse_class_vector(spec.level_group(0), c0)
    on_copy = parse_class_vector(make_group(descriptor), c0)
    assert lift_classes_to_level(spec, on_copy, 1) == lift_classes_to_level(spec, on_level, 1)


def _layout_lift(spec, rep, gk):
    """The per-family rule the generic lift replaced: the zero vector with the
    complement coordinate of ``rep``, or the reflection ``gens[1]`` over any
    non-identity class of a dihedral level."""
    if spec.family == "vector":
        return ((0,) * spec.t, rep[1])
    return gk.identity if rep == spec.level_group(0).identity else gk.gens[1]


@pytest.mark.parametrize("family,ell,action", [
    ("vector", 2, None), ("vector", 5, None),
    ("vector", 2, ((4, -7), (3, -5))), ("vector", 5, ((4, -7), (3, -5))),
    ("dihedral", 3, None), ("dihedral", 5, None), ("dihedral", 7, None),
    ("dihedral", 11, None),
])
def test_generic_class_lift_matches_the_layout_rule(family, ell, action):
    """Every level-0 class of order prime to l lifts, at every level up to 3
    under the table cap, to the class the element-layout rule picks."""
    spec = TowerSpec(family, ell, action=action)
    g0 = spec.level_group(0)
    classes = g0.conjugacy_classes()
    for k in range(4):
        if (g0.order * ell ** (spec.t * k)) ** 2 > TABLE_ENTRY_CAP:
            break
        gk = spec.level_group(k)
        for i, cl in enumerate(classes):
            if cl.element_order % ell:
                (lifted,) = lift_classes_to_level(spec, ClassVector(g0, (i,)), k).indices
                assert lifted == gk.class_index_of(_layout_lift(spec, cl.rep, gk)), (k, cl.label)


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


@pytest.mark.parametrize("family,ell,k", [
    ("vector", 2, 0), ("vector", 2, 1), ("vector", 2, 2), ("vector", 5, 0),
    ("dihedral", 5, 0), ("dihedral", 5, 1),
])
def test_bounded_ell_prime_test_matches_full_closures(family, ell, k):
    """The closure stopped at the ell'-part of |G| decides "<gens> is an
    ell'-group" as the full closure does, on every pair of elements and on
    the (g1, g4) and (g2, g3) pairs of every class at the level."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    mode = Mode.INNER_REDUCED if family == "vector" else Mode.ABSOLUTE_REDUCED
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), c0), k, mode=mode)
    ix = lvl.group.indexed()
    pairs = set(combinations_with_replacement(range(ix.order), 2))
    for t in lvl.ni.reps:
        g1, g2, g3, g4 = ix.to_index(t)
        pairs.update([(g1, g4), (g2, g3)])
    for gens in pairs:
        assert _subgroup_order_prime_to(ix, gens, ell) == (len(ix.close(gens)) % ell != 0), gens


@pytest.mark.parametrize("family,ell,k_max,modes", [
    ("vector", 2, 2, (Mode.INNER_REDUCED, Mode.INNER)),
    ("dihedral", 5, 2, (Mode.ABSOLUTE_REDUCED, Mode.INNER_REDUCED)),
    ("dihedral", 7, 1, (Mode.ABSOLUTE_REDUCED, Mode.INNER_REDUCED)),
])
def test_generation_through_level_zero_matches_level_k(family, ell, k_max, modes,
                                                       monkeypatch):
    """The Frattini lemma behind ``build_level``: testing generation on
    level-0 images finds the classes that closing in G_k finds, and each
    step G_k -> G_(k-1) is a Frattini cover, checked on the indexed view and
    on data."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    cv0 = parse_class_vector(spec.level_group(0), c0)
    for k in range(1, k_max + 1):
        group, cv = spec.level_group(k), lift_classes_to_level(spec, cv0, k)
        for mode in modes:
            direct = enumerate_nielsen(group, cv, mode)
            through = enumerate_nielsen(group, cv, mode, quotient=spec.quotient(k))
            assert through.reps == direct.reps
            assert through.klein == direct.klein
        hom = spec.projection(k)
        assert is_frattini_cover(hom) is True
        with monkeypatch.context() as m:
            m.setattr(hurwitz.lift, "TABLE_ENTRY_CAP", group.order ** 2 - 1)
            m.setattr(type(group), "indexed", _no_view)
            assert is_frattini_cover(hom) is True


def _no_view(group):
    raise AssertionError(f"the data path built the indexed view of {group.name}")


def _shapes(group, tuples):
    """HM shape and a cyclically adjacent repeat, each on any of ``tuples``."""
    return (any(tuple_is_hm(group, u) for u in tuples),
            any(u[i] == u[(i + 1) % len(u)] for u in tuples for i in range(len(u))))


@pytest.mark.parametrize("family,ell,k_max,mode", [
    (family, ell, k_max, mode)
    for family, ell, k_max in (("vector", 2, 2), ("vector", 5, 0), ("dihedral", 5, 1))
    for mode in (Mode.INNER_REDUCED, Mode.INNER, Mode.ABSOLUTE_REDUCED)
    if family == "dihedral" or mode is not Mode.ABSOLUTE_REDUCED  # needs permutations
])
def test_class_shapes_match_the_four_image_reference(family, ell, k_max, mode):
    """``cusp_type`` reads the shape flags off each member's rep alone; the
    reference reads them on data off all four images of the member under the
    Klein reduction group, in every mode."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    cv0 = parse_class_vector(spec.level_group(0), c0)
    seen = set()
    for k in range(k_max + 1):
        lvl = build_level(spec, cv0, k, mode=mode)
        reference = [_shapes(lvl.group, _reduction_orbit(lvl.group, t)) for t in lvl.ni.reps]
        assert [_shapes(lvl.group, [t]) for t in lvl.ni.reps] == reference
        seen.update(reference)
        for o in lvl.orbits:
            for c in o.cusps():
                assert c.members == tuple(lvl.ni.reps[p] for p in c.positions)
                members = [reference[p] for p in c.positions]
                # members in reverse too: the flags must not hang on the first
                for cusp in c, replace(c, positions=c.positions[::-1]):
                    got = cusp_type(cusp, ell)
                    assert got.hm == any(hm for hm, _ in members)
                    assert got.double_identity == any(dbl for _, dbl in members)
    assert len({hm for hm, _ in seen}) == 2 and len({dbl for _, dbl in seen}) == 2


def test_cusp_orbit_needs_its_positions(a4_orbits):
    """``cusp_type`` reads the shape flags at ``positions``, so a cusp orbit
    cannot be built without them."""
    c = a4_orbits[0].cusps()[0]
    with pytest.raises(TypeError, match="positions"):
        CuspOrbit(c.label, c.width, c.braid_label, c.ni)


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


def test_a_level_over_the_table_cap_is_never_listed():
    """Level orders are known in closed form, so D3125 (order 6250) stops at
    the table cap before its elements are enumerated."""
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv0, 4, mode=Mode.ABSOLUTE_REDUCED)
    assert tree.truncated_at == 4 and len(tree.levels) == 4
    assert spec.level_group(4)._elements is None


def test_a_level_zero_over_the_table_cap_raises_the_cap():
    spec = TowerSpec("dihedral", 1009)
    cv0 = ClassVector(spec.level_group(0), (1, 1, 1, 1))
    with pytest.raises(BudgetError, match="multiplication table of D1009 .* above the cap"):
        component_tree(spec, cv0, 0, mode=Mode.ABSOLUTE_REDUCED)


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


@pytest.mark.parametrize("ell", [5, 7])
def test_heisenberg_invariants_are_braid_invariant(ell):
    spec = TowerSpec("vector", ell)
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]"), 0)
    ext = lvl.extension
    # every valid correction at ell = 5, the least one at ell = 7
    exts = [ext, *ext.alternatives] if ell == 5 else [ext]
    assert len(exts) == (25 if ell == 5 else 1)
    for e in exts:
        for o in lvl.orbits:
            want = lift_invariant(e, o.rep).value
            assert all(lift_invariant(e, t).value == want for t in o.members)


def test_tower_level_never_enumerates_the_heisenberg_cover():
    spec = TowerSpec("vector", 5)
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]"), 0)
    lvl.to_dict()
    assert lvl.extension.cover._elements is None


@pytest.mark.parametrize("ell", [5, 7])
def test_order_3_actions_extend_exactly_when_det_is_1(ell):
    """The rule ``TowerLevel.extension`` applies: an order-3 action extends
    to Heis(ell) when det M = 1 mod ell, and otherwise the build finds the
    kernel not central."""
    ident = ((1, 0), (0, 1))
    seen = set()
    for a, b, c, d in product(range(ell), repeat=4):
        m = ((a, b), (c, d))
        if m == ident or _mat_mul(_mat_mul(m, m, ell), m, ell) != ident:
            continue
        det = (a * d - b * c) % ell
        seen.add(det)
        if det == 1:
            assert extend_action_to_heisenberg(ell, m).kernel_order == ell
        else:
            with pytest.raises(ValidationError, match="extension kernel is not central"):
                extend_action_to_heisenberg(ell, m)
    # det^3 = 1: only 1 mod 5, while 2 and 4 occur mod 7
    assert seen == ({1} if ell == 5 else {1, 2, 4})


def test_level_without_extension_never_builds_one(monkeypatch):
    def fail(*args):
        raise AssertionError("extend_action_to_heisenberg called")

    monkeypatch.setattr(hurwitz.tower, "extend_action_to_heisenberg", fail)
    spec = TowerSpec("vector", 7, action=((2, 0), (0, 2)))  # det 4 mod 7
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]"), 0)
    assert lvl.extension is None
    assert all(o["lift_invariant"] is None for o in lvl.to_dict()["orbits"])


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


@pytest.mark.long
def test_vector_tower_ell5_level1():
    spec = TowerSpec("vector", 5)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    tree = component_tree(spec, cv, 1)
    top = tree.levels[1]
    assert top.ni.count == 195000
    assert len(top.orbits) == 29
    genera = sorted(top.genus_report(o).genus for o in top.orbits)
    assert genera == [73] * 5 + [361] * 20 + [401] * 4
    assert len(tree.edges) == 29


@pytest.mark.long
def test_vector_tower_ell5_level1_heisenberg_invariants():
    spec = TowerSpec("vector", 5)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    top = component_tree(spec, cv, 1).levels[1]
    labels = [top.orbit_invariant(o).label for o in top.orbits]
    # O1-O5 (genus 73) lift; O6-O25 (genus 361) carry a unit of Z/25 and
    # O26-O29 (genus 401) a nonzero multiple of 5
    zs = [17, 18, 3, 22, 12, 8, 13, 2, 7, 23, 1, 19, 21, 6, 16, 11, 4, 9, 14, 24,
          5, 20, 10, 15]
    assert labels == ["1"] * 5 + [f"[0,0,{z}|0]" for z in zs]


@pytest.mark.parametrize("ell,genera", [
    (5, [0, 0, 8]),
    pytest.param(5, [0, 0, 8, 48], marks=pytest.mark.long),  # about 3 s
    (7, [0, 1, 26]),
])
def test_dihedral_tower_levels_are_modular_curves(ell, genera):
    """Level k of the abs-reduced dihedral tower is one component, X_0(ell^(k+1)):
    degree ell^k (ell + 1) and the classical genus."""
    spec = TowerSpec("dihedral", ell)
    cv = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv, len(genera) - 1, mode=Mode.ABSOLUTE_REDUCED)
    assert tree.truncated_at is None
    assert len(tree.edges) == len(genera) - 1
    for k, lvl in enumerate(tree.levels):
        (orbit,) = lvl.orbits
        report = lvl.genus_report(orbit)
        assert report.degree == ell**k * (ell + 1)
        assert report.genus == genera[k]
