"""Tower families: level groups, level maps, cusps, trees, field data."""

import json
from itertools import combinations, combinations_with_replacement, product

import pytest

import hurwitz.lift
import hurwitz.nielsen
import hurwitz.tower
from hurwitz.braid import CuspOrbit, apply_qi, braid_orbits, cusp_orbits, verify_braid_relations
from hurwitz.cli import run
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.geometry import genus_of_component, moduli_flags, sh_incidence
from hurwitz.groups import (
    TABLE_ENTRY_CAP,
    ClassVector,
    FiniteGroup,
    IndexedGroup,
    VectorSemidirectGroup,
    _mat_mul,
    make_group,
    parse_class_vector,
)
from hurwitz.lift import (
    GroupHom,
    extend_action_to_heisenberg,
    heisenberg_obstruction,
    is_frattini_cover,
    lift_invariant,
    spin_cover,
)
from hurwitz.nielsen import Mode, enumerate_nielsen
from hurwitz.tower import (
    TowerSpec,
    _subgroup_order_prime_to,
    bcl,
    build_level,
    component_tree,
    cusp_type,
    eventually_frattini_report,
    lift_classes_to_level,
)
from reference_routines import (
    _has_adjacent_repeat,
    frattini_by_every_translate,
    heisenberg_extensions,
    inner_absolute_fibers,
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
    # the rank is the size of the action matrix
    with pytest.raises(ValidationError, match="rank t must be at least 1, got 0"):
        TowerSpec("vector", 5, action=())
    with pytest.raises(ValidationError, match="action matrix must be a list of integer rows"):
        TowerSpec("vector", 5, action=5)
    with pytest.raises(ValidationError, match="action matrix must be 2x2"):
        TowerSpec("vector", 5, action=((0, -1), (1,)))
    with pytest.raises(ValidationError, match="no action matrix"):
        TowerSpec("dihedral", 5, action=((0, -1), (1, -1)))
    assert (TowerSpec("vector", 5).t, TowerSpec("dihedral", 5).t) == (2, 1)
    assert TowerSpec("vector", 2, action=((0, 1, 0), (0, 0, 1), (1, 1, 0))).t == 3
    # M^3 = I mod 5 but not mod 25, so level 1 has a complement of order 15
    with pytest.raises(ValidationError, match="action matrix changes order between levels"):
        TowerSpec("vector", 5, action=((0, -1), (1, 4))).level_group(1)


@pytest.mark.parametrize("family", ["vector", "dihedral"])
def test_level_groups_are_made_from_their_descriptors(family, monkeypatch):
    """Each level group is what ``make_group`` returns for the level's
    descriptor, for both families."""
    made = {}

    def recorded(descriptor, *args, **kw):
        made[descriptor] = make_group(descriptor, *args, **kw)
        return made[descriptor]

    monkeypatch.setattr("hurwitz.tower.make_group", recorded)
    spec = TowerSpec(family, 5)
    levels = [spec.level_group(k) for k in (0, 1)]
    assert list(made) == [spec.descriptor(0), spec.descriptor(1)]
    assert all(made[spec.descriptor(k)] is g for k, g in enumerate(levels))
    assert [g.descriptor for g in levels] == list(made)


def test_level_groups_vector():
    spec = TowerSpec("vector", 2)
    assert spec.level_group(0).order == 12
    assert spec.level_group(1).order == 48
    assert spec.modulus(1) == 4


def test_each_spec_keeps_its_own_levels():
    a, b = TowerSpec("vector", 2), TowerSpec("vector", 2)
    assert a.level_group(1) is a.level_group(1)
    assert a.level_map(1) is a.level_map(1)
    assert a.level_group(1) is not b.level_group(1)
    assert a.level_map(1).element_images == b.level_map(1).element_images
    assert a.level_map(1) is not b.level_map(1)


@pytest.fixture(scope="module")
def records(a4, a4_cv, a4_ni, a4_orbits):
    """One instance of each record type, from the A4 and ell = 2 fixtures."""
    orbit, spec, inc = a4_orbits[0], TowerSpec("vector", 2), sh_incidence(a4_orbits)
    tree = component_tree(spec, parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]"), 0)
    report = verify_braid_relations(a4, a4_cv, sample_size=2)
    return {r.__class__.__name__: r for r in (
        a4.conjugacy_classes()[0], a4_cv, a4_ni, orbit, orbit.cusps()[0], report,
        report.checks[0], genus_of_component(orbit),
        inc, inc.blocks[0], moduli_flags(orbit), lift_invariant(spin_cover(4, a4), orbit.rep),
        spec, cusp_type(orbit.cusps()[0], 2), tree, tree.levels[0], bcl(a4, a4_cv),
        eventually_frattini_report(spec, 1)[0],
    )}


@pytest.mark.parametrize("name, field", [
    ("ConjugacyClass", "label"), ("ClassVector", "indices"), ("NielsenClassSet", "tuples"),
    ("BraidOrbit", "positions"), ("CuspOrbit", "width"), ("PropertyReport", "checks"),
    ("PropertyCheck", "passed"), ("GenusReport", "genus"),
    ("ShIncidence", "blocks"), ("ShIncidenceBlock", "matrix"), ("ModuliFlags", "inner_fine"),
    ("LiftInvariant", "trivial"), ("TowerSpec", "ell"), ("CuspClassification", "type"),
    ("ComponentTree", "edges"), ("TowerLevel", "orbits"), ("BCLResult", "q"),
    ("FrattiniStep", "frattini"),
])
def test_records_are_read_only(records, name, field):
    record = records[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_level_groups_dihedral():
    spec = TowerSpec("dihedral", 5)
    assert spec.level_group(0).order == 10
    assert spec.level_group(1).order == 50
    assert spec.level_group(2).order == 250


def _walked_map(spec, k):
    """The level-k map as a ``GroupHom`` walked over the listed data, read on
    indices: the independent reference for ``spec.level_map(k)``."""
    source, target = spec.level_group(k), spec.level_group(k - 1)
    hom = GroupHom(source, target, target.gens)
    return tuple(target._index[hom(x)] for x in source.elements)


def test_index_map_is_a_hom():
    spec = TowerSpec("vector", 2)
    down = spec.level_map(1).element_images
    v1, v0 = spec.level_group(1).indexed(), spec.level_group(0).indexed()
    assert set(down) == set(range(v0.order))
    for a in range(v1.order):
        for b in range(v1.order):
            assert down[v1.mul(a, b)] == v0.mul(down[a], down[b])
    view, identity = spec.level_group(0).generation_quotient
    assert view is v0 and tuple(identity) == tuple(range(v0.order))
    for k in (1, 2):  # each level's own quotient is level 0 under the composed level maps
        view, through = spec.level_group(k).generation_quotient
        assert view.data.descriptor == spec.descriptor(0) and view.data is not spec.level_group(0)
        assert through == down
        down = tuple(map(down.__getitem__, spec.level_map(k + 1).element_images))


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
def test_index_map_is_reduction_mod_ell_k(family, ell, reduce):
    spec = TowerSpec(family, ell)
    for k in (1, 2):
        down, below = spec.level_map(k).element_images, spec.level_group(k - 1).elements
        for i, g in enumerate(spec.level_group(k).elements):
            assert below[down[i]] == reduce(g, ell ** k)


@pytest.mark.parametrize("family,ell,k_max", [
    ("vector", 2, 2), ("vector", 5, 1), ("dihedral", 5, 3), ("dihedral", 7, 2),
])
def test_index_maps_match_the_walked_group_hom(family, ell, k_max):
    spec = TowerSpec(family, ell)
    for k in range(1, k_max + 1):
        assert spec.level_map(k).element_images == _walked_map(spec, k), k


@pytest.mark.parametrize("family,ell,swap", [("dihedral", 5, (1, 0)), ("vector", 2, (1, 0, 2))])
def test_wrong_generator_images_are_refused(family, ell, swap):
    """Swapped generator images (rotation and reflection; the two basis
    vectors, which the action matrix does not commute with) define no
    homomorphism, and ``GroupHom`` refuses them on the views as on data."""
    spec = TowerSpec(family, ell)
    g1, g0 = spec.level_group(1), spec.level_group(0)
    v1, v0 = g1.indexed(), g0.indexed()
    with pytest.raises(ValidationError, match="do not define a homomorphism"):
        GroupHom(v1, v0, [v0.gens[i] for i in swap])
    with pytest.raises(ValidationError, match="do not define a homomorphism"):
        GroupHom(g1, g0, [g0.gens[i] for i in swap])
    with pytest.raises(ValidationError, match="generator images, got"):
        GroupHom(v1, v0, v0.gens[:-1])
    with pytest.raises(ValidationError, match="not an element of"):
        GroupHom(v1, v0, (*v0.gens[:-1], v0.order))


def test_heisenberg_projection_forgets_the_center():
    ext = extend_action_to_heisenberg(TowerSpec("vector", 5).level_group(0))
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


def test_project_tuple_refuses_entries_off_level_k_and_k_below_one():
    spec = TowerSpec("dihedral", 5)
    g1, g0 = spec.level_group(1), spec.level_group(0)
    assert project_tuple(spec, 1, g1.gens) == g0.gens
    with pytest.raises(ValidationError, match="elements of level 1, D25"):
        project_tuple(spec, 1, (g1.gens[0], g0.gens[1]))
    with pytest.raises(ValidationError, match="k >= 1"):
        project_tuple(spec, 0, g0.gens)


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
def test_generation_through_level_zero_matches_level_k(family, ell, k_max, modes):
    """The Frattini lemma behind ``build_level``: testing generation on
    level-0 images finds the classes that closing in G_k finds, and each
    step G_k -> G_(k-1) is a Frattini cover, checked through a ``GroupHom``
    on data, with the verdicts and kernels that ``eventually_frattini_report``
    reads off the level maps between the indexed views.  The direct search
    closes in G_k itself, under an identity generation quotient."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    cv0 = parse_class_vector(spec.level_group(0), c0)
    steps = []
    for k in range(1, k_max + 1):
        group, cv = spec.level_group(k), lift_classes_to_level(spec, cv0, k)
        assert group.generation_quotient[0].order < group.order
        for mode in modes:
            through = enumerate_nielsen(group, cv, mode)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(FiniteGroup, "generation_quotient",
                           property(lambda g: (g.indexed(), range(g.order))))
                direct = enumerate_nielsen(group, cv, mode)
            assert through.reps == direct.reps
            assert through.klein == direct.klein
        below = spec.level_group(k - 1)
        hom = GroupHom(group, below, below.gens)
        assert is_frattini_cover(hom) is True
        kernel = hom.kernel()
        is_ell = {group.element_order(x) for x in kernel} <= {ell ** i for i in range(k + 2)}
        steps.append((k, True, len(kernel), is_ell))
    assert [tuple(s) for s in eventually_frattini_report(spec, k_max)] == steps


def test_generation_is_read_off_the_start_pair_first(monkeypatch):
    """A level's search closes the level-0 images (down(c0), down(c1)) of a
    new Klein orbit's first two entries, c0 the search start, once per pair.
    Only where that pair does not generate level 0 does it settle the sorted
    image of all four entries with ``_generates_by_pairs``, once per image, so
    each image there holds a pair that does not generate.  Vector l=2 levels
    0, 1 and 2 close 5, 9 and 9 distinct pairs in all and send 4, 7 and 7
    images down that path over 15, 120 and 1,920 classes."""
    closures, images = [], []
    generates, by_pairs = hurwitz.nielsen._generates, hurwitz.nielsen._generates_by_pairs
    monkeypatch.setattr(hurwitz.nielsen, "_generates", lambda quotient, elems:
                        closures.append(elems) or generates(quotient, elems))
    monkeypatch.setattr(hurwitz.nielsen, "_generates_by_pairs", lambda quotient, image, pairs:
                        images.append(image) or by_pairs(quotient, image, pairs))
    spec = TowerSpec("vector", 2)
    level0 = spec.level_group(0).indexed()
    cv0 = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    counts = []
    for k in range(3):
        closures.clear()
        images.clear()
        lvl = build_level(spec, cv0, k)
        pairs = [t for t in closures if isinstance(t, tuple) and len(t) == 2]
        assert len(set(pairs)) == len(pairs) and len(set(images)) == len(images)
        assert all(list(t) == sorted(t) for t in pairs + images)
        assert all(any(len(level0.close(pair)) < level0.order for pair in combinations(t, 2))
                   for t in images)
        counts.append((len(pairs), len(images), lvl.ni.count))
    assert counts == [(5, 4, 15), (9, 7, 120), (9, 7, 1920)]


def test_a_flat_composite_dihedral_group_closes_only_in_its_image(monkeypatch, capsys):
    """``genus --group D25`` tests generation in D5, as level 1 of the
    dihedral l=5 tower does: every closure ``_generates`` runs is on D5's
    view, none on D25."""
    groups = []
    generates = hurwitz.nielsen._generates
    monkeypatch.setattr(hurwitz.nielsen, "_generates", lambda group, elems:
                        groups.append(group) or generates(group, elems))
    assert run(["genus", "--group", "D25", "--classes", "[2a,2a,2a,2a]",
                "--mode", "inner-reduced"]) == 0
    assert "genus" in capsys.readouterr().out
    assert groups and {(g.kind, g.data.descriptor) for g in groups} == {("indexed", "D5")}


@pytest.mark.parametrize("k", [2, pytest.param(3, marks=pytest.mark.long)])  # 3: about 5 s
def test_flat_dihedral_group_matches_its_tower_level(k):
    """Flat D_(5^(k+1)) and level k of the X_1(5^(k+1)) tower, both in
    inner-reduced mode, have the same classes, orbit sizes and genera."""
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    level = build_level(spec, cv0, k)
    g = make_group(f"D{5 ** (k + 1)}")
    ni = enumerate_nielsen(g, parse_class_vector(g, "[2a,2a,2a,2a]"), Mode.INNER_REDUCED)
    assert ni.count == level.ni.count and ni.tuples == level.ni.tuples
    flat = [(o.size, o.genus_report.genus) for o in braid_orbits(ni)]
    assert flat == [(o.size, o.genus_report.genus) for o in level.orbits]


def test_lift_refuses_a_level_whose_quotient_is_not_level_zero(monkeypatch):
    """``lift_classes_to_level`` reads level 0 off the level group's own
    generation quotient; a level whose quotient is another group is refused."""
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    gk = spec.level_group(1)
    monkeypatch.setattr(FiniteGroup, "generation_quotient",
                        property(lambda g: (g.indexed(), range(g.order))))
    with pytest.raises(ValidationError, match="^level 1 tests generation in 'D25', not level 0$"):
        lift_classes_to_level(spec, cv0, 1)
    assert gk.generation_quotient[0] is gk.indexed()


@pytest.mark.parametrize("family,ell,k_max,per_step", [
    ("vector", 2, 3, 16),  # of 64 translate tuples, 4 to a K-conjugacy orbit
    ("dihedral", 5, 2, 5),  # of 25
])
def test_frattini_steps_agree_with_every_translate(monkeypatch, family, ell, k_max, per_step):
    """Each tower step is a Frattini cover by the walk over every translate
    tuple, and ``is_frattini_cover`` says so closing one tuple per
    K-conjugacy orbit."""
    spec = TowerSpec(family, ell)
    closures = []
    close = FiniteGroup.close
    monkeypatch.setattr(FiniteGroup, "close", lambda self, *a, **kw:
                        closures.append(self) or close(self, *a, **kw))
    for k in range(1, k_max + 1):
        hom = spec.level_map(k)
        closures.clear()
        assert is_frattini_cover(hom) is True
        assert len(closures) == per_step, k
        assert frattini_by_every_translate(hom) is True


def test_non_frattini_covers_agree_with_every_translate():
    """SL2(Z/9) -> SL2(Z/3) and Z/6 -> Z/3 (kernel of order 2) are not
    Frattini covers, by either walk."""
    sl9, c3 = make_group("SL2(9)"), make_group("gens:[(1,2,3)]")
    c6 = make_group("gens:[(1,2,3,4,5,6)]")
    for hom in (GroupHom(sl9, make_group("SL2(3)"), [tuple(x % 3 for x in g) for g in sl9.gens]),
                GroupHom(c6, c3, c3.gens)):
        assert is_frattini_cover(hom) is False
        assert frattini_by_every_translate(hom) is False


def _no_view(group):
    raise AssertionError(f"the data path built the indexed view of {group.name}")


def test_frattini_check_uses_a_view_source_as_given(monkeypatch):
    """A level map's source is already a view; no view of it is built."""
    hom = TowerSpec("vector", 2).level_map(2)
    monkeypatch.setattr(IndexedGroup, "indexed", _no_view)
    assert is_frattini_cover(hom) is True


def _shapes(group, tuples):
    """HM shape and a cyclically adjacent repeat, each on any of ``tuples``."""
    return (any(tuple_is_hm(group, u) for u in tuples),
            any(u[i] == u[(i + 1) % len(u)] for u in tuples for i in range(len(u))))


@pytest.mark.parametrize("family,ell,k_max,mode", [
    (family, ell, k_max, mode)
    for family, ell, k_max in (("vector", 2, 2), ("vector", 5, 0), ("vector", 7, 0),
                               ("dihedral", 5, 1))
    for mode in (Mode.INNER_REDUCED, Mode.INNER, Mode.ABSOLUTE_REDUCED)
    if family == "dihedral" or mode is not Mode.ABSOLUTE_REDUCED  # needs permutations
])
def test_class_shapes_match_the_four_image_reference(reduction_orbit, family, ell, k_max,
                                                     mode):
    """``cusp_type`` reads the shape flags off each member's rep alone,
    through ``tuple_is_hm`` and ``_has_adjacent_repeat`` at every r.  The
    reference reads them on data off all four images of each member under
    the Klein reduction group, in every mode."""
    spec = TowerSpec(family, ell)
    c0 = "[3a,3a,3b,3b]" if family == "vector" else "[2a,2a,2a,2a]"
    cv0 = parse_class_vector(spec.level_group(0), c0)
    seen = set()
    for k in range(k_max + 1):
        lvl = build_level(spec, cv0, k, mode=mode)
        reference = [_shapes(lvl.group, reduction_orbit(lvl.group, t)) for t in lvl.ni.reps]
        assert [_shapes(lvl.group, [t]) for t in lvl.ni.reps] == reference
        seen.update(reference)
        for o in lvl.orbits:
            for c in o.cusps():
                assert c.members == tuple(lvl.ni.reps[p] for p in c.positions)
                members = [reference[p] for p in c.positions]
                # members in reverse too: the flags must not hang on the first
                for cusp in c, CuspOrbit(c.label, c.width, c.braid_label, c.ni,
                                         c.positions[::-1]):
                    got = cusp_type(cusp, ell)
                    assert got.hm == any(hm for hm, _ in members)
                    assert got.double_identity == any(dbl for _, dbl in members)
                stored = [lvl.ni.tuples[p] for p in c.positions]
                assert got.hm == any(tuple_is_hm(lvl.group.indexed(), u) for u in stored)
                assert got.double_identity == any(map(_has_adjacent_repeat, stored))
    assert len({hm for hm, _ in seen}) == 2 and len({dbl for _, dbl in seen}) == 2


def _inline_r4_shapes(ix, members):
    """The r = 4 shape rule ``cusp_type`` once ran inline: one pass over
    every member, reading inverses off the view's list."""
    inverse, hm, dbl = ix.inverse, False, False
    for g1, g2, g3, g4 in members:
        hm = hm or (g2 == inverse[g1] and g4 == inverse[g3])
        dbl = dbl or g1 == g2 or g2 == g3 or g3 == g4 or g4 == g1
    return hm, dbl


def _uncached_cusp_type(ix, rep, ell):
    """The type ``cusp_type`` gives a cusp with first member rep, from full
    closures made afresh for each subgroup."""
    def prime_to(gens):
        return len(ix.close(gens)) % ell != 0

    if len(rep) != 4:
        return "g-ell-prime" if all(prime_to((g,)) for g in rep) else "unclassified"
    g1, g2, g3, g4 = rep
    if prime_to((g1, g4)) and prime_to((g2, g3)):
        return "g-ell-prime"
    return "o-ell-prime" if ix.element_order(ix.mul(g2, g3)) % ell else "ell-cusp"


@pytest.mark.parametrize("family,ell,classes,k_max,mode,kinds", [
    ("vector", 2, "[3a,3a,3b,3b]", 2, Mode.INNER_REDUCED, 7),
    ("dihedral", 5, "[2a,2a,2a,2a]", 1, Mode.ABSOLUTE_REDUCED, 3),
    # r = 3 on a tower level: every cusp is g-ell-prime with neither shape
    ("vector", 2, "[3a,3a,3a]", 1, Mode.INNER_REDUCED, 1),
])
def test_cusp_columns_match_per_member_scans(family, ell, classes, k_max, mode, kinds):
    """Every cusp's flags, read off the per-set shape columns, are the
    per-member scans of ``tuple_is_hm`` and ``_has_adjacent_repeat``, and
    its type, read through the cached ell' verdicts, is the one computed
    afresh; asking again gives the same classification.  ``kinds`` counts
    the distinct classifications met."""
    spec = TowerSpec(family, ell)
    tree = component_tree(spec, parse_class_vector(spec.level_group(0), classes), k_max,
                          mode=mode)
    assert [lvl.k for lvl in tree.levels] == list(range(k_max + 1))
    seen = set()
    for lvl in tree.levels:
        ix = lvl.group.indexed()
        for o in lvl.orbits:
            for c in o.cusps():
                members = [lvl.ni.tuples[p] for p in c.positions]
                got = cusp_type(c, ell)
                assert got.hm == any(tuple_is_hm(ix, u) for u in members), c.label
                assert got.double_identity == any(map(_has_adjacent_repeat, members)), c.label
                assert got.type == _uncached_cusp_type(ix, members[0], ell), c.label
                assert cusp_type(c, ell) == got
                seen.add(got)
    assert len(seen) == kinds, seen


def test_cusp_shapes_match_the_inline_r4_rule():
    """At r = 4 the shared ``tuple_is_hm`` / ``_has_adjacent_repeat`` rule
    gives the flags of the inline rule it replaced, on every cusp of the
    vector l=2 levels k <= 2."""
    spec = TowerSpec("vector", 2)
    cv0 = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    seen = set()
    for k in range(3):
        lvl = build_level(spec, cv0, k)
        ix = lvl.group.indexed()
        for o in lvl.orbits:
            for c in o.cusps():
                expected = _inline_r4_shapes(ix, [lvl.ni.tuples[p] for p in c.positions])
                got = cusp_type(c, spec.ell)
                assert (got.hm, got.double_identity) == expected, (k, c.label)
                seen.add(expected)
    assert len(seen) >= 3, seen


def _cyclic_split_search(group, t, ell):
    """The rule ``cusp_type`` applied at r != 4 before it tested single
    entries: some cyclic split of t into >= 2 consecutive arcs, each
    generating an l' subgroup."""
    r = len(t)
    return any(
        all(_subgroup_order_prime_to(group, tuple(t[i % r] for i in range(a, b)), ell)
            for a, b in zip(cuts, cuts[1:] + (cuts[0] + r,)))
        for n_cuts in range(2, r + 1) for cuts in combinations(range(r), n_cuts)
    )


@pytest.mark.parametrize("desc,classes", [
    ("A5", "[2a,3a,5a]"), ("A5", "[5a,5a,5a,5a,5a]"),
    ("S4", "[2b,3a,4a]"), ("S4", "[2b,2b,2b,2b,3a]"),
    ("A4", "[2a,3a,3b]"), ("A4", "[3a,3a,3a,3a,3b]"),
    ("D7", "[2a,2a,7a]"), ("D7", "[2a,2a,2a,2a,7a]"),
])
def test_cusp_type_at_other_r_matches_the_split_search(desc, classes):
    """At r != 4 the single-entry test gives the type the search over every
    cyclic split gives, on every member of every cusp."""
    g = make_group(desc)
    ni = enumerate_nielsen(g, parse_class_vector(g, classes), Mode.INNER_REDUCED)
    ix, kinds = g.indexed(), set()
    for o in braid_orbits(ni):
        for c in o.cusps():
            for ell in (2, 3, 5, 7):
                got = cusp_type(c, ell).type
                for p in c.positions:
                    split = _cyclic_split_search(ix, ni.tuples[p], ell)
                    assert got == ("g-ell-prime" if split else "unclassified"), (ell, p)
                    kinds.add(got)
    assert kinds == {"g-ell-prime", "unclassified"}


@pytest.mark.parametrize("ell", [1, 4, 6])
def test_cusp_type_refuses_an_ell_that_is_not_prime(a4_orbits, ell):
    """Cusp types read l' as "order prime to l", the paper's notion only for
    a prime l; 1 and composite l are refused in one line, as ``TowerSpec``
    refuses them."""
    with pytest.raises(ValidationError, match=f"^cusp types need a prime ell, got {ell}$"):
        cusp_type(a4_orbits[0].cusps()[0], ell)


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
    the table cap before its elements are enumerated, in the tree and in the
    Frattini steps."""
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv0, 4, mode=Mode.ABSOLUTE_REDUCED)
    assert tree.truncated_at == 4 and len(tree.levels) == 4
    assert [s.k for s in eventually_frattini_report(spec, 3)] == [1, 2, 3]
    with pytest.raises(BudgetError, match="multiplication table of 'D3125'"):
        eventually_frattini_report(spec, 4)
    assert spec.level_group(4)._elements is None


def test_a_level_zero_over_the_table_cap_raises_the_cap():
    spec = TowerSpec("dihedral", 1009)
    cv0 = ClassVector(spec.level_group(0), (1, 1, 1, 1))
    with pytest.raises(BudgetError, match="multiplication table of 'D1009' .* above the cap"):
        component_tree(spec, cv0, 0, mode=Mode.ABSOLUTE_REDUCED)


def test_tree_chains_reach_level_zero():
    spec = TowerSpec("dihedral", 5)
    cv0 = parse_class_vector(spec.level_group(0), "[2a,2a,2a,2a]")
    tree = component_tree(spec, cv0, 1, mode=Mode.ABSOLUTE_REDUCED)
    assert tree.levels[1].ni.count == 30
    parents = dict(tree.edges)
    for o in tree.levels[-1].orbits:
        chain = [(tree.levels[-1].k, o.label)]
        while chain[-1] in parents:
            chain.append(parents[chain[-1]])
        assert chain[-1][0] == 0
    assert parents[(1, tree.levels[1].orbits[0].label)] == (0, "O1")


@pytest.fixture(scope="module")
def ell5_level0():
    spec = TowerSpec("vector", 5)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    return build_level(spec, cv, 0)


def test_level0_heisenberg_invariants_ell5(ell5_level0):
    lvl = ell5_level0
    assert lvl.ni.count == 312
    assert sorted(o.size for o in lvl.orbits) == [60, 60, 60, 60, 72]
    invs = [lift_invariant(lvl.extension, o.rep) for o in lvl.orbits]
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
    assert ext.base is lvl.group is spec.level_group(0)
    exts = heisenberg_extensions(lvl.group) if ell == 5 else [ext]
    assert len(exts) == (25 if ell == 5 else 1)
    assert exts[0].name == ext.name
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
    """The rule ``TowerLevel.extension`` reads: an order-3 action extends
    to Heis(ell) when det M = 1 mod ell, and otherwise the rule finds the
    kernel not central."""
    ident = ((1, 0), (0, 1))
    seen = set()
    for a, b, c, d in product(range(ell), repeat=4):
        m = ((a, b), (c, d))
        if m == ident or _mat_mul(_mat_mul(m, m, ell), m, ell) != ident:
            continue
        det = (a * d - b * c) % ell
        seen.add(det)
        base = VectorSemidirectGroup(2, ell, m)
        if det == 1:
            assert heisenberg_obstruction(base) is None
            assert extend_action_to_heisenberg(base).kernel_order == ell
        else:
            assert heisenberg_obstruction(base) == "extension kernel is not central"
            with pytest.raises(ValidationError, match="extension kernel is not central"):
                extend_action_to_heisenberg(base)
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
    assert {o.genus_report.genus for o in lvl.orbits} == {1}


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


@pytest.mark.parametrize("budget,verdict", [(63, "skipped"), (64, True)])
def test_frattini_steps_over_the_tuple_budget_read_skipped(budget, verdict, capsys,
                                                          monkeypatch):
    """Each vector l=2 step has a kernel of order 4 over 3 generators, so its
    check walks 4^3 = 64 translate tuples; one budget in ``lift`` decides."""
    monkeypatch.setattr(hurwitz.lift, "FRATTINI_TUPLE_BUDGET", budget)
    assert run(["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
                "--k-max", "2", "--frattini", "--format", "json"]) == 0
    steps = json.loads(capsys.readouterr().out)["frattini_steps"]
    assert steps == [{"k": k, "frattini": verdict, "kernel_order": 4, "kernel_is_ell_group": True}
                     for k in (1, 2)]


@pytest.mark.parametrize("family,ell,k_max", [("vector", 2, 3), ("dihedral", 5, 2)])
def test_kernel_is_ell_group_matches_the_element_order_rule(family, ell, k_max):
    """The report reads an l-group off |K|; every kernel element's order is
    then a power of l, and conversely (Cauchy)."""
    spec = TowerSpec(family, ell)
    steps = eventually_frattini_report(spec, k_max)
    for step in steps:
        hom = spec.level_map(step.k)
        orders = {hom.source.element_order(x) for x in hom.kernel()}
        assert step.kernel_is_ell_group == all(
            hurwitz.tower._ell_prime_part(d, ell) == 1 for d in orders
        ), step
    assert all(step.kernel_is_ell_group for step in steps)


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
    genera = sorted(o.genus_report.genus for o in top.orbits)
    assert genera == [73] * 5 + [361] * 20 + [401] * 4
    assert len(tree.edges) == 29


@pytest.mark.long
def test_vector_tower_ell5_level1_heisenberg_invariants():
    spec = TowerSpec("vector", 5)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    top = component_tree(spec, cv, 1).levels[1]
    labels = [lift_invariant(top.extension, o.rep).label for o in top.orbits]
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
        report = orbit.genus_report
        assert report.degree == ell**k * (ell + 1)
        assert report.genus == genera[k]
