"""End-to-end checks of the worked examples, with their runtime budgets.

Each test is one verdict line under ``pytest -v``.  Expected values are the
published tables for the A4 and dihedral families plus independently derived
oracles (classical modular-curve data, lift-invariant laws) for the rest.
"""

import itertools
import json
import time

import pytest

from hurwitz.braid import apply_qi, braid_orbits, verify_braid_relations
from hurwitz.cli import run
from hurwitz.geometry import genus_of_component, sh_incidence
from hurwitz.groups import Sl2Group, VectorSemidirectGroup, make_group, parse_class_vector
from hurwitz.lift import (
    GroupHom,
    is_frattini_cover,
    lift_invariant,
    spin_cover,
)
from hurwitz.nielsen import Mode, canonicalize, enumerate_nielsen
from hurwitz.tower import (
    TowerSpec,
    build_level,
    component_tree,
    cusp_type,
    lift_classes_to_level,
)
from reference_routines import inner_absolute_fibers, lift_class_vector, project_tuple


def build_a4():
    g = make_group("A4")
    cv = parse_class_vector(g, "[3a,3a,3b,3b]")
    ni = enumerate_nielsen(g, cv, Mode.INNER_REDUCED)
    return g, cv, ni, braid_orbits(ni)


def blocks_agree(block, widths, target, target_widths):
    """Equality after any width-preserving simultaneous row/col relabeling."""
    n = len(widths)
    for perm in itertools.permutations(range(n)):
        if [widths[p] for p in perm] != list(target_widths):
            continue
        if all(block[perm[i]][perm[j]] == target[i][j]
               for i in range(n) for j in range(n)):
            return True
    return False


def test_a4_orbit_tables():
    start = time.monotonic()
    _, _, ni, orbits = build_a4()
    assert ni.count == 15
    assert [o.size for o in orbits] == [6, 9]
    widths = [sorted((c.width for c in o.cusps()), reverse=True) for o in orbits]
    assert widths == [[4, 1, 1], [4, 3, 2]]
    minus, plus = sh_incidence(orbits).blocks
    assert blocks_agree(
        minus.matrix, [c.width for c in orbits[0].cusps()],
        [[2, 1, 1], [1, 0, 0], [1, 0, 0]], [4, 1, 1],
    )
    assert blocks_agree(
        plus.matrix, [c.width for c in orbits[1].cusps()],
        [[1, 1, 2], [1, 0, 1], [2, 1, 0]], [4, 2, 3],
    )
    assert time.monotonic() - start < 1.0


def test_a4_component_genus():
    start = time.monotonic()
    _, _, _, orbits = build_a4()
    reports = {o.size: genus_of_component(o) for o in orbits}
    assert reports[9].indices == (6, 4, 6)
    assert reports[6].indices == (4, 3, 3)
    assert reports[9].genus == 0 and reports[6].genus == 0
    assert 2 * (9 + reports[9].genus - 1) == sum(reports[9].indices) == 16
    # gamma1 fixes exactly one member, lying in the width-4 cusp; gamma0 none
    for o in orbits:
        gamma0, gamma1, _ = o.gamma_maps
        assert all(i != j for i, j in enumerate(gamma0))
        fixed = [o.members[i] for i, j in enumerate(gamma1) if i == j]
        if o.size == 9:
            assert len(fixed) == 1
            wide = next(c for c in o.cusps() if c.width == 4)
            assert fixed[0] in wide.members
        else:
            assert fixed == []
    assert time.monotonic() - start < 1.0


def test_double_cover_separates_a4_components():
    start = time.monotonic()
    a4, a4_cv, _, orbits = build_a4()
    spin4 = spin_cover(4, a4)
    invs = {o.size: lift_invariant(spin4, o.rep) for o in orbits}
    assert invs[9].trivial and not invs[6].trivial
    assert invs[9].value != invs[6].value
    lifted = lift_class_vector(spin4, a4_cv)
    up = enumerate_nielsen(spin4.cover, lifted, Mode.INNER_REDUCED)
    up_orbits = braid_orbits(up)
    assert up.count == 9
    assert [o.size for o in up_orbits] == [9]
    trivial_orbit = next(o for o in orbits if o.size == 9)
    proj = spin4.projection
    images = {
        canonicalize(a4, tuple(proj(g) for g in t), Mode.INNER_REDUCED, a4_cv)
        for t in up_orbits[0].members
    }
    assert images == set(trivial_orbit.members)  # bijection of 9 onto 9
    assert time.monotonic() - start < 1.0


def test_alternating_lift_invariant_law():
    start = time.monotonic()
    # three 3-cycles on four letters: obstructed (sign -1)
    a4 = make_group("A4")
    spin4 = spin_cover(4, a4)
    cv3 = parse_class_vector(a4, "[3a,3a,3a]")
    ni3 = enumerate_nielsen(a4, cv3, Mode.INNER_REDUCED)
    assert ni3.count == 1
    assert not lift_invariant(spin4, ni3.reps[0]).trivial
    assert enumerate_nielsen(
        spin4.cover, lift_class_vector(spin4, cv3), Mode.INNER_REDUCED
    ).count == 0
    # four 3-cycles on five letters: one braid orbit, unobstructed (sign +1)
    spin5 = spin_cover(5, make_group("A5"))
    a5 = spin5.base
    cv4 = parse_class_vector(a5, "[3a,3a,3a,3a]")
    ni4 = enumerate_nielsen(a5, cv4, Mode.INNER)
    orbits = braid_orbits(ni4)
    assert len(orbits) == 1
    assert lift_invariant(spin5, orbits[0].rep).trivial
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("ell", [5, 7])
def test_vector_level0_components(ell):
    start = time.monotonic()
    spec = TowerSpec("vector", ell)
    cv = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
    lvl = build_level(spec, cv, 0)
    invs = {o.label: lift_invariant(lvl.extension, o.rep) for o in lvl.orbits}
    trivial = [o for o in lvl.orbits if invs[o.label].trivial]
    assert len(trivial) == 1  # K_ell = 1
    trivial_types = [cusp_type(c, ell) for c in trivial[0].cusps()]
    assert any(t.hm is True for t in trivial_types)
    # the nontrivial invariants cover (Z/ell)^* exactly
    nontrivial = [o for o in lvl.orbits if not invs[o.label].trivial]
    assert len({invs[o.label].label for o in nontrivial}) == ell - 1
    for o in nontrivial:
        types = [cusp_type(c, ell) for c in o.cusps()]
        assert any(t.double_identity for t in types)
    assert time.monotonic() - start < 60.0


@pytest.mark.parametrize("ell,genus", [
    (5, 0), (7, 0), (11, 1), (13, 0), (17, 1), (19, 1), (23, 2), (29, 2),
    (31, 2), (37, 2),
])
def test_dihedral_components_match_modular_curves(ell, genus):
    start = time.monotonic()
    g = make_group(f"D{ell}")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    ni = enumerate_nielsen(g, cv, Mode.ABSOLUTE_REDUCED)
    orbits = braid_orbits(ni)
    assert len(orbits) == 1
    report = genus_of_component(orbits[0])
    assert report.degree == ell + 1
    assert sorted(report.cusp_widths) == [1, ell]
    assert report.genus == genus
    fibers = inner_absolute_fibers(g, cv)
    assert set(fibers.class_fibers) == {(ell - 1) // 2}
    assert time.monotonic() - start < 30.0


def test_frattini_fast_cases():
    sl9 = Sl2Group(9)
    hom93 = GroupHom(sl9, Sl2Group(3), [tuple(x % 3 for x in g) for g in sl9.gens])
    assert is_frattini_cover(hom93) is False
    big = VectorSemidirectGroup(2, 4, ((0, -1), (1, -1)))
    small = VectorSemidirectGroup(2, 2, ((0, -1), (1, -1)))
    step = GroupHom(big, small, small.gens)  # reduction mod 2
    assert is_frattini_cover(step) is True


def test_frattini_steps_stop_at_the_deepest_built_level(capsys):
    """``tower --frattini`` reads each step off the level maps of the built
    levels only, so a tower truncated at the table cap costs about what it
    costs without the flag."""
    start = time.monotonic()
    assert run(["tower", "--family", "vector", "--ell", "2", "--classes",
                "[3a,3a,3b,3b]", "--k-max", "6", "--frattini", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["truncated_at"] == 4
    assert [(s["k"], s["frattini"]) for s in data["frattini_steps"]] == \
        [(1, True), (2, True), (3, True)]
    assert time.monotonic() - start < 5.0


def test_property_suites_zero_violations():
    examples = [
        ("A4", "[3a,3a,3b,3b]"),
        ("SL2(3)", "[3a,3a,3b,3b]"),
        ("A5", "[3a,3a,3a,3a]"),
        ("D5", "[2a,2a,2a,2a]"),
        ("D7", "[2a,2a,2a,2a]"),
        ("D11", "[2a,2a,2a,2a]"),
        ("D13", "[2a,2a,2a,2a]"),
        ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]"),
        ("V(2,7):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]"),
    ]
    for desc, classes in examples:
        g = make_group(desc)
        cv = parse_class_vector(g, classes)
        report = verify_braid_relations(g, cv, sample_size=12, seed=5)
        bad = [c.name for c in report.checks if not c.passed]
        assert report.passed, (desc, bad)
    # lift invariants are braid-orbit constants (exhaustive on both orbits)
    a4, _, _, orbits = build_a4()
    spin4 = spin_cover(4, a4)
    for o in orbits:
        assert len({lift_invariant(spin4, t).value for t in o.members}) == 1
    # projection commutes with every braid move, member by member
    spec = TowerSpec("vector", 2)
    g1, g0 = spec.level_group(1), spec.level_group(0)
    cv1 = lift_classes_to_level(
        spec, parse_class_vector(g0, "[3a,3a,3b,3b]"), 1
    )
    for t in enumerate_nielsen(g1, cv1, Mode.RAW).reps[:200]:
        for i in (1, 2, 3):
            assert project_tuple(spec, 1, apply_qi(g1, t, i)) == apply_qi(
                g0, project_tuple(spec, 1, t), i
            )


def test_level1_tower_edges_cover_both_components():
    start = time.monotonic()
    spec = TowerSpec("vector", 2)
    g0 = spec.level_group(0)
    assert spec.level_group(1).order == 48
    cv0 = parse_class_vector(g0, "[3a,3a,3b,3b]")
    tree = component_tree(spec, cv0, 1)
    level1 = tree.levels[1]
    assert sorted(o.size for o in level1.orbits) == [24, 24, 36, 36]
    parents = {dict(tree.edges)[(1, o.label)] for o in level1.orbits}
    assert parents == {(0, "O1"), (0, "O2")}  # neither component obstructed
    assert time.monotonic() - start < 60.0
