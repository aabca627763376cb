import random
from itertools import product

import pytest

import hurwitz.lift
from hurwitz.braid import braid_orbits
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import (
    FiniteGroup,
    HeisenbergGroup,
    Sl2Group,
    VectorSemidirectGroup,
    make_group,
    parse_class_vector,
)
from hurwitz.lift import (
    CentralExtension,
    GroupHom,
    extend_action_to_heisenberg,
    heisenberg_obstruction,
    is_frattini_cover,
    lift_invariant,
    same_order_lift,
    spin_cover,
)
from hurwitz.nielsen import Mode, enumerate_nielsen
from hurwitz.tower import COMPANION, TowerSpec, build_level
from reference_routines import (
    alpha_extension,
    heisenberg_corrections,
    heisenberg_extensions,
    lift_class_vector,
    tuple_cover_genus,
)


@pytest.fixture(scope="module")
def spin4(a4):
    return spin_cover(4, a4)


def test_group_hom_verifies_multiplicativity():
    c3 = make_group("gens:[(1,2,3)]")
    s3 = make_group("S3")
    with pytest.raises(ValidationError, match="do not define a homomorphism"):
        # a transposition lies in S3 but cannot be the image of a 3-cycle
        GroupHom(c3, s3, [s3.parse("(1,2)")])


def test_group_hom_kernel_and_preimage(spin4):
    hom = spin4.projection
    assert len(hom.kernel()) == 2
    assert hom.is_surjective
    e = spin4.base.identity
    assert [x for x in spin4.cover.elements if hom(x) == e] == list(hom.kernel())
    for y in spin4.base.elements[:5]:
        assert hom(hom.preimage(y)) == y


def test_group_hom_stores_only_its_element_images(spin4):
    hom = spin4.projection
    assert set(vars(hom)) == {"source", "target", "element_images"}
    assert hom.element_images == tuple(map(hom, hom.source.elements))


def test_group_hom_lists_an_unlisted_source_in_its_search(monkeypatch):
    """A source not yet listed is listed by the map's own breadth-first
    search, with no closure of its own, in the order ``elements`` gives; an
    order bound below its order stops that search with the closure's error."""
    listed = Sl2Group(9)
    walked = Sl2Group(9)
    monkeypatch.setattr(walked, "close", lambda *a, **k: pytest.fail("closed the source"))
    hom = GroupHom(walked, Sl2Group(3), [tuple(x % 3 for x in g) for g in walked.gens])
    monkeypatch.undo()
    assert walked.elements == listed.elements
    assert hom.element_images == tuple(tuple(x % 3 for x in g) for g in listed.elements)
    small = Sl2Group(9, order_bound=100)
    with pytest.raises(BudgetError, match="exceeded order bound 100"):
        GroupHom(small, Sl2Group(3), [tuple(x % 3 for x in g) for g in small.gens])


def _c3_in_s3():
    c3, s3 = make_group("gens:[(1,2,3)]"), make_group("S3")
    return GroupHom(c3, s3, [s3.parse("(1,2,3)")])


def test_group_hom_preimage_off_the_image_is_refused():
    hom = _c3_in_s3()
    assert not hom.is_surjective
    assert hom.preimage(hom.target.parse("(1,3,2)")) == hom.source.parse("(1,3,2)")
    with pytest.raises(ValidationError, match="element has no preimage"):
        hom.preimage(hom.target.parse("(1,2)"))


def test_frattini_test_needs_a_surjection():
    with pytest.raises(ValidationError, match="Frattini test needs a surjective homomorphism"):
        is_frattini_cover(_c3_in_s3())


def test_frattini_test_refuses_above_its_tuple_budget_before_any_closure(monkeypatch):
    big = VectorSemidirectGroup(2, 4, ((0, -1), (1, -1)))
    small = VectorSemidirectGroup(2, 2, ((0, -1), (1, -1)))
    hom = GroupHom(big, small, small.gens)
    closures = []
    close = FiniteGroup.close
    monkeypatch.setattr(FiniteGroup, "close",
                        lambda self, *a, **kw: closures.append(self) or close(self, *a, **kw))
    monkeypatch.setattr(hurwitz.lift, "FRATTINI_TUPLE_BUDGET", 63)
    with pytest.raises(BudgetError, match="needs 64 kernel-translate tuples, above the budget 63"):
        is_frattini_cover(hom)
    assert closures == []
    monkeypatch.setattr(hurwitz.lift, "FRATTINI_TUPLE_BUDGET", 64)
    assert is_frattini_cover(hom) is True and closures


def test_cover_genus_through_an_embedding(spin4):
    sl2, a4, hom = spin4.cover, spin4.base, spin4.projection
    ni = enumerate_nielsen(sl2, parse_class_vector(sl2, "[3a,3a,3b,3b]"),
                           Mode.INNER_REDUCED)
    assert ni.count > 0
    for t in ni.reps:
        got = tuple_cover_genus(sl2, t, embedding=hom)
        assert got == tuple_cover_genus(a4, tuple(map(hom, t)))
        assert got.degree == 4


def test_spin4_shape(spin4):
    assert spin4.cover.order == 24
    assert spin4.base.order == 12
    assert spin4.kernel_order == 2
    assert spin4.kernel_exponent == 2


def test_same_order_lift(spin4):
    involution = None
    for g in spin4.base.elements:
        d = spin4.base.element_order(g)
        if d % 2 == 0:
            involution = g
            continue
        lifted = same_order_lift(spin4, g)
        assert spin4.cover.element_order(lifted) == d
        assert spin4.projection(lifted) == g
    # order not coprime to the kernel exponent has no unique lift
    with pytest.raises(ValidationError):
        same_order_lift(spin4, involution)


def test_spin_separates_a4_orbits(spin4, a4_orbits):
    invs = [lift_invariant(spin4, o.rep) for o in a4_orbits]
    assert invs[0].trivial is False  # size-6 component is obstructed
    assert invs[1].trivial is True
    assert not lift_invariant(spin4, a4_orbits[0].rep).trivial
    assert lift_invariant(spin4, a4_orbits[1].rep).trivial
    minus_one = tuple(-x % 3 for x in spin4.cover.identity)
    assert invs[0].value == minus_one


def test_invariant_constant_on_orbit(spin4, a4_orbits):
    for o in a4_orbits:
        values = {lift_invariant(spin4, t).value for t in o.members}
        assert len(values) == 1


def test_lifted_nielsen_class_matches_unobstructed_orbit(spin4, a4_cv, a4_orbits):
    lifted = lift_class_vector(spin4, a4_cv)
    ni = enumerate_nielsen(spin4.cover, lifted, Mode.INNER_REDUCED)
    assert ni.count == 9
    orbits = braid_orbits(ni)
    assert [o.size for o in orbits] == [9]
    # projecting the lifted classes hits exactly the trivial-invariant orbit
    from hurwitz.nielsen import canonicalize

    proj = spin4.projection
    target = a4_orbits[1]
    images = {
        canonicalize(target.ni.group, tuple(proj(g) for g in t),
                     Mode.INNER_REDUCED, target.ni.cv)
        for t in orbits[0].members
    }
    assert images == set(target.members)


def test_obstructed_class_lifts_to_empty(spin4, a4):
    cv = parse_class_vector(a4, "[3a,3a,3a]")
    ni = enumerate_nielsen(a4, cv, Mode.INNER_REDUCED)
    assert ni.count == 1
    assert not lift_invariant(spin4, ni.reps[0]).trivial
    lifted = lift_class_vector(spin4, cv)
    assert enumerate_nielsen(spin4.cover, lifted, Mode.INNER_REDUCED).count == 0


def test_spin5_single_orbit_unobstructed():
    spin5 = spin_cover(5, make_group("A5"))
    a5 = spin5.base
    cv = parse_class_vector(a5, "[3a,3a,3a,3a]")
    ni = enumerate_nielsen(a5, cv, Mode.INNER)
    orbits = braid_orbits(ni)
    assert len(orbits) == 1
    assert lift_invariant(spin5, orbits[0].rep).trivial


def test_spin_cover_rejects_other_degrees():
    with pytest.raises(ValidationError, match="built in for n = 4 and n = 5 only"):
        spin_cover(6, make_group("A6"))


@pytest.mark.parametrize("n,desc", [
    (4, "A5"), (4, "S4"), (5, "A4"), (4, "SL2(3)"), (4, "gens:[(1,2,3,4),(1,3)]"),
    (4, "V(2,5):M=[[0,-1],[1,-1]]"),
])
def test_spin_cover_refuses_a_base_that_is_not_a_n_on_n_points(n, desc):
    base = make_group(desc)
    with pytest.raises(ValidationError, match=f"^spin{n} covers A{n} on {n} points, not '"):
        spin_cover(n, base)


@pytest.mark.parametrize("n,desc", [
    (4, "A4"), (4, "gens:[(2,3,4),(1,2)(3,4)]"), (5, "A5"), (5, "gens:[(1,2,3,4,5),(1,2,3)]"),
])
def test_spin_cover_is_built_over_the_group_it_is_given(n, desc):
    base = make_group(desc)
    ext = spin_cover(n, base)
    assert ext.base is base and ext.projection.target is base
    assert ext.kernel_order == 2 and ext.cover.order == 2 * base.order


def test_heisenberg_cover_shape():
    base = make_group("V(2,5):M=[[0,-1],[1,-1]]")
    ext = extend_action_to_heisenberg(base)
    assert ext.base is base
    assert ext.base.order == 75
    assert ext.cover.order == 375
    assert ext.kernel_order == 5
    assert ext.kernel_exponent == 5
    # central kernel really is the z-axis
    zaxis = {g for g in ext.cover.elements if ext.projection(g) == ext.base.identity}
    assert set(ext.kernel) == zaxis


def test_heisenberg_alternative_corrections():
    base = make_group("V(2,5):M=[[0,-1],[1,-1]]")
    ext, *alts = heisenberg_extensions(base)
    assert ext.name == extend_action_to_heisenberg(base).name
    assert len(alts) == 24  # all 25 linear corrections work for this action
    assert all(a.kernel_order == 5 for a in alts[:3])


def _alpha_from_formula(mat, m):
    """alpha(x, y, z) = ((x, y)*M, z + ((x, y)*M)_1 ((x, y)*M)_2 / 2 - x*y/2
    + s*x + t*y) for the integer matrix M and the least (s, t) whose alpha
    has alpha^3 fixing both generators, as an automorphism of Heis(m)
    checked on every element by ``GroupHom``."""
    (a, b), (c, d) = mat
    half = pow(2, -1, m)

    def alpha(h, s, t):
        x, y, z = h
        u, w = (a * x + c * y) % m, (b * x + d * y) % m
        return (u, w, (z + (u * w - x * y) * half + s * x + t * y) % m)

    def cubed_fixes(h, s, t):
        return alpha(alpha(alpha(h, s, t), s, t), s, t) == h

    gens = ((1, 0, 0), (0, 1, 0))
    s, t = next((s, t) for s in range(m) for t in range(m)
                if all(cubed_fixes(h, s, t) for h in gens))
    heis = HeisenbergGroup(m)
    return heis, GroupHom(heis, heis, [alpha(h, s, t) for h in gens]), (s, t)


def _to_upper_gauge(g, m):
    """phi((x, y, z), a) = ((x, y, z + x*y/2), a): symmetric to upper gauge."""
    (x, y, z), a = g
    return ((x, y, (z + x * y * pow(2, -1, m)) % m), a)


@pytest.mark.parametrize("mat,m", [
    *((COMPANION, m) for m in (5, 7, 11, 25)),
    # the benchmark's seed-7 action and another conjugate of the companion
    # matrix, both of determinant 1
    *((mat, m) for mat in (((1, -3), (1, -2)), ((4, -7), (3, -5))) for m in (5, 7, 25)),
])
def test_symmetric_gauge_cover_is_the_alpha_model_at_0_0(mat, m):
    """phi is a bijective homomorphism from the cover onto the upper-gauge
    semidirect product Heis(m) x| Z/3 for the least valid alpha, which is
    the one at (s, t) = (0, 0)."""
    heis, alpha, (s, t) = _alpha_from_formula(mat, m)
    assert (s, t) == (0, 0)
    assert alpha.is_surjective  # so alpha is an automorphism
    pows = [{h: h for h in heis.elements}]
    for _ in range(3):
        pows.append({h: alpha(pows[-1][h]) for h in heis.elements})
    assert pows[3] == pows[0]

    base = VectorSemidirectGroup(2, m, mat)
    assert next(heisenberg_corrections(base)) == (0, 0)
    model = alpha_extension(base, 0, 0).cover
    ext = extend_action_to_heisenberg(base)
    assert ext.name == f"heis({m})[0,0]"
    cover = ext.cover
    elements = [(h, a) for h in heis.elements for a in range(3)]
    phi = {g: _to_upper_gauge(g, m) for g in elements}
    assert set(phi.values()) == set(elements)  # a bijection
    if m == 5:
        pairs = list(product(elements, repeat=2))
    else:
        rng = random.Random(m)
        pairs = [(x, g) for x in elements for g in cover.gens]
        pairs += [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
    for g, h in pairs:
        (h1, a), (h2, b) = phi[g], phi[h]
        want = (heis.mul(pows[b][h1], h2), (a + b) % 3)
        assert phi[cover.mul(g, h)] == model.mul(phi[g], phi[h]) == want
    assert all(phi[cover.inv(x)] == model.inv(phi[x]) for x in elements)
    assert all(cover.mul(x, cover.inv(x)) == cover.identity for x in elements)

    assert ext.kernel == tuple(((0, 0, z), 0) for z in range(m))
    assert all(phi[k] == k for k in ext.kernel)
    assert ext.kernel_order == ext.kernel_exponent == m
    assert all(cover.mul(k, g) == cover.mul(g, k)
               for k in ext.kernel for g in cover.gens)
    # the lattice generators commute in the base, but no lifts of them do
    l1, l2 = (ext.section(g) for g in ext.base.gens[:2])
    comm = cover.mul(cover.mul(cover.inv(l1), cover.inv(l2)), cover.mul(l1, l2))
    assert comm in ext.kernel and comm != cover.identity


@pytest.mark.parametrize("ell,k,action", [
    *((ell, 0, action) for ell in (5, 7) for action in (COMPANION, ((1, -3), (1, -2)))),
    # with the ell = 5 companion case, the groups of the golden heis(5) lift runs
    (5, 0, ((4, -7), (3, -5))),
    *(pytest.param(5, 1, action, marks=pytest.mark.long)  # 195,000 classes each
      for action in (COMPANION, ((1, -3), (1, -2)))),
])
def test_lift_invariants_agree_with_the_alpha_model(ell, k, action):
    """Every orbit's lift invariant is the same label through the cover and
    through the upper-gauge model at (0, 0)."""
    spec = TowerSpec("vector", ell, action=action)
    lvl = build_level(spec, parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]"), k)
    model = alpha_extension(lvl.group, 0, 0)
    labels = [lift_invariant(lvl.extension, o.rep).label for o in lvl.orbits]
    assert labels == [lift_invariant(model, o.rep).label for o in lvl.orbits]
    assert labels.count("1") < len(labels)


@pytest.mark.parametrize("m,message", [
    (((0, -1, 0), (1, -1, 0), (0, 0, 1)), "Heisenberg covers need a rank-2 vector group"),
    ([[0.9, -1], [1, -1]], "action matrix must be 2x2 with integer entries"),
    ([[0, -1], [True, -1]], "action matrix must be 2x2 with integer entries"),
    ([[0, "a"], [1, -1]], "action matrix must be 2x2 with integer entries"),
    (((1, 0), (0, 1)), "must have order exactly 3"),
    (((0, 1), (1, 0)), "must have order exactly 3"),
])
def test_heisenberg_rejects_bad_matrices(m, message):
    """The base group checks its own matrix; the rule checks the rank and order."""
    with pytest.raises(ValidationError, match=message):
        extend_action_to_heisenberg(VectorSemidirectGroup(len(m), 5, m))


@pytest.mark.parametrize("desc", ["A4", "Heis(5)", "SL2(5)", "D5", "V(1,7):M=[[2]]"])
def test_heisenberg_rule_refuses_groups_that_are_not_rank_2_vector_groups(desc):
    base = make_group(desc)
    assert heisenberg_obstruction(base) == "Heisenberg covers need a rank-2 vector group"
    with pytest.raises(ValidationError, match="need a rank-2 vector group"):
        extend_action_to_heisenberg(base)


def test_lift_invariant_refuses_a_tuple_that_is_not_product_one(spin4):
    c = spin4.base.parse("(1,2,3)")
    with pytest.raises(ValidationError, match="lift product landed outside the kernel"):
        lift_invariant(spin4, (c, c))


@pytest.mark.parametrize("m", [9, 4, 2, 6])  # 9 not prime to 3, 4 even
def test_heisenberg_rejects_bad_modulus(m):
    with pytest.raises(ValidationError, match="needs an odd modulus prime to 3"):
        extend_action_to_heisenberg(VectorSemidirectGroup(2, m, COMPANION))


def test_frattini_small_tower_step():
    big = VectorSemidirectGroup(2, 4, ((0, -1), (1, -1)))
    small = VectorSemidirectGroup(2, 2, ((0, -1), (1, -1)))
    hom = GroupHom(big, small, small.gens)  # reduction mod 2
    assert is_frattini_cover(hom) is True


def test_frattini_sl2_9_to_3_fails():
    big = Sl2Group(9)
    hom = GroupHom(big, Sl2Group(3), [tuple(x % 3 for x in g) for g in big.gens])
    assert is_frattini_cover(hom) is False


@pytest.mark.slow
def test_frattini_sl2_27_to_9_passes():
    big = Sl2Group(27, order_bound=20000)
    small = Sl2Group(9)
    hom = GroupHom(big, small, [tuple(x % 9 for x in g) for g in big.gens])
    assert is_frattini_cover(hom) is True


@pytest.mark.long
def test_frattini_sl2_25_to_5_passes():
    big = Sl2Group(25, order_bound=20000)
    small = Sl2Group(5)
    hom = GroupHom(big, small, [tuple(x % 5 for x in g) for g in big.gens])
    assert is_frattini_cover(hom) is True


def test_central_extension_rejects_noncentral_kernel():
    s4 = make_group("S4")
    c2 = make_group("gens:[(1,2)]")
    sign = GroupHom(s4, c2, [c2.identity if _is_even(g) else (1, 0) for g in s4.gens])
    with pytest.raises(ValidationError):
        # kernel A4 is not central in S4
        CentralExtension(s4, c2, sign, sign.preimage, sign.kernel(), "sign")


def _is_even(p):
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            parity ^= (length - 1) & 1
    return parity == 0
