"""Group catalog, conjugacy data, and class-vector parsing."""

import itertools
import random
import time
from math import gcd

import pytest

from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import (
    TABLE_ENTRY_CAP,
    ClassVector,
    PermutationGroup,
    Sl2Group,
    VectorSemidirectGroup,
    _preserves_class_multiset,
    alternating,
    class_power,
    cycle_type,
    dihedral,
    make_group,
    normalizer_in_sym,
    parse_class_vector,
    parse_perm,
    perm_inv,
    perm_mul,
    symmetric,
)
from hurwitz.lift import extend_action_to_heisenberg
from hurwitz.nielsen import Mode, enumerate_nielsen


def sl2_order(m):
    # |SL2(Z/m)| = m^3 * prod over primes p | m of (1 - p^-2)
    n = m ** 3
    p, rest = 2, m
    while rest > 1:
        if rest % p == 0:
            n = n * (p * p - 1) // (p * p)
            while rest % p == 0:
                rest //= p
        p += 1
    return n


def test_perm_composition_applies_left_factor_first():
    a = parse_perm("(1,2)", 3)
    b = parse_perm("(2,3)", 3)
    ab = perm_mul(a, b)
    # 1 -> 2 under a, then 2 -> 3 under b
    assert ab[0] == 2
    assert perm_mul(ab, perm_inv(ab)) == (0, 1, 2)


def test_cycle_type():
    assert cycle_type(parse_perm("(1,2,3)(4,5)", 6)) == (3, 2, 1)


@pytest.mark.parametrize(
    "desc,order",
    [("A4", 12), ("A5", 60), ("S4", 24), ("D5", 10), ("D13", 26)],
)
def test_catalog_orders(desc, order):
    assert make_group(desc).order == order


@pytest.mark.parametrize("m", [3, 5, 9])
def test_sl2_orders(m):
    assert Sl2Group(m).order == sl2_order(m)


def test_order_bound_is_enforced():
    with pytest.raises(BudgetError):
        make_group("SL2(9)", order_bound=100)


def test_identity_and_inverses(a4):
    e = a4.identity
    for g in a4.elements:
        assert a4.mul(g, a4.inv(g)) == e
        assert a4.mul(e, g) == g


def test_a4_conjugacy_classes(a4):
    classes = a4.conjugacy_classes()
    assert [c.label for c in classes] == ["1a", "2a", "3a", "3b"]
    assert [c.size for c in classes] == [1, 3, 4, 4]
    assert [c.element_order for c in classes] == [1, 2, 3, 3]


def test_a5_class_sizes():
    sizes = sorted(c.size for c in make_group("A5").conjugacy_classes())
    assert sizes == [1, 12, 12, 15, 20]


def test_element_order(a4):
    three = a4.parse("(1,2,3)")
    assert a4.element_order(three) == 3
    assert a4.element_order(a4.identity) == 1


def test_generate_subgroup(a4):
    assert len(a4.close([a4.parse("(1,2)(3,4)"), a4.parse("(1,3)(2,4)")])) == 4
    assert a4.subgroup_order([a4.parse("(1,2,3)")]) == 3


def test_class_vector_parsing(a4, a4_cv):
    assert a4_cv.r == 4
    assert list(a4_cv.labels()) == ["3a", "3a", "3b", "3b"]
    assert str(a4_cv) == "[3a,3a,3b,3b]"
    same = parse_class_vector(a4, "[3b,3a,3b,3a]")
    assert same == a4_cv  # order does not matter
    with pytest.raises(ValidationError):
        parse_class_vector(a4, "[3a,9z]")


def test_class_vector_from_representatives(a4, a4_cv):
    cv = parse_class_vector(a4, "[(1,2,3),(1,2,3),(1,3,2),(1,3,2)]")
    assert cv == a4_cv or sorted(cv.labels()) == sorted(a4_cv.labels())


def test_class_power(a4, a4_cv):
    assert class_power(a4_cv, 2) == a4_cv  # squaring swaps 3a and 3b
    single = parse_class_vector(a4, "[3a,3a,3a,3a]")
    assert class_power(single, 2) != single
    assert class_power(single, 4) == single


def test_dihedral_reflection_class():
    d5 = dihedral(5)
    classes = d5.conjugacy_classes()
    refl = [c for c in classes if c.element_order == 2]
    assert len(refl) == 1 and refl[0].size == 5
    d6 = dihedral(6)
    two_classes = [c for c in d6.conjugacy_classes() if c.element_order == 2]
    # even dihedral groups split the reflections (plus the central rotation)
    assert len(two_classes) == 3


def test_vector_semidirect_closure():
    g = VectorSemidirectGroup(2, 5, ((0, -1), (1, -1)))
    assert g.order == 75
    v, a = g.gens[-1]
    assert a == 1 and v == (0, 0)
    # complement has order 3, lattice vectors order 5
    assert g.element_order(g.gens[-1]) == 3
    assert g.element_order(g.gens[0]) == 5


def test_make_group_vector_descriptor():
    g = make_group("V(2,5):M=[[0,-1],[1,-1]]")
    assert g.order == 75


def test_vector_group_with_trivial_action():
    g = make_group("V(2,5):M=[[1,0],[0,1]]")
    assert g.complement_order == 1
    assert g.order == 25


def test_make_group_explicit_gens():
    g = make_group("gens:[(1,2,3),(2,3,4)]")
    assert g.order == 12  # generates A4


def test_make_group_rejects_garbage():
    with pytest.raises(ValidationError):
        make_group("Q8")


def test_normalizer_in_sym(a4, a4_cv):
    # swapping the two 3-cycle classes preserves the multiset {3a,3a,3b,3b},
    # so all of S4 survives; the single-class vector pins the classes down
    assert normalizer_in_sym(a4, a4_cv).order == 24
    single = parse_class_vector(a4, "[3a,3a,3a,3a]")
    assert normalizer_in_sym(a4, single).order == 12
    assert normalizer_in_sym(a4).order == 24


# every ``gens:`` group of the tests, plus A5 and S5 as explicit generators
GENS_GROUPS = {
    "gens:[(1,2,3),(2,3,4)]": [[[1, 2, 3]], [[2, 3, 4]]],
    "gens:[(1,2)(3,4),(1,3)]": [[[1, 2], [3, 4]], [[1, 3]]],
    "gens:[(1,2,3,4),(1,3)]": [[[1, 2, 3, 4]], [[1, 3]]],
    "gens:[(1,2,3),(4,5,6)]": [[[1, 2, 3]], [[4, 5, 6]]],
    "gens:[(1,2,3),(4,5,6),(1,4)]": [[[1, 2, 3]], [[4, 5, 6]], [[1, 4]]],
    "gens:[(1,2,3)]": [[[1, 2, 3]]],
    "gens:[(1,2)]": [[[1, 2]]],
    "gens:[(1,2,3),(3,4,5)]": [[[1, 2, 3]], [[3, 4, 5]]],
    "gens:[(1,2,3,4,5),(1,2)]": [[[1, 2, 3, 4, 5]], [[1, 2]]],
}


@pytest.mark.parametrize("desc", GENS_GROUPS)
def test_normalizer_search_matches_brute_force(desc):
    g = make_group(desc)
    brute = tuple(
        s for s in itertools.permutations(range(g.degree))
        if all(g.conj(x, s) in g for x in g.gens)
    )
    assert normalizer_in_sym(g).elements == brute
    cv = ClassVector(g, (len(g.conjugacy_classes()) - 1,) * 3)
    assert normalizer_in_sym(g, cv).elements == tuple(
        s for s in brute if _preserves_class_multiset(g, cv, s)
    )


def test_normalizer_search_on_degree_nine():
    g = make_group("gens:[(1,2,3),(4,5,6),(7,8,9)]")
    start = time.monotonic()
    # S3 on each block of three and S3 permuting the blocks: 6^3 * 3! = 1296
    assert normalizer_in_sym(g).order == 1296
    assert time.monotonic() - start < 1.0


def class_profile(g):
    return g.order, sorted((c.size, c.element_order) for c in g.conjugacy_classes())


def sympy_profile(group):
    return group.order(), sorted((len(c), next(iter(c)).order())
                                 for c in group.conjugacy_classes())


@pytest.mark.parametrize("desc,name,n", [
    *((f"A{n}", "AlternatingGroup", n) for n in range(3, 7)),
    *((f"S{n}", "SymmetricGroup", n) for n in range(2, 6)),
    *((f"D{n}", "DihedralGroup", n) for n in (3, 4, 5, 6, 7, 12)),
])
def test_catalog_orders_and_class_sizes_match_sympy(desc, name, n):
    named = pytest.importorskip("sympy.combinatorics.named_groups")
    assert class_profile(make_group(desc)) == sympy_profile(getattr(named, name)(n))


@pytest.mark.parametrize("desc", GENS_GROUPS)
def test_gens_orders_and_class_sizes_match_sympy(desc):
    comb = pytest.importorskip("sympy.combinatorics")
    cycles = GENS_GROUPS[desc]
    degree = max(x for gen in cycles for c in gen for x in c)
    perms = [comb.Permutation([[x - 1 for x in c] for c in gen], size=degree)
             for gen in cycles]
    assert class_profile(make_group(desc)) == sympy_profile(comb.PermutationGroup(perms))


def test_catalog_generator_outside_the_normalizer_is_an_error():
    d5 = make_group("D5")
    d5.sym_normalizer_gens = d5.sym_normalizer_gens + [parse_perm("(1,2)", 5)]
    cv = parse_class_vector(d5, "[2a,2a,2a,2a]")
    with pytest.raises(ValidationError, match="does not normalize D5"):
        normalizer_in_sym(d5)
    with pytest.raises(ValidationError, match="does not normalize D5"):
        enumerate_nielsen(d5, cv, Mode.ABSOLUTE_REDUCED)


@pytest.mark.parametrize("n", range(3, 61))
def test_dihedral_catalog_generates_the_affine_group(n):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    gens = dihedral(n).sym_normalizer_gens
    affine = [tuple((a * i + b) % n for i in range(n)) for a in units for b in range(n)]
    assert sorted(PermutationGroup(gens, n, "N").elements) == sorted(affine)
    # a single multiplier exactly when some unit has order phi(n)
    cyclic = any(len({pow(a, k, n) for k in range(n)}) == len(units) for a in units)
    assert (len(gens) == 2) == cyclic


def test_symmetric_and_alternating_consistency():
    s4 = symmetric(4)
    a4 = alternating(4)
    assert set(a4.elements) <= set(s4.elements)
    assert s4.order == 2 * a4.order


SMALL_GROUPS = ["A4", "D7", "V(2,5):M=[[0,-1],[1,-1]]"]


@pytest.mark.parametrize("desc", SMALL_GROUPS)
def test_early_exit_closure_decides_generation(desc):
    g = make_group(desc)
    half = g.order // 2
    rng = random.Random(3)
    seen = set()
    for size in (1, 2, 3):
        for _ in range(20):
            s = rng.sample(g.elements, size)
            early = len(g.close(s, stop_above=half)) > half
            assert early == (len(g.close(s)) == g.order), s
            seen.add(early)
    assert seen == {True, False}


@pytest.mark.parametrize("desc", SMALL_GROUPS)
def test_power_matches_repeated_multiplication(desc):
    g = make_group(desc)
    for x in random.Random(4).sample(g.elements, 4):
        y = g.identity
        for m in range(2 * g.order + 1):
            assert g.power(x, m) == y, (x, m)
            y = g.mul(y, x)
        assert g.power(x, -1) == g.inv(x)


def _table_group(desc):
    if desc == "Heis(5):3":
        return extend_action_to_heisenberg(5, ((0, -1), (1, -1))).cover
    return make_group(desc)


@pytest.mark.parametrize(
    "desc", ["A4", "D7", "SL2(3)", "Heis(3)", "V(2,5):M=[[0,-1],[1,-1]]", "Heis(5):3"]
)
def test_indexed_view_matches_data_arithmetic(desc):
    g = _table_group(desc)
    ix = g.indexed()
    els = g.elements
    index = {x: i for i, x in enumerate(els)}
    assert ix.elements == tuple(range(g.order))
    assert ix.identity == index[g.identity]
    assert ix.gens == tuple(index[x] for x in g.gens)
    for i, a in enumerate(els):
        assert ix.table[i] == tuple(index[g.mul(a, b)] for b in els)
        assert ix.inverse[i] == index[g.inv(a)]
        assert ix.class_index_of(i) == g.class_index_of(a)
    assert [(c.label, c.size, els[c.rep]) for c in ix.conjugacy_classes()] == [
        (c.label, c.size, c.rep) for c in g.conjugacy_classes()
    ]
    assert g.indexed() is ix
    last = g.order - 1
    assert ix.format(last) == g.format(els[last])
    if desc != "Heis(5):3":  # the semidirect kind has no parser
        assert ix.parse(g.format(els[last])) == last


def test_indexed_view_refuses_tables_above_the_cap():
    s7 = make_group("S7")
    assert s7.order ** 2 > TABLE_ENTRY_CAP
    with pytest.raises(BudgetError):
        s7.indexed()
