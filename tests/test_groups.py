"""Group catalog, conjugacy data, and class-vector parsing."""

import itertools
import random
import time
from math import factorial, gcd, lcm

import pytest

from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import (
    TABLE_ENTRY_CAP,
    FiniteGroup,
    PermutationGroup,
    Sl2Group,
    VectorSemidirectGroup,
    _det_mod,
    _symmetric_gens,
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
from hurwitz.tower import TowerSpec
from reference_routines import det_by_cofactors


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


# dihedral n up to 40 takes in every prime of the benchmark's genus sweep
@pytest.mark.parametrize("desc", [
    *(f"D{n}" for n in range(3, 41)),
    *(f"A{n}" for n in range(3, 8)),
    *(f"S{n}" for n in range(2, 7)),
    *(f"SL2({m})" for m in range(2, 13)),
    *(f"Heis({m})" for m in range(2, 8)),
    "V(2,5):M=[[0,-1],[1,-1]]", "V(2,4):M=[[0,-1],[1,-1]]", "V(2,7):M=[[2,0],[0,2]]",
    "V(1,7):M=[[3]]", "V(3,2):M=[[0,0,1],[1,0,1],[0,1,0]]", "V(2,6):M=[[1,0],[0,1]]",
])
def test_closed_form_orders_match_the_listed_orders(desc):
    group = make_group(desc)
    assert group._elements is None  # the order bound was checked without a listing
    assert group.order == len(group.elements)


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
    a4.conjugacy_classes()  # orders are read off the classes from now on
    with pytest.raises(ValidationError, match=r"element \(1,2\) is not in A4"):
        a4.element_order(a4.parse("(1,2)"))


def test_generate_subgroup(a4):
    assert len(a4.close([a4.parse("(1,2)(3,4)"), a4.parse("(1,3)(2,4)")])) == 4
    assert len(a4.close([a4.parse("(1,2,3)")])) == 3


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


@pytest.mark.parametrize("desc,short,full", [
    # an SL2 element starts with "[[", and its suffix used to be refused
    ("SL2(3)", "[[[1,1],[0,1]]x2,[[1,2],[0,1]]x2]",
     "[[[1,1],[0,1]],[[1,1],[0,1]],[[1,2],[0,1]],[[1,2],[0,1]]]"),
    ("A4", "[(1,2,3)x2,(1,3,2) x 2]", "[(1,2,3),(1,2,3),(1,3,2),(1,3,2)]"),
    ("Heis(3)", "[[1,0,0]x3]", "[[1,0,0],[1,0,0],[1,0,0]]"),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[[0,0|1]x3]", "[[0,0|1],[0,0|1],[0,0|1]]"),
])
def test_repetition_suffix_on_element_strings(desc, short, full):
    g = make_group(desc)
    assert parse_class_vector(g, short) == parse_class_vector(g, full)


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


@pytest.mark.parametrize("desc, message", [
    ("Q8", "cannot parse group descriptor ' Q8 '"),
    ("V(2,5):M=[[0,-1],[1,-1]", "bad action matrix in 'V(2,5):M=[[0,-1],[1,-1]'"),
    ("gens:[()]", "no symbols in generator list 'gens:[()]'"),
])
def test_make_group_rejects_garbage(desc, message):
    with pytest.raises(ValidationError) as err:
        make_group(f" {desc} ")
    assert str(err.value) == message


def test_normalizer_in_sym(a4):
    n = normalizer_in_sym(a4)
    assert n.order == 24
    assert n.gens == tuple(_symmetric_gens(4))  # Sym(4)'s two, not listed


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


def test_normalizer_search_on_degree_nine():
    g = make_group("gens:[(1,2,3),(4,5,6),(7,8,9)]")
    start = time.monotonic()
    # S3 on each block of three and S3 permuting the blocks: 6^3 * 3! = 1296
    assert normalizer_in_sym(g).order == 1296
    assert time.monotonic() - start < 1.0


def test_normalizer_of_an_index_two_subgroup_is_sym_n_by_two_generators():
    """A_n and S_n are normal in Sym(n), so their normalizer comes back as
    Sym(n)'s generators without a search; degrees 1 and 2 still work."""
    n = normalizer_in_sym(make_group("gens:[(1,2,3,4,5,6,7,8),(1,2)]"))
    assert len(n.gens) == 2 and n.order == factorial(8)
    for desc, classes, count in (("gens:[(1)]", "[1a,1a,1a]", 1),
                                 ("gens:[(1,2)]", "[2a,2a,1a]", 3)):
        g = make_group(desc)
        assert normalizer_in_sym(g).order == g.degree
        assert enumerate_nielsen(g, parse_class_vector(g, classes), Mode.ABSOLUTE).count == count


def test_gens_and_catalog_a5_have_the_same_absolute_reduced_reps():
    sets = []
    for desc in ("gens:[(1,2,3,4,5),(1,2,3)]", "A5"):
        g = make_group(desc)
        cv = parse_class_vector(g, "[3a,3a,3a,3a]")
        sets.append(enumerate_nielsen(g, cv, Mode.ABSOLUTE_REDUCED).reps)
    assert sets[0] == sets[1] and sets[0]


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


def _greedy_unit_generators(n):
    """Each step adds the least unit that enlarges the generated subgroup of
    (Z/n)^* most; every candidate subgroup is closed by multiplication mod n."""
    units = [a for a in range(2, n) if gcd(a, n) == 1]

    def span(gens):
        seen, todo = {1}, [1]
        for x in todo:
            for g in gens:
                if (y := x * g % n) not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    gens = []
    while len(span(gens)) <= len(units):
        gens.append(max(units, key=lambda a: (len(span([*gens, a])), -a)))
    return gens


@pytest.mark.parametrize("n", [*range(3, 200), 625, 840, 1000, 1009])
def test_dihedral_catalog_generates_the_affine_group(n):
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    gens = dihedral(n).sym_normalizer_gens
    # the multiplier x -> ax sends 1 to a
    assert [g[1] for g in gens[1:]] == _greedy_unit_generators(n)
    if n <= 60:  # the affine group has n * phi(n) elements to list
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
        assert index[g.parse(g.format(els[last]))] == last


VIEW_GROUPS = ["A4", "S4", "A5", "D7", "D37", "SL2(3)", "SL2(5)", "Heis(3)",
               "V(2,5):M=[[0,-1],[1,-1]]", "V(2,7):M=[[0,-1],[1,-1]]",
               "gens:[(1,2,3,4,5),(1,2,3)]"]


def _order_by_powering(g, x):
    k, y = 1, x
    while y != g.identity:
        y, k = g.mul(y, x), k + 1
    return k


@pytest.mark.parametrize("desc", [*VIEW_GROUPS, "vector l=2 level 2"])
def test_element_orders_are_read_off_the_classes(group_and_classes, desc):
    """Once the classes are known an element's order is its class's; it
    equals the order found by powering, and on permutations the lcm of the
    cycle type, on every element and on the view as on data.  Before the
    classes are known the order is found by powering, which computes none."""
    if desc == "vector l=2 level 2":
        g = group_and_classes(desc, "[3a,3a,3b,3b]")[0]
        fresh = TowerSpec("vector", 2).level_group(2)
    else:
        g, fresh = make_group(desc), make_group(desc)
    assert fresh.element_order(fresh.gens[0]) == _order_by_powering(fresh, fresh.gens[0])
    assert fresh._classes is None
    ix = g.indexed()
    for i, x in enumerate(g.elements):
        d = _order_by_powering(g, x)
        assert g.element_order(x) == ix.element_order(i) == d == _order_by_powering(ix, i)
        if g.kind == "permutation":
            assert lcm(*cycle_type(x)) == d


def test_class_orders_power_only_elements_not_met_as_powers(monkeypatch):
    """g^k has order d / gcd(k, d) when g has order d, so the classes of D37
    on data power three elements: the identity, a reflection and the
    rotation x+1, whose powers are every rotation.  Without that, each of
    the 18 rotation classes would be powered up to 37 times on 37 points."""
    powered = []
    powers = FiniteGroup._powers
    monkeypatch.setattr(FiniteGroup, "_powers",
                        lambda self, g: powered.append(g) or powers(self, g))
    g = make_group("D37")
    assert [c.element_order for c in g.conjugacy_classes()] == [1, 2, *[37] * 18]
    assert [g.element_order(x) for x in powered] == [1, 2, 37]


@pytest.mark.parametrize("desc", VIEW_GROUPS)
def test_view_classes_orders_and_inverses_match_a_group_without_a_view(desc):
    """The view computes the classes on indices and fills its data group's;
    a copy of the group that never gets a view computes them on data."""
    g, fresh = make_group(desc), make_group(desc)
    ix = g.indexed()
    els = g.elements

    def on_data(c, to_data):
        return (c.label, c.element_order, c.size, to_data(c.rep),
                frozenset(map(to_data, c.members)))

    expected = [on_data(c, lambda x: x) for c in fresh.conjugacy_classes()]
    assert [on_data(c, lambda x: x) for c in g.conjugacy_classes()] == expected
    assert [on_data(c, els.__getitem__) for c in ix.conjugacy_classes()] == expected
    for i, x in enumerate(els):
        assert g.element_order(x) == ix.element_order(i) == fresh.element_order(x)
        assert g.class_index_of(x) == ix.class_index_of(i) == fresh.class_index_of(x)
        assert els[ix.inv(i)] == fresh.inv(x)
    assert fresh._indexed is None


def _old_semidirect_mul(g, a, b):
    """The product by nested sums over the complement's matrix power."""
    m = g.modulus
    v1, a1 = a
    v2, b1 = b
    mat = g.action
    power = tuple(tuple(int(i == j) for j in range(g.dim)) for i in range(g.dim))
    for _ in range(b1):
        power = tuple(tuple(sum(row[k] * mat[k][j] for k in range(g.dim)) % m
                            for j in range(g.dim)) for row in power)
    v = tuple((sum(v1[k] * power[k][j] for k in range(g.dim)) + v2[j]) % m
              for j in range(g.dim))
    return (v, (a1 + b1) % g.complement_order)


@pytest.mark.parametrize("t,m,action", [
    (2, 5, [[0, -1], [1, -1]]),
    (2, 7, [[0, -1], [1, -1]]),
    (3, 2, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
])
def test_vector_semidirect_products_match_the_matrix_power_formula(t, m, action):
    g = VectorSemidirectGroup(t, m, action)
    els = g.elements
    for a in els:
        assert g.mul(a, g.inv(a)) == g.identity == g.mul(g.inv(a), a)
        for b in els:
            assert g.mul(a, b) == _old_semidirect_mul(g, a, b)


def test_indexed_view_refuses_tables_above_the_cap():
    s7 = make_group("S7")
    assert s7.order ** 2 > TABLE_ENTRY_CAP
    with pytest.raises(BudgetError):
        s7.indexed()


@pytest.mark.parametrize("m", [2, 5, 12, 25, 49])
def test_det_mod_matches_cofactor_expansion(m):
    """Fraction-free elimination against cofactor expansion on seeded random
    integer matrices up to 6 x 6, negative entries and zero pivots included."""
    rng = random.Random(m)
    values = set()
    for t in range(1, 7):
        for _ in range(25):
            mat = [[rng.randint(-3 * m, 3 * m) for _ in range(t)] for _ in range(t)]
            want = det_by_cofactors(mat, m)
            assert _det_mod(mat, m) == want, mat
            values.add(want)
    assert 0 in values and len(values) > 1


def test_det_mod_12x12_from_a_triangular_factorization():
    """det(P L U) = sign(P) * prod(diag U) for unit lower triangular L,
    upper triangular U and a row permutation P; a 12 x 12 cofactor expansion
    would take 12! products."""
    rng = random.Random(12)
    t, m = 12, 25
    lower = [[1 if i == j else rng.randint(-9, 9) if j < i else 0 for j in range(t)]
             for i in range(t)]
    upper = [[rng.randint(1, 9) if i == j else rng.randint(-9, 9) if j > i else 0
              for j in range(t)] for i in range(t)]
    mat = [[sum(lower[i][k] * upper[k][j] for k in range(t)) for j in range(t)]
           for i in range(t)]
    order = rng.sample(range(t), t)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    want = (-1) ** inversions
    for i in range(t):
        want *= upper[i][i]
    assert _det_mod([mat[i] for i in order], m) == want % m
    assert _det_mod([[0] * t] + mat[1:], m) == 0
