import itertools
import random
from collections import Counter
from math import gcd

import pytest

from hurwitz import nielsen
from hurwitz.errors import BudgetError, ValidationError
from hurwitz.groups import (
    ClassVector,
    GroupHom,
    PermutationGroup,
    make_group,
    normalizer_in_sym,
    parse_class_vector,
    perm_mul,
)
from hurwitz.nielsen import (
    ConjAction,
    Mode,
    _build_action,
    _complete,
    _get_action,
    canonicalize,
    enumerate_nielsen,
    is_nielsen_tuple,
    random_nielsen_tuple,
)
from hurwitz.tower import TowerSpec, lift_classes_to_level
from reference_routines import (
    _has_adjacent_repeat,
    list_action_group,
    tuple_cover_genus,
    tuple_is_hm,
)


def test_mode_parsing():
    assert Mode.parse("inner-reduced") is Mode.INNER_REDUCED
    assert Mode.parse("abs-reduced") is Mode.ABSOLUTE_REDUCED
    assert Mode.parse(Mode.RAW) is Mode.RAW
    assert Mode.INNER_REDUCED.reduced and not Mode.INNER.reduced
    with pytest.raises(ValidationError):
        Mode.parse("projective")


@pytest.mark.parametrize("text", ["Inner", "INNER-REDUCED", "inner_reduced", "innerreduced",
                                  "absreduced", "absolutereduced", "InnerReduced", " inner"])
def test_mode_parse_takes_only_the_mode_values_and_abs_reduced(text):
    with pytest.raises(ValidationError, match="unknown equivalence mode"):
        Mode.parse(text)


def test_is_nielsen_tuple(a4, a4_cv):
    x = a4.parse("(1,2,3)")
    y = a4.parse("(1,3,2)")
    ix = a4.indexed()
    # product-one, generating, class multiset {3a,3a,3b,3b}
    t = (x, x, a4.inv(a4.mul(x, x)), a4.identity)
    assert not is_nielsen_tuple(a4, a4_cv, ix.to_index(t))  # identity entry, wrong classes
    ni = enumerate_nielsen(a4, a4_cv, Mode.INNER_REDUCED)
    assert is_nielsen_tuple(a4, a4_cv, ix.to_index(ni.reps[0]))
    assert not is_nielsen_tuple(a4, a4_cv, ix.to_index((x, y, x)))


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
        t = a4.indexed().to_data(random_nielsen_tuple(a4, a4_cv, rng))
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
    # raw mode is the action of the trivial group: every tuple is canonical
    assert raw.action.order == 1 and inner.action.order == a4.order
    assert all(raw.canonical(u) == u for u in raw.tuples)


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
def test_counting_identities(reduction_orbit, desc, classes):
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
        len({canonicalize(g, u, Mode.INNER, cv) for u in reduction_orbit(g, t)})
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
        a: GroupHom(ix, ix, [group._index[group.conj(g, a)] for g in group.gens]).element_images
        for a in acting
    }


def assert_order_is_the_listed_group(action):
    """``order``, known when the action is built, is the size of the acting
    group listed by closing its permutations, and |A| = |orbit| * |stabilizer|
    on every orbit."""
    assert action.order == len(list_action_group(action))
    for m, orbit in action.orbits.items():
        assert action.order == len(orbit) * (len(action.stabilizer[m]) + 1)


def preserves_class_multiset(group, cv, s):
    """Whether conjugation by s maps C's class multiset to itself, on data."""
    mult = Counter(cv.indices)
    classes = group.conjugacy_classes()
    return all(mult.get(group.class_index_of(group.conj(classes[i].rep, s))) == m
               for i, m in mult.items())


def preserving(group, perms, cv):
    return {p for a, p in perms.items() if preserves_class_multiset(group, cv, a)}


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
        action = _build_action(g, "absolute", cv)
        assert action_perms(action) == preserving(g, perms, cv)
        assert_order_is_the_listed_group(action)


@pytest.mark.parametrize("desc", [
    "A4", "A5", "S4", "gens:[(1,2,3),(2,3,4)]", "gens:[(1,2)(3,4),(1,3)]",
    "gens:[(1,2,3,4),(1,3)]", "gens:[(1,2,3),(4,5,6)]", "gens:[(1,2,3),(4,5,6),(1,4)]",
    "gens:[(1,2,3)]", "gens:[(1,2)]", "gens:[(1,2,3),(3,4,5)]", "gens:[(1,2,3,4,5),(1,2)]",
])
def test_absolute_action_matches_brute_force_normalizer(desc):
    """Catalog and searched normalizers, cut down to the subgroup fixing one
    class multiset (three entries from the last class), against every
    element of Sym(n) that normalizes G and fixes that multiset."""
    g = make_group(desc)
    normalizer = [
        s for s in itertools.permutations(range(g.degree))
        if all(g.conj(x, s) in g for x in g.gens)
    ]
    perms = per_element_perms(g, normalizer)
    cv = ClassVector(g, (len(g.conjugacy_classes()) - 1,) * 3)
    action = _build_action(g, "absolute", cv)
    assert action_perms(action) == preserving(g, perms, cv)
    assert_order_is_the_listed_group(action)


def test_absolute_action_fixes_the_class_multiset(a4, a4_cv):
    # swapping the two 3-cycle classes preserves the multiset {3a,3a,3b,3b},
    # so all of S4 acts; the single-class vector pins the classes down
    single = parse_class_vector(a4, "[3a,3a,3a,3a]")
    for cv, order in [(a4_cv, 24), (single, 12)]:
        action = _build_action(a4, "absolute", cv)
        assert len(action_perms(action)) == action.order == order
        assert_order_is_the_listed_group(action)


def test_absolute_action_converts_only_normalizer_generators(monkeypatch):
    g = make_group("gens:[(1,2,3),(4,5,6),(7,8,9)]")
    _get_action(g, Mode.INNER, None)  # the absolute action reads |Inn(G)| off it
    calls = []
    init = GroupHom.__init__
    monkeypatch.setattr(GroupHom, "__init__", lambda self, source, target, images:
                        calls.append(1) or init(self, source, target, images))
    action = _build_action(g, "absolute", ClassVector(g, (1, 1, 1)))
    # the normalizer has order 1296, but only its generators are converted
    assert len(calls) == len(normalizer_in_sym(g).gens) < 10
    assert len(action_perms(action)) > 1
    assert_order_is_the_listed_group(action)


@pytest.mark.parametrize("desc", ["A4", "A5", "S4", "D7", "D8", "SL2(3)", "Heis(3)",
                                  "V(2,5):M=[[0,-1],[1,-1]]", "gens:[(1,2,3),(4,5,6)]"])
def test_inner_action_matches_conjugation_by_every_element(desc):
    g = make_group(desc)
    els = g.elements
    direct = {
        tuple(g._index[g.conj(x, a)] for x in els) for a in els
    }
    assert action_perms(_build_action(g, "inner", None)) == direct


@pytest.mark.parametrize("desc,kind,classes", [
    ("A5", "absolute", "[5a,5a,5b]"),  # the multiset has an orbit of size 2
    ("A5", "absolute", "[5a,5a,5b,5b]"),
    # (Z/12)^* and (Z/15)^* are not cyclic
    ("D12", "absolute", "[2b,2b,2b,2c]"),
    ("D12", "absolute", "[2b,2b,2c,2c]"),
    ("D15", "absolute", "[2a,2a,2a,2a]"),
    ("D15", "absolute", "[5a,15a,15b]"),
    ("SL2(3)", "inner", None),
    ("V(2,5):M=[[0,-1],[1,-1]]", "inner", None),
])
def test_canonical_tuple_is_least_over_every_permutation(desc, kind, classes):
    """Transporter and stabilizer give the least image under every permutation
    of the action, at every tuple length from 1 to 5, and |A| = |orbit| *
    |stabilizer| on every orbit."""
    g = make_group(desc)
    action = _build_action(g, kind, classes and parse_class_vector(g, classes))
    perms = action_perms(action)
    assert len(perms) == action.order
    assert_order_is_the_listed_group(action)
    rng = random.Random(desc)
    for n in range(60):
        t = tuple(rng.randrange(g.order) for _ in range(1 + n % 5))
        assert action.canonical_tuple(t) == min(tuple(p[x] for x in t) for p in perms)


@pytest.mark.parametrize("kind", ["inner", "absolute"])
def test_transporters_are_composed_on_first_read(kind):
    """Building an action composes no transporter: only the orbit minima
    hold one, the identity.  Reading the deepest element's transporter
    composes the ones along its branch of the Schreier tree (99 steps for
    D125 under its normalizer), and each moves its element to the orbit
    minimum, as the transporter of its parent does after one generator."""
    g = make_group("D125")
    action = _build_action(g, kind, parse_class_vector(g, "[2a,2a,2a,2a]"))
    identity = tuple(range(g.order))
    assert set(action.transporter) == set(action.orbits)
    assert set(action.transporter.values()) == {identity}

    def branch(y):
        out = [y]
        while action.schreier[out[-1]] is not None:
            out.append(action.schreier[out[-1]][0])
        return out

    deepest = max(range(g.order), key=lambda y: len(branch(y)))
    path = branch(deepest)
    assert len(path) - 1 == (99 if kind == "absolute" else 63)
    action.transporter[deepest]
    assert set(action.transporter) == set(action.orbits) | set(path)
    for y in path[:-1]:
        x, back = action.schreier[y]
        assert back[y] == x and action.transporter[y][y] == action.orbit_min[y] == path[-1]
        assert action.transporter[y] == perm_mul(back, action.transporter[x])


@pytest.mark.parametrize("p", [7, 37, 127])
def test_dihedral_enumeration_leaves_the_identity_stabilizer_unbuilt(p):
    """Only the reflections' stabilizer is closed; the identity's is all of
    the affine group, above the cap from D127 on."""
    g = make_group(f"D{p}")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    ni = enumerate_nielsen(g, cv, Mode.ABSOLUTE_REDUCED)
    ni.moves()
    action = ni.action
    identity = g.indexed().identity
    assert identity not in action.stabilizer
    assert action.order == p * (p - 1)
    for m, stab in action.stabilizer.items():
        assert (len(stab) + 1) * len(action.orbits[m]) == action.order
    if p == 127:
        with pytest.raises(BudgetError):
            action.stabilizer[identity]


def test_stabilizer_closure_stops_at_its_known_size(monkeypatch):
    """|A| is known when the action is built, so closing the stabilizer of
    the search start of D37 (a reflection, orbit 37, |A| = 37 * 36) stops
    once it holds 36 elements, after a few of its 74 Schreier generators."""
    g = make_group("D37")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    action = _get_action(g, Mode.ABSOLUTE_REDUCED, cv)
    reflections = g.indexed().conjugacy_classes()[cv.indices[0]].members
    start = min(action.orbit_min[x] for x in reflections)
    drawn = []
    span = nielsen._span
    monkeypatch.setattr(nielsen, "_span", lambda perms, *rest: span(
        (drawn.append(p) or p for p in perms), *rest))
    assert len(action.stabilizer[start]) + 1 == action.order // len(action.orbits[start]) == 36
    assert len(drawn) <= 4


# ---------------------------------------------------------------------------
# enumeration against a reference without its shortcuts (generation settled
# by a generating pair, one reduction per Klein orbit)


def reference_enumeration(g, cv, mode):
    """Reps of every mode the slow way: every product-one tuple of the search
    is canonicalized, every canonical form gets a closure of all its entries,
    and in a reduced mode every class is reduced on its own.  Also counts the
    canonical forms that do not generate and the generating ones whose first
    two entries do not."""
    ix = g.indexed()
    half = ix.order // 2
    classes = ix.conjugacy_classes()
    members = {i: sorted(classes[i].members) for i in set(cv.indices)}
    action = _get_action(g, mode, cv)
    starts = {action.orbit_min[x] for i in members for x in members[i]}
    forms = set()
    for g1 in sorted(starts):
        remaining = Counter(cv.indices)
        remaining[ix._class_of[g1]] -= 1
        for t in _complete(ix, cv.r, members, remaining, g1, members):
            forms.add(action.canonical_tuple(t))
    found = {c for c in forms if len(ix.close(c, stop_above=half)) > half}
    rejected = len(forms) - len(found)
    weak_pairs = sum(len(ix.close(c[:2], stop_above=half)) <= half for c in found)
    if mode.reduced:
        found = {action.reduced_canonical_tuple(c) for c in found}
    return tuple(ix.to_data(t) for t in sorted(found)), rejected, weak_pairs


PERMUTATION_MODES = tuple(Mode)
LATTICE_MODES = (Mode.INNER, Mode.INNER_REDUCED)
ABSOLUTE_MODES = (Mode.ABSOLUTE, Mode.ABSOLUTE_REDUCED)


@pytest.mark.parametrize("desc,classes,modes,rejects,weak_pairs", [
    ("A4", "[3a,3a,3b,3b]", PERMUTATION_MODES, False, False),
    ("A4", "[3a,3a,3a]", PERMUTATION_MODES, False, False),
    # the search meets a non-least member of some Klein orbit first
    ("A4", "[2a,3a,3a,3a]", PERMUTATION_MODES, False, False),
    ("S4", "[2a,2b,2b,3a]", PERMUTATION_MODES, False, False),
    ("S4", "[2b,2b,3a,3a]", PERMUTATION_MODES, True, True),
    ("S4", "[3a,3a,4a,4a]", PERMUTATION_MODES, False, False),
    ("D7", "[2a,2a,2a,2a]", PERMUTATION_MODES, True, False),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", LATTICE_MODES, False, False),
    ("V(2,7):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", LATTICE_MODES, True, True),
    # the orderly search away from r = 4, under the Sym(n)-normalizer
    ("S4", "[2b,3a,4a]", ABSOLUTE_MODES, False, False),
    ("A5", "[2a,3a,5a]", ABSOLUTE_MODES, False, False),
    ("S4", "[2b,2b,2b,2b,3a]", ABSOLUTE_MODES, True, True),
    ("A5", "[3a,3a,3a,3a,3a]", ABSOLUTE_MODES, True, True),
])
def test_enumeration_matches_the_reference(desc, classes, modes, rejects, weak_pairs):
    g = make_group(desc)
    cv = parse_class_vector(g, classes)
    for mode in modes:
        reps, rejected, weak = reference_enumeration(g, cv, mode)
        assert enumerate_nielsen(g, cv, mode).reps == reps, mode
        # outside raw mode (the trivial action), the search prunes second
        # entries: some first entry has a nontrivial stabilizer
        action = _get_action(g, mode, cv)
        assert mode is Mode.RAW or any(action.stabilizer[m] for m in set(action.orbit_min)), mode
        # where flagged, some product-one tuples do not generate, and some
        # generating ones need the closure because their first pair does not
        assert rejected > 0 or not rejects, mode
        assert weak > 0 or not weak_pairs, mode


@pytest.mark.parametrize("desc,k", [
    ("vector", 0), ("vector", 1), ("vector", 2),
    # a seeded conjugate of the companion action, as the benchmark sends
    ("V(2,5):M=[[1,-3],[1,-2]]", 0), ("V(2,7):M=[[1,-3],[1,-2]]", 0),
])
def test_start_pair_verdicts_match_the_reference(desc, k):
    """Generation read off the start pair first, through level 0 on the
    vector l=2 tower levels, keeps the classes that closing every canonical
    form in full keeps."""
    if desc == "vector":
        spec = TowerSpec("vector", 2)
        cv0 = parse_class_vector(spec.level_group(0), "[3a,3a,3b,3b]")
        g, quotient = spec.level_group(k), spec.quotient(k)
        cv = lift_classes_to_level(spec, cv0, k)
    else:
        g, quotient = make_group(desc), None
        cv = parse_class_vector(g, "[3a,3a,3b,3b]")
    for mode in LATTICE_MODES:
        reps = reference_enumeration(g, cv, mode)[0]
        assert reps and enumerate_nielsen(g, cv, mode, quotient).reps == reps, mode


@pytest.mark.parametrize("desc,classes,mode", [
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("D7", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("D11", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("A4", "[3a,3a,3b,3b]", Mode.INNER),
    ("S4", "[2b,2b,2b,2b,3a]", Mode.ABSOLUTE_REDUCED),
    ("A5", "[3a,3a,5a]", Mode.ABSOLUTE),
])
def test_moves_take_one_canonical_form_per_image(monkeypatch, desc, classes, mode):
    """Only q2 and sh images are canonicalized, q1 being derived from them;
    a reduced image takes one canonical form and a lookup in the
    enumeration's Klein map, never a reduction afresh.  In a reduced mode
    with r = 4, sh is an involution and each of its cycles takes one, and
    only sh images build a first least image: a q2 image starts with mu."""
    g = make_group(desc)
    ni = enumerate_nielsen(g, parse_class_vector(g, classes), mode)
    calls = Counter()
    for name in ("canonical_tuple", "reduced_canonical_tuple", "first_least_image"):
        def counted(self, t, _name=name, _method=getattr(ConjAction, name)):
            calls[_name] += 1
            return _method(self, t)
        monkeypatch.setattr(ConjAction, name, counted)
    _, _, sh = ni.moves()
    if mode.reduced and ni.cv.r == 4:
        assert all(sh[sh[i]] == i for i in range(ni.count))
        cycles = sum(sh[i] >= i for i in range(ni.count))
        expected = ni.count + cycles
        assert calls["first_least_image"] == cycles
    else:
        expected = 2 * ni.count
        assert calls["first_least_image"] == 0
    assert calls["canonical_tuple"] == expected
    assert calls["reduced_canonical_tuple"] == 0


@pytest.mark.parametrize("desc,classes,mode", [
    *((desc, classes, mode) for desc, classes in (("A4", "[3a,3a,3b,3b]"),
                                                  ("A4", "[2a,3a,3a,3a]"),
                                                  ("S4", "[2b,2b,3a,3a]"))
      for mode in (Mode.INNER_REDUCED, Mode.ABSOLUTE_REDUCED)),
    ("D7", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("D11", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("D13", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("D13", "[2a,2a,2a,2a]", Mode.INNER_REDUCED),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("V(2,7):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("vector l=2 level 2", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
])
def test_pruned_reduced_form_is_the_least_over_all_four_images(group_and_classes,
                                                               reduction_orbit, desc,
                                                               classes, mode):
    """The reduced form takes canonical forms of the least images only; the
    reference takes them of all four images under the reduction group, on
    random Nielsen tuples and on random tuples of group elements.  The forms
    of ``least_forms``, whose images are read off the Cayley table, are those
    of the images of ``reduction_orbit`` whose first entry has the least orbit
    minimum, ties at several positions included, and a lookup's first least
    image gives the first of them.  Every stored reduced form and every key
    of the Klein map starts with the least orbit minimum over the classes of
    C, the one search start."""
    g, cv = group_and_classes(desc, classes)
    ix = g.indexed()
    action = _get_action(g, mode, cv)
    rng = random.Random(11)
    samples = [random_nielsen_tuple(g, cv, rng) for _ in range(40)]
    samples += [tuple(rng.randrange(ix.order) for _ in range(4)) for _ in range(60)]
    ties, first_at = Counter(), Counter()
    for t in samples:
        images = reduction_orbit(ix, t)
        assert list(action.klein_images(t)) == images, t
        reference = min(map(action.canonical_tuple, images))
        assert action.reduced_canonical_tuple(t) == reference, t
        firsts = [action.orbit_min[u[0]] for u in images]
        least = [u for u, m in zip(images, firsts) if m == min(firsts)]
        forms = list(map(action.canonical_tuple, least))
        assert list(action.least_forms(t)) == forms, t
        assert action.first_least_image(t) == forms[0], t
        ties[len(least)] += 1
        first_at[firsts.index(min(firsts))] += 1
    assert max(ties) >= 2 and len(first_at) >= 2, (ties, first_at)
    classes_of_c = ix.conjugacy_classes()
    mu = min(action.orbit_min[x] for i in cv.indices for x in classes_of_c[i].members)
    ni = enumerate_nielsen(g, cv, mode)
    assert ni.count and all(u[0] == mu for u in ni.tuples)
    assert ni.klein and all(c[0] == mu for c in ni.klein)


@pytest.mark.parametrize("desc,classes,mode", [
    ("A4", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("S4", "[2b,2b,3a,3a]", Mode.ABSOLUTE_REDUCED),
    ("D13", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
    ("vector l=2 level 2", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    # a seeded conjugate of the companion action, as the benchmark sends
    ("V(2,5):M=[[1,-3],[1,-2]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("V(2,7):M=[[1,-3],[1,-2]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
])
def test_least_forms_build_only_the_least_images(monkeypatch, group_and_classes,
                                                 reduction_orbit, desc, classes, mode):
    """On random tuples, ``least_forms`` gives the canonical forms of the
    ``reduction_orbit`` images whose first entry has the least orbit minimum,
    in that order, and reads q1*q3^-1 off the table once exactly when one of
    them needs it; a known canonical form of t, passed as ``own``, stands in
    for its own."""
    g, cv = group_and_classes(desc, classes)
    ix = g.indexed()
    action = _get_action(g, mode, cv)
    built = Counter()
    image = ConjAction._klein_image

    def counted(self, t):
        built[t] += 1
        return image(self, t)

    monkeypatch.setattr(ConjAction, "_klein_image", counted)
    rng = random.Random(5)
    samples = [random_nielsen_tuple(g, cv, rng) for _ in range(30)]
    samples += [tuple(rng.randrange(ix.order) for _ in range(4)) for _ in range(150)]
    needed, ties = Counter(), Counter()
    for t in samples:
        images = reduction_orbit(ix, t)
        firsts = [action.orbit_min[u[0]] for u in images]
        at = [k for k, m in enumerate(firsts) if m == min(firsts)]
        built.clear()
        forms = list(action.least_forms(t))
        assert forms == [action.canonical_tuple(images[k]) for k in at], t
        assert built[t] == any(k % 2 for k in at) and len(built) <= 1, t
        needed[built[t]] += 1
        ties[len(at)] += 1
        if at[0] == 0:
            c = action.canonical_tuple(t)
            assert list(action.least_forms(c, c)) == list(action.least_forms(c)), t
    assert set(needed) == {0, 1} and max(ties) >= 2, (needed, ties)


@pytest.mark.parametrize("desc,classes,mode", [
    ("S4", "[2b,2b,2b,2b,3a]", Mode.ABSOLUTE_REDUCED),
    ("A4", "[2a,3a,3b]", Mode.INNER_REDUCED),
    ("A4", "[3a,3a,3b,3b]", Mode.INNER),
])
def test_klein_is_empty_unless_the_klein_group_acts(desc, classes, mode):
    """Only a reduced mode at r = 4 keeps Klein maps."""
    g = make_group(desc)
    ni = enumerate_nielsen(g, parse_class_vector(g, classes), mode)
    assert ni.count and not ni.klein_reduced
    assert ni.klein == {}


@pytest.mark.parametrize("desc,classes,mode,count", [
    ("S3", "[2a,2a,2a,2a]", "raw", 24),
    ("S3", "[2a,2a,2a,2a,2a,2a]", "inner", 40),
    ("A5", "[3a,3a,3a,3a]", "inner-reduced", 18),
    ("A4", "[3a,3a,3a]", "raw", 12),  # r odd: never HM
    ("A4", "[2a,2a,2a,3a,3b]", "inner", 180),
    ("S3", "[2a,2a,2a]", "inner", 0),  # empty sets, r odd and even
    ("S3", "[2a,2a,2a,3a]", "inner", 0),
])
def test_shape_columns_match_the_per_tuple_tests(desc, classes, mode, count):
    group = make_group(desc)
    ni = enumerate_nielsen(group, parse_class_vector(group, classes), Mode.parse(mode))
    assert ni.count == count
    hm, repeats = ni.shapes
    assert hm == tuple(tuple_is_hm(group.indexed(), u) for u in ni.tuples)
    assert repeats == tuple(map(_has_adjacent_repeat, ni.tuples))
