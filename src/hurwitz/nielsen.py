"""Nielsen classes: generating product-one tuples with prescribed classes.

A tuple (g_1, ..., g_r) belongs to the Nielsen class of (G, C) when the
product g_1 * ... * g_r (left to right) is the identity, the entries generate
G, and the multiset of conjugacy classes of the entries equals C.  The sets
here are always stored as canonical representatives under one of five
equivalences:

* raw            -- no identification at all;
* inner          -- simultaneous conjugation by G;
* absolute       -- simultaneous conjugation by the Sym(n)-normalizer of
                    (G, C), permutation groups only;
* inner-reduced / absolute-reduced
                 -- additionally quotient by the Klein four group generated
                    by q1*q3^-1 and sh^2 when r = 4.  For other tuple lengths
                    the reduced set coincides with the unreduced one (the
                    cusp bookkeeping still changes; see the braid module).

The canonical form of a tuple is the lexicographically least member of its
equivalence orbit, using the plain tuple order on element data.  Since
conjugation acts entrywise, the least conjugate can be found by moving the
first entry to the least element of its orbit and then minimising over the
stabilizer of that element; the tables for this are precomputed once per
(group, equivalence) pair.

The search and the canonical forms run on index tuples of the group's
indexed view (see the groups module), whose order is the data order; the
public functions here take and return tuples of element data.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .errors import BudgetError, ValidationError
from .groups import (
    TABLE_ENTRY_CAP,
    ClassVector,
    FiniteGroup,
    IndexedGroup,
    PermutationGroup,
    catalog_normalizer_gens,
    cycle_type,
    normalizer_in_sym,
    riemann_hurwitz,
)


class Mode(Enum):
    RAW = "raw"
    INNER = "inner"
    ABSOLUTE = "absolute"
    INNER_REDUCED = "inner-reduced"
    ABSOLUTE_REDUCED = "absolute-reduced"

    @property
    def reduced(self) -> bool:
        return self in (Mode.INNER_REDUCED, Mode.ABSOLUTE_REDUCED)

    @property
    def conjugation(self) -> str:
        if self is Mode.RAW:
            return "none"
        if self in (Mode.ABSOLUTE, Mode.ABSOLUTE_REDUCED):
            return "absolute"
        return "inner"

    @classmethod
    def parse(cls, value) -> "Mode":
        if isinstance(value, Mode):
            return value
        text = str(value).strip().lower().replace("_", "-")
        # accept CamelCase spellings like InnerReduced
        camel = {
            "innerreduced": "inner-reduced",
            "absolutereduced": "absolute-reduced",
            "abs-reduced": "absolute-reduced",
            "absreduced": "absolute-reduced",
        }
        text = camel.get(text, text)
        for m in cls:
            if m.value == text:
                return m
        raise ValidationError(f"unknown equivalence mode {value!r}")


# ---------------------------------------------------------------------------
# braid moves on tuples of data or of indices: ``group`` may be a data group
# or its indexed view (re-exported with public names in braid.py)


def _qi(group: FiniteGroup, t: tuple, i: int) -> tuple:
    """Twist at 1-based position i: (.., g_i, g_{i+1}, ..) ->
    (.., g_i g_{i+1} g_i^-1, g_i, ..)."""
    j = i - 1
    a, b = t[j], t[j + 1]
    return t[:j] + (group.mul(group.mul(a, b), group.inv(a)), a) + t[j + 2:]


def _qi_inv(group: FiniteGroup, t: tuple, i: int) -> tuple:
    j = i - 1
    a, b = t[j], t[j + 1]
    return t[:j] + (b, group.mul(group.mul(group.inv(b), a), b)) + t[j + 2:]


def _sh(group: FiniteGroup, t: tuple) -> tuple:
    """Left rotation (g_2, ..., g_r, g_1)."""
    return t[1:] + t[:1]


def _reduction_orbit(group: FiniteGroup, t: tuple) -> list[tuple]:
    """The four images of t under the rank-4 reduction group {1, q1*q3^-1,
    sh^2, both}; just [t] when r != 4."""
    if len(t) != 4:
        return [t]
    a = _qi(group, _qi_inv(group, t, 3), 1)
    s = _sh(group, _sh(group, t))
    sa = _sh(group, _sh(group, a))
    return [t, a, s, sa]


# ---------------------------------------------------------------------------
# canonical forms


@dataclass
class ConjAction:
    """Simultaneous conjugation on index tuples of an indexed view.

    Every acting element is stored as the index permutation it induces.
    For each element, ``orbit_min`` is the least element of its orbit and
    ``transporter`` a permutation moving it there; ``stabilizer`` maps each
    orbit minimum to the non-identity permutations fixing it.
    """

    group: IndexedGroup
    kind: str
    orbit_min: tuple = field(repr=False)
    transporter: tuple = field(repr=False)
    stabilizer: dict = field(repr=False)

    def canonical_tuple(self, t: tuple) -> tuple:
        p = self.transporter[t[0]]
        best = base = tuple(map(p.__getitem__, t))
        if len(base) < 2:
            return base
        for z in self.stabilizer[base[0]]:
            # z fixes base[0], so a larger second entry cannot win
            if z[base[1]] > best[1]:
                continue
            cand = tuple(map(z.__getitem__, base))
            if cand < best:
                best = cand
        return best

    def reduced_canonical_tuple(self, t: tuple) -> tuple:
        return min(self.canonical_tuple(u) for u in _reduction_orbit(self.group, t))


def _build_action(group: FiniteGroup, kind: str, cv: ClassVector | None) -> ConjAction:
    """Inner mode acts by G itself, absolute mode by the Sym(n)-normalizer
    of (G, C), each acting element as the index permutation of G it induces.
    The permutations of G's generators, or of the catalog normalizer
    generators, are closed by ``FiniteGroup.close``, which stops past
    ``TABLE_ENTRY_CAP // |G|`` of them; a searched normalizer comes
    closed.  Absolute mode keeps those fixing the class multiset of C."""
    closed = kind == "absolute" and group.sym_normalizer_gens is None
    if kind == "inner":
        acting = group.gens
    elif kind == "absolute":
        acting = normalizer_in_sym(group).elements if closed else catalog_normalizer_gens(group)
    else:
        raise ValidationError(f"no conjugation action of kind {kind!r}")
    ix = group.indexed()
    n = ix.order
    cap = TABLE_ENTRY_CAP // n
    perms: set = set()
    if len(acting) <= cap:
        index = group._index
        perms = {
            ix.automorphism([index[group.conj(g, a)] for g in group.gens])
            for a in acting
        }
        if not closed:
            perms = PermutationGroup((), n, group.name).close(perms, stop_above=cap)
    if len(acting) > cap or len(perms) > cap:
        raise BudgetError(
            f"{kind} conjugation tables of {group.name} need more than the cap of"
            f" {TABLE_ENTRY_CAP} entries"
        )
    if kind == "absolute":
        mult = cv.multiset()
        reps = [(ix.conjugacy_classes()[i].rep, m) for i, m in mult.items()]
        perms = [p for p in perms if all(mult.get(ix._class_of[p[x]]) == m for x, m in reps)]
    perms = sorted(perms)
    identity = tuple(range(n))
    orbit_min = tuple(map(min, zip(*perms)))
    transporter: dict = {}
    for p in perms:
        for y in range(n):
            if p[y] == orbit_min[y]:
                transporter.setdefault(y, p)
    stabilizer = {
        m: tuple(p for p in perms if p[m] == m and p != identity)
        for m in set(orbit_min)
    }
    return ConjAction(ix, kind, orbit_min, tuple(transporter[y] for y in range(n)),
                      stabilizer)


def _get_action(group: FiniteGroup, mode: Mode, cv: ClassVector | None) -> ConjAction | None:
    if mode is Mode.RAW:
        return None
    key = (mode.conjugation, cv.indices if mode.conjugation == "absolute" else None)
    cache = group._conj_actions
    if key not in cache:
        if mode.conjugation == "absolute" and cv is None:
            raise ValidationError("absolute equivalence needs the class vector")
        cache[key] = _build_action(group, mode.conjugation, cv)
    return cache[key]


def canonicalize(group: FiniteGroup, t: tuple, mode, cv: ClassVector | None = None) -> tuple:
    """Canonical representative of t under the given equivalence mode."""
    mode = Mode.parse(mode)
    if mode is Mode.RAW:
        return tuple(t)
    action = _get_action(group, mode, cv)
    ix = action.group
    u = ix.to_index(t)
    if mode.reduced:
        return ix.to_data(action.reduced_canonical_tuple(u))
    return ix.to_data(action.canonical_tuple(u))


# ---------------------------------------------------------------------------
# membership and generation


def _generates(group: FiniteGroup, elems) -> bool:
    """Closure test with early exit once no proper subgroup can contain it."""
    half = group.order // 2
    return len(group.close(elems, stop_above=half)) > half


def _generates_by_pairs(ix: IndexedGroup, t: tuple, pairs: dict) -> bool:
    """Whether t generates: <t_i, t_j> <= <t>, so a generating pair (verdicts
    cached in ``pairs``) settles it without a closure of all of t."""
    for pair in combinations(sorted(t), 2):
        if pair not in pairs:
            pairs[pair] = _generates(ix, pair)
        if pairs[pair]:
            return True
    return _generates(ix, t)


def _product(ix: IndexedGroup, t) -> int:
    table = ix.table
    prod = ix.identity
    for g in t:
        prod = table[prod][g]
    return prod


def is_nielsen_tuple(group: FiniteGroup, cv: ClassVector, t: tuple) -> bool:
    """Product-one, class multiset equals C, and the entries generate."""
    if len(t) != cv.r:
        return False
    ix = group.indexed()
    try:
        u = ix.to_index(t)
    except KeyError:
        return False
    if _product(ix, u) != ix.identity:
        return False
    if Counter(ix._class_of[g] for g in u) != Counter(cv.indices):
        return False
    return _generates(ix, u)


# ---------------------------------------------------------------------------
# enumeration

# Most search nodes ``enumerate_nielsen`` will predict and still run: the
# predicted count bounds the tuples the search reaches before solving for
# the last entry.  The largest case in the tests and the benchmark, raw mode
# on V(2,5), predicts 125,000; the level-1 vector tower group at ell = 5
# predicts 3.1 million.
SEARCH_NODE_CAP = 10**8


@dataclass(frozen=True)
class NielsenClassSet:
    group: FiniteGroup = field(compare=False)
    cv: ClassVector = field(compare=False)
    mode: Mode
    reps: tuple
    action: ConjAction | None = field(compare=False, repr=False, default=None)

    @property
    def count(self) -> int:
        return len(self.reps)

    def canonical(self, u: tuple) -> tuple:
        """Canonical form of an index tuple of ``group.indexed()``."""
        if self.action is None:
            return u
        if self.mode.reduced:
            return self.action.reduced_canonical_tuple(u)
        return self.action.canonical_tuple(u)

    def moves(self) -> tuple[tuple, tuple, tuple]:
        """q1, q2 and sh as permutations of rep positions, computed on first
        use: ``q2[i]`` is the position in ``reps`` of the canonical form of
        q2 applied to ``reps[i]``, and likewise for q1 and sh."""
        if not hasattr(self, "_moves"):
            ix = self.group.indexed()
            tuples = [ix.to_index(t) for t in self.reps]
            position = {u: i for i, u in enumerate(tuples)}
            moved = ([_qi(ix, u, 1) for u in tuples], [_qi(ix, u, 2) for u in tuples],
                     [_sh(ix, u) for u in tuples])
            try:
                perms = tuple(tuple(position[self.canonical(v)] for v in vs) for vs in moved)
            except KeyError:
                raise ValidationError("braid move left the enumerated Nielsen set; "
                                      "canonicalization and enumeration disagree") from None
            object.__setattr__(self, "_moves", perms)
        return self._moves

    def to_dict(self) -> dict:
        return {
            "group": self.group.descriptor,
            "classes": list(self.cv.labels()),
            "mode": self.mode.value,
            "count": self.count,
            "reps": [[self.group.format(g) for g in t] for t in self.reps],
        }


def enumerate_nielsen(group: FiniteGroup, cv: ClassVector,
                      mode=Mode.INNER_REDUCED) -> NielsenClassSet:
    """All Nielsen tuples for (group, C) up to the requested equivalence.

    The search fixes the first entry (to each class member in raw mode, to
    each orbit minimum otherwise), walks the remaining class multiset for
    positions 2..r-1 and solves for the last entry.  Generation is settled
    once per canonical form (inner classes in raw mode), or per Klein orbit
    of them in a reduced mode with r = 4, whose least member is the reduced
    form; any generating pair of entries settles it.  Before the search,
    ``len(starts) * w**(r-2)``, with w the number of elements in the classes
    of C, bounds the tuples it will reach; above ``SEARCH_NODE_CAP`` it
    raises ``BudgetError``.
    """
    mode = Mode.parse(mode)
    r = cv.r
    if r < 3:
        raise ValidationError("Nielsen classes need at least 3 branch points")
    ix = group.indexed()
    classes = ix.conjugacy_classes()
    support = sorted(set(cv.indices))
    members = {i: sorted(classes[i].members) for i in support}
    if not _generates(ix, [g for i in support for g in members[i]]):
        raise ValidationError(
            f"classes {cv} do not generate {group.name}; the Nielsen class is undefined"
        )
    action = _get_action(group, mode, cv)
    if mode is Mode.RAW:
        starts = [g for i in support for g in members[i]]
    else:
        starts = sorted({action.orbit_min[g] for i in support for g in members[i]})
    width = sum(len(m) for m in members.values())
    if len(starts) * width ** (r - 2) > SEARCH_NODE_CAP:
        raise BudgetError(
            f"Nielsen search for {cv} in {group.name} ({len(starts)} starts,"
            f" {width} class elements, r = {r}) may exceed {SEARCH_NODE_CAP} nodes"
        )

    # conjugation and the reduction group preserve generation: raw mode keys
    # it by inner class, a reduced mode (r = 4) by Klein orbit
    key = (action or _get_action(group, Mode.INNER, cv)).canonical_tuple
    pairs: dict = {}
    verdict: dict = {}
    found = set()
    for g1 in starts:
        remaining = Counter(cv.indices)
        remaining[ix._class_of[g1]] -= 1
        for t in _complete(ix, r, members, remaining, g1):
            c = key(t)
            ok = verdict.get(c)
            if ok is None:
                orbit = [key(u) for u in _reduction_orbit(ix, c)] if mode.reduced else [c]
                ok = _generates_by_pairs(ix, c, pairs)
                verdict.update(dict.fromkeys(orbit, ok))
                if ok and action is not None:
                    found.add(min(orbit))
            if ok and action is None:
                found.add(t)
    reps = tuple(ix.to_data(t) for t in sorted(found))
    return NielsenClassSet(group, cv, mode, reps, action)


def _complete(ix: IndexedGroup, r: int, members, remaining: dict, g1: int) -> list[tuple]:
    """Product-one tuples (g1, ..., g_r) whose later entries use up the class
    multiset ``remaining``, by depth-first search on an explicit stack."""
    table, inverse, class_of = ix.table, ix.inverse, ix._class_of
    out: list[tuple] = []
    stack = [((g1,), g1, remaining)]
    while stack:
        prefix, prod, left = stack.pop()
        if len(prefix) == r - 1:
            last = inverse[prod]
            if left.get(class_of[last]) == 1:
                out.append(prefix + (last,))
            continue
        row = table[prod]
        for i in sorted(left, reverse=True):
            if left[i]:
                rest = dict(left)
                rest[i] -= 1
                for g in reversed(members[i]):
                    stack.append((prefix + (g,), row[g], rest))
    return out


def random_nielsen_tuple(group: FiniteGroup, cv: ClassVector, rng: random.Random,
                         max_tries: int = 20000) -> tuple:
    """A uniform-ish random member of the raw Nielsen class, for property
    checks.  Draws the first r-1 entries from a shuffled class assignment and
    keeps the draw when the forced last entry fits and the tuple generates."""
    ix = group.indexed()
    classes = ix.conjugacy_classes()
    members = {i: sorted(classes[i].members) for i in set(cv.indices)}
    idx = list(cv.indices)
    for _ in range(max_tries):
        rng.shuffle(idx)
        t = [rng.choice(members[i]) for i in idx[:-1]]
        last = ix.inverse[_product(ix, t)]
        if ix._class_of[last] != idx[-1]:
            continue
        t.append(last)
        if _generates(ix, t):
            return ix.to_data(t)
    raise ValidationError(f"no Nielsen tuple found for {cv} after {max_tries} tries")


# ---------------------------------------------------------------------------
# Riemann-Hurwitz for a branch-cycle tuple


@dataclass(frozen=True)
class CoverGenus:
    degree: int
    entry_indices: tuple[int, ...]
    genus: int


def tuple_cover_genus(group: FiniteGroup, t: tuple, embedding=None) -> CoverGenus:
    """Genus of the cover with branch cycles t, via Riemann-Hurwitz:
    2(n + g - 1) = sum of indices.  Entries must act transitively.

    ``embedding`` maps a non-permutation group into a permutation group; it
    needs ``target`` and ``apply`` attributes (a group homomorphism object
    works).  Fixed points count as length-1 cycles throughout.
    """
    if embedding is not None:
        perms = tuple(embedding.apply(g) for g in t)
        n = embedding.target.degree
    elif group.kind == "permutation":
        perms = tuple(t)
        n = group.degree
    else:
        raise ValidationError("tuple_cover_genus needs a permutation image; pass an embedding")
    # transitivity
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = p[x]
                if y not in reached:
                    reached.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(reached) != n:
        raise ValidationError("branch cycles are not transitive; the cover is disconnected")
    indices, genus = riemann_hurwitz([cycle_type(p) for p in perms], n)
    return CoverGenus(degree=n, entry_indices=indices, genus=genus)
