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
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import ValidationError
from .groups import ClassVector, FiniteGroup, cycle_type, normalizer_in_sym, riemann_hurwitz


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
# braid moves on plain tuples (re-exported with public names in braid.py)


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
    """Precomputed conjugation tables: for each group element, the least
    element of its orbit under the acting set, one transporter to it, and the
    stabilizer of each orbit minimum."""

    group: FiniteGroup
    kind: str
    orbit_min: dict = field(repr=False)
    transporter: dict = field(repr=False)
    stabilizer: dict = field(repr=False)

    def canonical_tuple(self, t: tuple) -> tuple:
        group = self.group
        mul = group.mul
        a = self.transporter[t[0]]
        ainv = group.inv(a)
        base = tuple(mul(mul(ainv, g), a) for g in t)
        best = base
        for z in self.stabilizer[base[0]]:
            if z == group.identity:
                continue
            zinv = group.inv(z)
            cand = tuple(mul(mul(zinv, g), z) for g in base)
            if cand < best:
                best = cand
        return best

    def reduced_canonical_tuple(self, t: tuple) -> tuple:
        return min(self.canonical_tuple(u) for u in _reduction_orbit(self.group, t))


def _build_action(group: FiniteGroup, kind: str, cv: ClassVector | None) -> ConjAction:
    if kind == "inner":
        gens = group.gens
        acting = group.elements
    elif kind == "absolute":
        norm = normalizer_in_sym(group, cv)
        acting = norm.elements
        gens = acting
    else:
        raise ValidationError(f"no conjugation action of kind {kind!r}")
    conj, mul, inv = group.conj, group.mul, group.inv
    orbit_min: dict = {}
    transporter: dict = {}
    stabilizer: dict = {}
    for x in group.elements:
        if x in orbit_min:
            continue
        trans = {x: group.identity}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                ty = trans[y]
                for a in gens:
                    z = conj(y, a)
                    if z not in trans:
                        trans[z] = mul(ty, a)
                        nxt.append(z)
            frontier = nxt
        m = min(trans)
        tm = trans[m]
        for y, ty in trans.items():
            orbit_min[y] = m
            transporter[y] = mul(inv(ty), tm)
        stabilizer[m] = tuple(a for a in acting if conj(m, a) == m)
    return ConjAction(group, kind, orbit_min, transporter, stabilizer)


def _get_action(group: FiniteGroup, mode: Mode, cv: ClassVector | None) -> ConjAction | None:
    if mode is Mode.RAW:
        return None
    cache = getattr(group, "_conj_action_cache", None)
    if cache is None:
        cache = {}
        group._conj_action_cache = cache
    key = (mode.conjugation, cv.indices if mode.conjugation == "absolute" else None)
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
    if mode.reduced:
        return action.reduced_canonical_tuple(tuple(t))
    return action.canonical_tuple(tuple(t))


# ---------------------------------------------------------------------------
# membership and generation


def _generates(group: FiniteGroup, elems) -> bool:
    """Closure test with early exit once no proper subgroup can contain it."""
    half = group.order // 2
    return len(group.close(elems, stop_above=half)) > half


def is_nielsen_tuple(group: FiniteGroup, cv: ClassVector, t: tuple) -> bool:
    """Product-one, class multiset equals C, and the entries generate."""
    if len(t) != cv.r:
        return False
    prod = group.identity
    for g in t:
        prod = group.mul(prod, g)
    if prod != group.identity:
        return False
    group.conjugacy_classes()
    try:
        got = Counter(group.class_index_of(g) for g in t)
    except ValidationError:
        return False
    if got != Counter(cv.indices):
        return False
    return _generates(group, t)


# ---------------------------------------------------------------------------
# enumeration


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

    The search fixes the first entry (to each class representative in raw
    mode, to each orbit minimum otherwise), walks the remaining class
    multiset for positions 2..r-1 and solves for the last entry.
    """
    mode = Mode.parse(mode)
    r = cv.r
    if r < 3:
        raise ValidationError("Nielsen classes need at least 3 branch points")
    classes = group.conjugacy_classes()
    support = sorted(set(cv.indices))
    union = set()
    for i in support:
        union |= classes[i].members
    if not _generates(group, union):
        raise ValidationError(
            f"classes {cv} do not generate {group.name}; the Nielsen class is undefined"
        )
    action = _get_action(group, mode, cv)
    multiset = Counter(cv.indices)
    members = {i: sorted(classes[i].members) for i in support}

    if mode is Mode.RAW:
        starts = [(g, i) for i in support for g in members[i]]
    else:
        seen_min = set()
        starts = []
        for i in support:
            for g in members[i]:
                m = action.orbit_min[g]
                if m not in seen_min:
                    seen_min.add(m)
                    starts.append((m, group.class_index_of(m)))
        starts.sort()

    raw = []
    for g1, cls1 in starts:
        remaining = multiset.copy()
        remaining[cls1] -= 1
        raw += _complete(group, cv, members, remaining, g1)
    if mode is Mode.RAW:
        reps = sorted(raw)
    else:
        unreduced = {action.canonical_tuple(t) for t in raw}
        if mode.reduced and r == 4:
            reps = sorted({action.reduced_canonical_tuple(t) for t in unreduced})
        else:
            reps = sorted(unreduced)
    return NielsenClassSet(group, cv, mode, tuple(reps), action)


def _complete(group, cv, members, remaining, g1) -> list[tuple]:
    r = cv.r
    mul, inv = group.mul, group.inv
    class_of = group._class_of
    out: list[tuple] = []
    stack = [g1]

    def rec(prod):
        if len(stack) == r - 1:
            last = inv(prod)
            i = class_of.get(last)
            if i is not None and remaining.get(i, 0) == 1:
                stack.append(last)
                if _generates(group, stack):
                    out.append(tuple(stack))
                stack.pop()
            return
        for i in sorted(remaining):
            if remaining[i] == 0:
                continue
            remaining[i] -= 1
            for g in members[i]:
                stack.append(g)
                rec(mul(prod, g))
                stack.pop()
            remaining[i] += 1

    rec(g1)
    return out


def random_nielsen_tuple(group: FiniteGroup, cv: ClassVector, rng: random.Random,
                         max_tries: int = 20000) -> tuple:
    """A uniform-ish random member of the raw Nielsen class, for property
    checks.  Draws the first r-1 entries from a shuffled class assignment and
    keeps the draw when the forced last entry fits and the tuple generates."""
    classes = group.conjugacy_classes()
    members = {i: sorted(classes[i].members) for i in set(cv.indices)}
    idx = list(cv.indices)
    for _ in range(max_tries):
        rng.shuffle(idx)
        t = [rng.choice(members[i]) for i in idx[:-1]]
        prod = group.identity
        for g in t:
            prod = group.mul(prod, g)
        last = group.inv(prod)
        if group._class_of.get(last) != idx[-1]:
            continue
        t.append(last)
        if _generates(group, t):
            return tuple(t)
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
