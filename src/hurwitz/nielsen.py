"""Nielsen classes: generating product-one tuples with prescribed classes.

A tuple (g_1, ..., g_r) belongs to the Nielsen class of (G, C) when the
product g_1 * ... * g_r (left to right) is the identity, the entries generate
G, and the multiset of conjugacy classes of the entries equals C.  The sets
here are always stored as canonical representatives under one of five
equivalences:

* raw            -- no identification at all: the action of the trivial
                    group, under which every tuple is its own form;
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
stabilizer of that element.  Each (group, equivalence) pair keeps, built
from the acting generators alone, a Schreier vector of each orbit, from
which an element's transporter (a permutation moving it to its orbit's least
element) is composed on first read, the acting group's order, and the
stabilizer of each orbit's least element, closed on first use up to the size
that order gives (see ``ConjAction``); the acting group is never listed.

A canonical form's second entry is least under the stabilizer of its first,
so the search extends a first entry only by such entries (McKay's orderly
search).  A reduced form is the least canonical form in its Klein orbit.
The Klein images of a 4-tuple start with conjugates of its four entries, so
only those paired with an entry of least orbit minimum mu can give it, and
a reduced search at r = 4 starts from mu alone.  One kernel,
``ConjAction.least_forms``, builds just those images, q1*q3^-1 read off the
Cayley table at most once, and returns their canonical forms: the search's
Klein step and the reduced form read it.  A lookup, since the Klein map keys
every member starting with mu, reads ``first_least_image``, the first alone.

The search and the canonical forms run on index tuples of the group's
indexed view (see the groups module), whose order is the data order, and
every generation test runs on images in ``group.generation_quotient``.  A
``NielsenClassSet`` stores only those index tuples, which orbits, cusps and
tower edges read by position; its ``reps`` is a view as element data, built
when first read.  ``random_nielsen_tuple`` and ``is_nielsen_tuple`` work on
index tuples too; the other public functions take and return element data.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from enum import Enum
from functools import cached_property
from itertools import combinations

from .errors import BudgetError, ValidationError, shown
from .groups import (
    ClassVector,
    FiniteGroup,
    Frozen,
    GroupHom,
    IndexedGroup,
    _span,
    identity_perm,
    normalizer_in_sym,
    perm_inv,
    perm_mul,
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
        """A mode, or its value; ``abs-reduced`` also names ABSOLUTE_REDUCED."""
        try:
            return cls("absolute-reduced" if value == "abs-reduced" else value)
        except ValueError:
            raise ValidationError(f"unknown equivalence mode {shown(value)}") from None


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


# ---------------------------------------------------------------------------
# canonical forms


class _ClosedOnUse(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class ConjAction:
    """Simultaneous conjugation on index tuples of an indexed view, kept as
    orbit transversals plus stabilizers (Sims's method; Seress, "Permutation
    Group Algorithms", 2003).  The acting group A is generated by ``gens``.

    ``orbits`` maps the least element m of each A-orbit to the orbit; for y
    in it, ``orbit_min[y]`` is m and ``transporter[y]`` some permutation in A
    moving y to m.  Transporters are composed on first read from the Schreier
    vector: ``schreier[y]`` is (x, g^-1) for y's parent x = g^-1(y) in the
    breadth-first tree of its orbit (None at m), and transporter[y] is g^-1
    followed by transporter[x].  ``stabilizer[m]``, closed on first use from
    Schreier generators, holds the non-identity permutations of A fixing m;
    those after ``transporter[y]`` are all that move y to m, so the canonical
    form does not depend on the transporter.  ``order`` is |A|, known when
    built: 1 when trivial, |G : Z(G)| when inner, and when absolute |Inn(G)|
    times the inner classes in the A-orbit of G's generators, which A moves
    freely; so each closure stops at |A| / |orbit|.
    """

    def __init__(self, group: IndexedGroup, kind: str, gens: tuple, orbits: dict,
                 orbit_min: tuple, schreier: tuple, order: int):
        self.group, self.kind, self.gens, self.orbits = group, kind, gens, orbits
        self.orbit_min, self.schreier, self.order = orbit_min, schreier, order
        self.transporter = _ClosedOnUse(self._transport)
        self.transporter.update(dict.fromkeys(orbits, identity_perm(len(orbit_min))))
        self.stabilizer = _ClosedOnUse(self._close_stabilizer)

    def _transport(self, y: int) -> tuple:
        """transporter[y], composed down from its nearest built ancestor in
        the Schreier tree; the walk is a loop, as orbits run hundreds deep."""
        tr, schreier, path = self.transporter, self.schreier, []
        while y not in tr:
            path.append(y)
            y = schreier[y][0]
        p = tr[y]
        for y in reversed(path):
            p = tr[y] = perm_mul(schreier[y][1], p)
        return p

    def _close_stabilizer(self, m: int) -> tuple:
        orbit, tr, n = self.orbits[m], self.transporter, len(self.orbit_min)
        # t_y^-1 g t_g(y) fixes m, and these generate its stabilizer (Schreier's
        # lemma); t_y is inverted only when the closure gets that far
        schreier = (perm_mul(perm_mul(back, g), tr[g[y]])
                    for y, back in zip(orbit, map(perm_inv, map(tr.__getitem__, orbit)))
                    for g in self.gens)
        name = f"{self.kind} stabilizers of {shown(self.group.name)}"
        span = _span(schreier, n, name, self.order // len(orbit))[1]
        return tuple(sorted(span - {tr[m]}))

    def canonical_tuple(self, t: tuple) -> tuple:
        """t moved by its first entry's transporter, then least under that
        entry's stabilizer; ``itemgetter`` reads an image in one call, but a bare
        entry for one index, so a tuple shorter than 2 takes its orbit minima."""
        if len(t) < 2:
            return tuple(map(self.orbit_min.__getitem__, t))
        if self.orbit_min[t[0]] == t[0]:  # its own orbit minimum: nothing to move
            best = base = t
        else:
            best = base = operator.itemgetter(*t)(self.transporter[t[0]])
        image = operator.itemgetter(*base)
        for z in self.stabilizer[base[0]]:
            # z fixes base[0], so a larger second entry cannot win
            if z[base[1]] <= best[1] and (cand := image(z)) < best:
                best = cand
        return best

    def _klein_image(self, t: tuple) -> tuple:
        """q1*q3^-1 of a 4-tuple, (g1 g2 g1^-1, g1, g4, g4^-1 g3 g4), read off
        the Cayley table: the one place the reduction reads group elements."""
        table, inverse = self.group.table, self.group.inverse
        g1, g2, g3, g4 = t
        return table[table[g1][g2]][inverse[g1]], g1, g4, table[table[inverse[g4]][g3]][g4]

    def klein_images(self, t: tuple) -> tuple:
        """The four images of a 4-tuple under the reduction group {1,
        q1*q3^-1, sh^2, both}."""
        a = self._klein_image(t)
        return t, a, t[2:] + t[:2], a[2:] + a[:2]

    def least_forms(self, t: tuple, own: tuple | None = None) -> list:
        """Canonical forms of the Klein images of a 4-tuple whose first entry
        has the least orbit minimum mu, in ``klein_images`` order: only they can
        give its reduced form.  Only those images are built, q1*q3^-1 at most
        once; ``own`` is t's canonical form when known (t then starts with mu)."""
        om, key = self.orbit_min, self.canonical_tuple
        m0, m1, m2, m3 = om[t[0]], om[t[1]], om[t[2]], om[t[3]]
        mu = min(m0, m1, m2, m3)
        forms = [own or key(t)] if m0 == mu else []
        if m1 == mu or m3 == mu:
            a = self._klein_image(t)
            if m1 == mu:
                forms.append(key(a))
        if m2 == mu:
            forms.append(key(t[2:] + t[:2]))
        if m3 == mu:
            forms.append(key(a[2:] + a[:2]))
        return forms

    def first_least_image(self, t: tuple) -> tuple:
        """The first of ``least_forms(t)`` for a 4-tuple, its image alone built."""
        om = self.orbit_min
        m0, m1, m2, m3 = om[t[0]], om[t[1]], om[t[2]], om[t[3]]
        mu = min(m0, m1, m2, m3)
        if m0 == mu:
            return self.canonical_tuple(t)
        if m2 == mu and m1 != mu:
            return self.canonical_tuple(t[2:] + t[:2])
        a = self._klein_image(t)
        return self.canonical_tuple(a if m1 == mu else a[2:] + a[:2])

    def reduced_canonical_tuple(self, t: tuple) -> tuple:
        """The least of ``least_forms(t)``; just t's canonical form when r != 4."""
        return min(self.least_forms(t)) if len(t) == 4 else self.canonical_tuple(t)


def _multiset_stabilizer(ix: IndexedGroup, perms, cv: ClassVector) -> set:
    """Schreier generators of the subgroup of <perms> fixing C's class
    multiset, over that multiset's orbit."""
    reps = [cl.rep for cl in ix.conjugacy_classes()]

    def image(ms: tuple, p: tuple) -> tuple:
        return tuple(sorted(ix._class_of[p[reps[i]]] for i in ms))

    orbit = [tuple(sorted(cv.indices))]
    word = {orbit[0]: identity_perm(ix.order)}  # a permutation moving C to the key
    for ms in orbit:
        for p in perms:
            if (nxt := image(ms, p)) not in word:
                word[nxt] = perm_mul(word[ms], p)
                orbit.append(nxt)
    back = {ms: perm_inv(w) for ms, w in word.items()}
    return {perm_mul(perm_mul(w, p), back[image(ms, p)]) for ms, w in word.items() for p in perms}


def _build_action(group: FiniteGroup, kind: str, cv: ClassVector | None) -> ConjAction:
    """Raw mode acts by the trivial group, inner mode by G's generators and
    absolute mode by the generators of the Sym(n)-normalizer, cut down to
    the subgroup fixing C's class multiset; each acting generator becomes a
    permutation of the view, read off a checked ``GroupHom``.  One
    breadth-first search per orbit, from its least element, gives
    ``orbit_min`` and the Schreier vector; no transporter is composed here."""
    ix = group.indexed()
    n = ix.order
    acting = normalizer_in_sym(group).gens if kind == "absolute" else (
        group.gens if kind == "inner" else ())
    perms = [GroupHom(ix, ix, [group._index[group.conj(g, a)] for g in group.gens]).element_images
             for a in acting]
    if kind == "absolute":
        perms = _multiset_stabilizer(ix, perms, cv)
    identity = identity_perm(n)
    gens = sorted(set(perms) - {identity})
    inverses = [perm_inv(g) for g in gens]
    orbit_min, schreier, orbits = [None] * n, [None] * n, {}
    for m in range(n):
        if orbit_min[m] is None:
            orbit_min[m], orbits[m] = m, [m]
            for x in orbits[m]:
                for g, g_inv in zip(gens, inverses):
                    y = g[x]
                    if orbit_min[y] is None:
                        orbit_min[y], schreier[y] = m, (x, g_inv)
                        orbits[m].append(y)
    if kind == "absolute":  # breadth first on inner forms, largest inner orbit first
        inner = _get_action(group, Mode.INNER, None)
        first = sorted(ix.gens, key=lambda g: -len(inner.orbits[inner.orbit_min[g]]))
        forms, new = set(), {inner.canonical_tuple(tuple(first))}
        while new:
            forms |= new
            new = {inner.canonical_tuple(tuple(map(g.__getitem__, u))) for u in new for g in gens}
            new -= forms
        order = inner.order * len(forms)
    else:  # the kernel is the union of the one-point orbits (all of G, or Z(G))
        order = n // sum(len(o) == 1 for o in orbits.values())
    return ConjAction(ix, kind, tuple(gens), orbits, tuple(orbit_min), tuple(schreier), order)


def _get_action(group: FiniteGroup, mode: Mode, cv: ClassVector | None) -> ConjAction:
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
    action = _get_action(group, mode, cv)
    canonical = action.reduced_canonical_tuple if mode.reduced else action.canonical_tuple
    return action.group.to_data(canonical(action.group.to_index(t)))


# ---------------------------------------------------------------------------
# membership and generation


def _generates(group: FiniteGroup, elems) -> bool:
    """Closure test with early exit once no proper subgroup can contain it."""
    half = group.order // 2
    return len(group.close(elems, stop_above=half)) > half


def _generates_by_pairs(ix: IndexedGroup, t: tuple, pairs: dict) -> bool:
    """Whether t generates: <t_i, t_j> <= <t>, so a generating pair (``pairs``
    gives the verdict of each sorted pair) settles it without a closure of t."""
    return any(pairs[pair] for pair in combinations(sorted(t), 2)) or _generates(ix, t)


def _product(ix: IndexedGroup, t) -> int:
    table = ix.table
    prod = ix.identity
    for g in t:
        prod = table[prod][g]
    return prod


def is_nielsen_tuple(group: FiniteGroup, cv: ClassVector, t: tuple) -> bool:
    """Whether the index tuple t of ``group.indexed()`` is product-one, has
    class multiset C and generates."""
    ix, (quotient, down) = group.indexed(), group.generation_quotient
    return (len(t) == cv.r and _product(ix, t) == ix.identity
            and Counter(ix._class_of[g] for g in t) == Counter(cv.indices)
            and _generates(quotient, map(down.__getitem__, t)))


# ---------------------------------------------------------------------------
# enumeration

# Most search nodes ``enumerate_nielsen`` will predict and still run: the
# predicted count bounds the tuples the search reaches before solving for
# the last entry.  The largest case in the tests and the benchmark, raw mode
# on V(2,5), predicts 125,000; the level-1 vector tower group at ell = 5
# predicts 3.1 million.
SEARCH_NODE_CAP = 10**8


class NielsenClassSet(Frozen):
    """Canonical forms stored once, as the sorted index tuples ``tuples`` of
    ``group.indexed()``; ``reps`` is their element data, built when read.
    ``klein_reduced``: the mode is reduced and r = 4, so the Klein group acts;
    then ``klein`` maps each canonical form met that starts with the one
    search start to its reduced form, and otherwise it is empty."""

    def __init__(self, group: FiniteGroup, cv: ClassVector, mode: Mode, tuples: tuple,
                 action: ConjAction, klein: dict | None = None):
        vars(self).update(group=group, cv=cv, mode=mode, tuples=tuples, action=action,
                          klein={} if klein is None else klein,
                          klein_reduced=mode.reduced and cv.r == 4)

    @property
    def count(self) -> int:
        return len(self.tuples)

    @cached_property
    def reps(self) -> tuple:
        return tuple(map(self.group.indexed().to_data, self.tuples))

    @cached_property
    def shapes(self) -> tuple[tuple, tuple]:
        """Two flags of every form, by position: Harbater-Mumford shape
        (consecutive pairs (g, g^-1)), and some entry equal to the next one,
        cyclically.  Both compare whole entry columns at once."""
        cols, inverse = tuple(zip(*self.tuples)), self.group.indexed().inverse
        hm = (self.cv.r % 2 == 0,) * self.count
        for a, b in zip(cols[::2], cols[1::2]):
            hm = tuple(map(operator.and_, hm, map(operator.eq, b, map(inverse.__getitem__, a))))
        repeats = (False,) * self.count
        for a, b in zip(cols, cols[1:] + cols[:1]):
            repeats = tuple(map(operator.or_, repeats, map(operator.eq, a, b)))
        return hm, repeats

    @cached_property
    def position(self) -> dict:
        """Each index tuple's position in ``tuples``."""
        return {u: i for i, u in enumerate(self.tuples)}

    def formatted(self, p: int) -> list[str]:
        """The form at position p in the group's element notation."""
        return list(map(self.group.indexed().element_strings.__getitem__, self.tuples[p]))

    def canonical(self, u: tuple, leads: bool = False) -> tuple:
        """Canonical form of an index tuple of ``group.indexed()``.  With the
        Klein group acting, it looks up u's first least form in ``klein``,
        which keys every member starting with mu; ``leads`` says u starts
        with mu, its own form then being that one.  A miss reduces u."""
        action = self.action
        if not self.klein_reduced:
            return action.canonical_tuple(u)
        c = action.canonical_tuple(u) if leads else action.first_least_image(u)
        return self.klein.get(c) or action.reduced_canonical_tuple(u)

    def moves(self) -> tuple[tuple, tuple, tuple]:
        """q1, q2 and sh as permutations of positions, computed on first
        use: ``q2[i]`` is the position in ``tuples`` of the canonical form of
        q2 applied to ``tuples[i]``, likewise for sh, and q1(t) = sh(q2(sh^-1(t))).
        q2 images are read off the Cayley table, with the lookup bound once.
        With the Klein group acting, a q2 image starts with mu, as every
        stored form does, so its own canonical form keys ``klein``.  sh^2 is
        in the reduction group, so then sh is filled as an involution, one
        canonical form per 2-cycle."""
        if not hasattr(self, "_moves"):
            ix, canonical, involution = self.group.indexed(), self.canonical, self.klein_reduced
            table, inverse, tuples, position = ix.table, ix.inverse, self.tuples, self.position
            sh = [None] * self.count
            try:
                q2 = tuple(position[canonical(u[:1] + (table[table[u[1]][u[2]]][inverse[u[1]]],
                                                       u[1]) + u[3:], True)] for u in tuples)
                for i, u in enumerate(tuples):
                    if sh[i] is None:
                        sh[i] = j = position[canonical(u[1:] + u[:1])]
                        if involution and sh[j] not in (None, i):
                            raise ValidationError("sh is not an involution on reduced classes")
                        if involution:
                            sh[j] = i
            except KeyError:
                raise ValidationError("braid move left the enumerated Nielsen set; "
                                      "canonicalization and enumeration disagree") from None
            q1 = tuple(sh[q2[k]] for k in sorted(range(self.count), key=sh.__getitem__))
            object.__setattr__(self, "_moves", (q1, q2, tuple(sh)))
        return self._moves

    def to_dict(self) -> dict:
        strings = self.group.indexed().element_strings
        return {
            "group": self.group.descriptor,
            "classes": list(self.cv.labels()),
            "mode": self.mode.value,
            "count": self.count,
            "reps": [list(map(strings.__getitem__, u)) for u in self.tuples],
        }


def enumerate_nielsen(group: FiniteGroup, cv: ClassVector,
                      mode=Mode.INNER_REDUCED) -> NielsenClassSet:
    """All Nielsen tuples for (group, C) up to the requested equivalence.

    The search fixes the first entry to each orbit minimum (the least one
    alone in a reduced mode with r = 4), walks the remaining class multiset
    for positions 2..r-1 and solves for the last entry; the second entry is
    least under the first's stabilizer, as in every canonical form, and when
    no other element of that stabilizer fixes it, the tuple is its own
    canonical form.  Generation is settled once per canonical form, or per
    Klein orbit of them in a reduced mode with r = 4, whose least member is
    the reduced form and which ``klein`` maps to it: by its first two
    entries, the search start and the second, when they generate, and else
    once per sorted image of all its entries, which any generating pair of
    entries settles.  Before the search, ``len(starts) * w**(r-2)``, with
    w the number of elements in the classes of C, bounds the tuples it will
    reach (one start when reduced with r = 4); above ``SEARCH_NODE_CAP`` it
    raises ``BudgetError``.

    Raw mode acts by the trivial group: every class member is a start and
    every tuple its own canonical form.  Generation is tested on images in
    ``group.generation_quotient`` (see the groups module), the pair verdicts
    keyed on its indices.
    """
    mode = Mode.parse(mode)
    r = cv.r
    if r < 3:
        raise ValidationError("Nielsen classes need at least 3 branch points")
    ix, (quotient, down) = group.indexed(), group.generation_quotient
    classes = ix.conjugacy_classes()
    support = sorted(set(cv.indices))
    members = {i: sorted(classes[i].members) for i in support}
    if not _generates(quotient, {down[g] for i in support for g in members[i]}):
        raise ValidationError(f"classes {shown(str(cv))} do not generate {shown(group.name)};"
                              " the Nielsen class is undefined")
    action = _get_action(group, mode, cv)
    starts = sorted({action.orbit_min[g] for i in support for g in members[i]})
    if mode.reduced and r == 4:
        starts = starts[:1]
    # closed before the search, so an over-cap stabilizer stops it first
    stabs = {g1: action.stabilizer[g1] for g1 in starts}
    width = sum(len(m) for m in members.values())
    if len(starts) * width ** (r - 2) > SEARCH_NODE_CAP:
        raise BudgetError(
            f"Nielsen search for {shown(str(cv))} in {shown(group.name)} ({len(starts)} starts,"
            f" {width} class elements, r = {r}) may exceed {SEARCH_NODE_CAP} nodes"
        )
    # conjugation and the reduction group preserve generation: a reduced
    # mode (r = 4) keys it by Klein orbit
    key, least_forms, klein = action.canonical_tuple, action.least_forms, mode.reduced and r == 4
    # whether a sorted pair, or a sorted image, in the quotient generates
    pairs = _ClosedOnUse(lambda pair: _generates(quotient, pair))
    verdicts = _ClosedOnUse(lambda image: _generates_by_pairs(quotient, image, pairs))
    least: dict = {}  # canonical form -> least canonical form of its Klein orbit
    good = set()  # the generating least forms
    for g1 in starts:
        remaining = Counter(cv.indices)
        remaining[ix._class_of[g1]] -= 1
        stab = stabs[g1]
        seconds = {i: [g for g in gs if all(z[g] >= g for z in stab)] for i, gs in members.items()}
        free = {g for gs in seconds.values() for g in gs if all(z[g] != g for z in stab)}
        for t in _complete(ix, r, members, remaining, g1, seconds):
            c = t if t[1] in free else key(t)
            m = least.get(c)
            if m is None:
                orbit = least_forms(c, c) if klein else [c]  # c, canonical, starts with g1
                m = min(orbit)
                for f in orbit:
                    least[f] = m
                a, b = down[g1], down[c[1]]
                if pairs[(a, b) if a <= b else (b, a)] or verdicts[
                        tuple(sorted(operator.itemgetter(*c)(down)))]:
                    good.add(m)
    return NielsenClassSet(group, cv, mode, tuple(sorted(good)), action, least if klein else {})


def _complete(ix: IndexedGroup, r: int, members, remaining: dict, g1: int, seconds) -> list[tuple]:
    """Product-one tuples (g1, ..., g_r) whose later entries use up the class
    multiset ``remaining``, by depth-first search on an explicit stack, the
    second entry drawn from ``seconds`` (a sub-dict of ``members``).  A node's
    classes still to place, r - 1 at the root, are a sorted tuple whose steps
    are listed once; the next-to-last entry's loop solves for the last."""
    table, inverse, class_of = ix.table, ix.inverse, ix._class_of
    steps = _ClosedOnUse(lambda s: [(i, s[:k] + s[k + 1:]) for k, i in enumerate(s)
                                    if i not in s[:k]])
    out: list[tuple] = []
    stack = [((g1,), g1, tuple(sorted(i for i, n in remaining.items() for _ in range(n))))]
    while stack:
        prefix, prod, rest = stack.pop()
        row = table[prod]
        pool = seconds if len(prefix) == 1 else members
        if len(rest) == 2:
            for i, (j,) in steps[rest]:
                for g in pool[i]:
                    last = inverse[row[g]]
                    if class_of[last] == j:
                        out.append(prefix + (g, last))
            continue
        for i, after in reversed(steps[rest]):
            for g in reversed(pool[i]):
                stack.append((prefix + (g,), row[g], after))
    return out


# draws ``random_nielsen_tuple`` makes before it gives up
RANDOM_TUPLE_TRIES = 20000


def random_nielsen_tuple(group: FiniteGroup, cv: ClassVector, rng: random.Random) -> tuple:
    """A uniform-ish random member of the raw Nielsen class, for property
    checks, as an index tuple of ``group.indexed()``.  Draws the first r-1
    entries from a shuffled class assignment and keeps the draw when the
    forced last entry fits and the tuple generates."""
    ix, (quotient, down) = group.indexed(), group.generation_quotient
    classes = ix.conjugacy_classes()
    members = {i: sorted(classes[i].members) for i in set(cv.indices)}
    idx = list(cv.indices)
    for _ in range(RANDOM_TUPLE_TRIES):
        rng.shuffle(idx)
        t = [rng.choice(members[i]) for i in idx[:-1]]
        last = ix.inverse[_product(ix, t)]
        if ix._class_of[last] != idx[-1]:
            continue
        t.append(last)
        if _generates(quotient, map(down.__getitem__, t)):
            return tuple(t)
    raise ValidationError(f"no Nielsen tuple for {shown(str(cv))} in {RANDOM_TUPLE_TRIES} tries")
