"""Finite groups given by explicit generators, with full element enumeration.

Every group element is a plain hashable tuple (its *datum*) and every group
kind defines ``mul``/``inv``/``identity`` on data.  Composition is written
left to right: ``mul(g, h)`` means "apply g first, then h".  For permutations
this makes the product a right action on symbols; for matrix kinds it is the
ordinary matrix product acting on row vectors, so projective and affine
actions of matrix groups turn into honest homomorphisms to permutation
groups under the same convention.

Permutations are stored in one-line word notation over symbols ``0..n-1``:
``p[i]`` is the image of ``i``.  All input and output uses 1-based cycle
notation, e.g. ``"(1,2,3)(4,5)"``.

Groups at this scale (a few thousand elements, bounded by ``order_bound``)
are listed completely by one breadth-first walk under the generators; no
stabiliser chain is built.  Only the Nielsen layer's conjugation actions,
whose acting groups can be much larger, keep one level of one: orbit
transversals and point stabilizers, of known sizes.  Dihedral, SL2,
Heisenberg and vector groups know their order in closed form, and A_n and
S_n theirs up to the bound, so bound and cap precede building and listing.

Indexed view.  ``group.indexed()`` numbers the sorted elements 0..n-1 and
returns an ``IndexedGroup`` whose elements are those indices: ``mul`` is a
lookup in the Cayley table, with an inverse list and the class of every index
beside it.  It is itself a ``FiniteGroup``, so closure, powers, conjugation
and conjugacy classes run on it unchanged; data products are spent only on
the listing walk, which the table reuses, and the classes found on indices
fill the data group's.  Only groups that never get a view (covers, groups
over the table cap, ``bcl``'s) compute classes on data.  An element's order
is read off its class once known, else found by powering.  The Nielsen
search, canonical forms, braid orbits, cusps, genus, tower levels and
``check`` work on index tuples, converting at their public boundary; data
stays where inherent: parsing and formatting, class-vector membership in
``lift_classes_to_level``, cover arithmetic in ``lift`` (covers are never
listed), the normalizer's conjugation in absolute mode (its elements lie
outside G), and ``bcl``.  Index order equals data order, so the least index
tuple of a set is the index form of its least data tuple, and every sorted
list and label comes out as it would on data.  The view is built on first
use: by the commands that compute Nielsen classes and by every tower level,
before their classes are read.  A view whose table would exceed
``TABLE_ENTRY_CAP`` entries raises ``BudgetError`` before anything is
allocated.
"""

from __future__ import annotations

import json
import operator
import re
from functools import cached_property
from math import factorial, gcd, isqrt, prod
from typing import NamedTuple

from .errors import BudgetError, ValidationError, shown

DEFAULT_ORDER_BOUND = 10**6

# Entries an indexed view's Cayley table (n^2 for a group of order n), the
# transporters of a conjugation action (n per element read, built on first
# read), the permutations of one of its stabilizers (n per permutation) or a
# class vector may hold: about 30 MB of references at the cap.  It admits
# order 2000, enough for SL2(9) (720), the level-1 vector tower group at
# ell = 5 (1875) and D625 (1250).
TABLE_ENTRY_CAP = 4_000_000

# largest degree whose Sym(n)-normalizer is searched when no catalog
# generators are attached
SYM_SEARCH_DEGREE_LIMIT = 9


# ---------------------------------------------------------------------------
# permutation words


def identity_perm(n: int) -> tuple[int, ...]:
    """The identity word on n symbols.

    >>> identity_perm(4)
    (0, 1, 2, 3)
    """
    return tuple(range(n))


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q.

    >>> a = perm_from_cycles([(0, 1)], 3)
    >>> b = perm_from_cycles([(1, 2)], 3)
    >>> perm_mul(a, b)   # 0 -> 1 -> 2
    (2, 0, 1)
    """
    return tuple(map(q.__getitem__, p))


def perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse word: sends p[i] back to i.

    >>> perm_inv((2, 0, 1))
    (1, 2, 0)
    """
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_from_cycles(cycles, n: int) -> tuple[int, ...]:
    """Build a word from 0-based cycles.

    >>> perm_from_cycles([(0, 1, 2)], 4)
    (1, 2, 0, 3)
    """
    out = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            out[a] = b
    return tuple(out)


def cycles_of_perm(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, each starting at its least symbol.

    >>> cycles_of_perm((1, 2, 0, 3))
    [(0, 1, 2)]
    """
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset of cycle lengths including fixed points, sorted descending.

    >>> cycle_type((1, 0, 2, 3))
    (2, 1, 1)
    """
    lengths = [len(c) for c in cycles_of_perm(p)]
    lengths += [1] * (len(p) - sum(lengths))
    return tuple(sorted(lengths, reverse=True))


def riemann_hurwitz(types, n: int) -> tuple[tuple[int, ...], int]:
    """Indices and genus of a connected degree-n cover from the cycle types
    of its branch cycles: 2(n + g - 1) is the sum of the indices, and the
    index of a cycle type is n minus its number of cycles.

    >>> riemann_hurwitz([(3,), (3,), (3,)], 3)
    ((2, 2, 2), 1)
    """
    indices = tuple(n - len(t) for t in types)
    total = sum(indices)
    if total % 2:
        raise ValidationError("odd total ramification index; not a valid branch-cycle tuple")
    return indices, total // 2 - n + 1


_CYCLE_RE = re.compile(r"\(\s*([0-9,\s]*)\)")


def read_int(text: str) -> int:
    """A decimal integer from input; one too long for ``int`` is invalid input."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"integer of {len(text)} digits is too long to read") from None


def parse_perm(text: str, n: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation like ``"(1,2,3)(4,5)"``.

    >>> parse_perm("(1,2,3)", 4)
    (1, 2, 0, 3)
    >>> parse_perm("()", 3)
    (0, 1, 2)
    """
    text = text.strip()
    if text in ("()", "", "e", "id"):
        return identity_perm(n)
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise ValidationError(f"unexpected text in permutation: {shown(text)}")
        pos = m.end()
        body = m.group(1).strip()
        if not body:
            continue
        items = body.split(",")
        if not all(s.strip().isdigit() for s in items):
            raise ValidationError(f"bad cycle in permutation: {shown(text)}")
        syms = [read_int(s) for s in items]
        if any(s < 1 or s > n for s in syms):
            raise ValidationError(f"symbol out of range 1..{n} in {shown(text)}")
        if len(set(syms)) != len(syms):
            raise ValidationError(f"repeated symbol in cycle: {shown(text)}")
        cycles.append(tuple(s - 1 for s in syms))
    if pos != len(text) and text[pos:].strip():
        raise ValidationError(f"unexpected text in permutation: {shown(text)}")
    flat = [s for c in cycles for s in c]
    if len(set(flat)) != len(flat):
        raise ValidationError(f"cycles are not disjoint: {shown(text)}")
    return perm_from_cycles(cycles, n)


def format_perm(p: tuple[int, ...]) -> str:
    """1-based cycle notation; identity prints as ``"()"``.

    >>> format_perm((1, 2, 0, 3))
    '(1,2,3)'
    """
    cycles = cycles_of_perm(p)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(s + 1) for s in c) + ")" for c in cycles)


# ---------------------------------------------------------------------------
# group kinds


class FiniteGroup:
    """Base class: a finite group of tuple data, enumerated on demand.

    Subclasses supply ``mul``, ``inv`` and ``identity``.
    """

    kind = "abstract"
    sym_normalizer_gens = None  # catalog generators of the Sym(n)-normalizer

    def __init__(self, gens, name: str, order_bound: int = DEFAULT_ORDER_BOUND,
                 order: int | None = None):
        self.gens = tuple(gens)
        self.name = name
        self.descriptor = name
        self.order_bound = order_bound
        self._order = order  # a closed form, known before the group is listed
        self._elements: tuple | None = None
        self._index: dict | None = None
        self._left: tuple | None = None  # the listing walk's products, see ``_walk``
        self._classes = None
        self._class_of = None
        self._indexed: IndexedGroup | None = None
        # canonical-form tables of the Nielsen layer, one per equivalence, and
        # the tower layer's ell' subgroup verdicts by (ell, sorted generators)
        self._conj_actions: dict = {}
        self._ell_prime: dict = {}

    # subclasses override these three
    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def conj(self, g, a):
        """a^-1 * g * a."""
        return self.mul(self.mul(self.inv(a), g), a)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._walk()
        return self._elements

    def _walk(self) -> None:
        """List and index the group by a breadth-first walk under left
        multiplication by the generators, which stops past the order bound;
        within the table cap it keeps its products, ``_left[k][i]`` the index
        of ``gens[k] * elements[i]``."""
        mul, gens, keep = self.mul, self.gens, min(isqrt(TABLE_ENTRY_CAP), self.order_bound)
        queue, rows, seen = [self.identity], [], {self.identity}
        for x in queue:  # breadth first: the queue grows while it is read
            ys = [mul(g, x) for g in gens]
            for y in ys:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
            if len(queue) <= keep:
                rows.append(ys)
            else:
                rows = None
                check_order_bound(self.name, len(queue), self.order_bound)
        at = sorted(range(len(queue)), key=queue.__getitem__)
        els = self._elements = tuple(map(queue.__getitem__, at))
        index = self._index = {g: i for i, g in enumerate(els)}
        if rows is not None:
            self._left = tuple(zip(*(map(index.__getitem__, rows[p]) for p in at)))

    @property
    def order(self) -> int:
        return len(self.elements) if self._order is None else self._order

    def __contains__(self, g) -> bool:
        self.elements
        return g in self._index

    def indexed(self) -> "IndexedGroup":
        """The indexed view of this group, built on first use."""
        if self._indexed is None:
            self._indexed = IndexedGroup(self)
        return self._indexed

    def close(self, seed, stop_above: int | None = None) -> set:
        """Closure of ``seed`` (plus the identity) under multiplication.

        Stops early, returning a partial closure, once it holds more than
        ``stop_above`` elements: a seed generates a group of order n exactly
        when its closure exceeds n // 2, since no proper subgroup is larger.
        """
        mul = self.mul
        gens = set(seed)
        seen = {self.identity} | gens
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = mul(a, g)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
                if stop_above is not None and len(seen) > stop_above:
                    return seen
            check_order_bound(self.name, len(seen), self.order_bound)
            frontier = nxt
        return seen

    def power(self, g, m: int):
        """g^m for any integer m, by repeated squaring."""
        if m < 0:
            g, m = self.inv(g), -m
        out = self.identity
        while m:
            if m & 1:
                out = self.mul(out, g)
            g = self.mul(g, g)
            m >>= 1
        return out

    def element_order(self, g) -> int:
        """Read off g's class once the classes are known, else by powering."""
        if self._classes is not None:
            return self._classes[self.class_index_of(g)].element_order
        return len(self._powers(g))

    def _powers(self, g) -> list:
        """g, g^2, ..., g^d = identity, where d is the order of g."""
        e, out = self.identity, [g]
        while out[-1] != e:
            out.append(self.mul(out[-1], g))
        return out

    # -- conjugacy -----------------------------------------------------
    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        if self._classes is None:
            els = self.elements
            gens = self.gens
            seen = set()
            raw = []
            orders: dict = {}  # g^k has order d / gcd(k, d) when g has order d
            for x in els:
                if x in seen:
                    continue
                orbit, queue = {x}, [x]
                for y in queue:
                    for a in gens:
                        z = self.conj(y, a)
                        if z not in orbit:
                            orbit.add(z)
                            queue.append(z)
                seen |= orbit
                if x not in orders:  # x is the least of its class: els is sorted
                    powers = self._powers(x)
                    d = len(powers)
                    orders.update((y, d // gcd(k, d)) for k, y in enumerate(powers, 1))
                raw.append((orders[x], len(orbit), x, orbit))
            # ordering: (element order, class size, least representative)
            raw.sort(key=lambda c: c[:3])
            classes = []
            per_order: dict[int, int] = {}
            for d, size, rep, orbit in raw:
                idx = per_order.get(d, 0)
                per_order[d] = idx + 1
                classes.append(ConjugacyClass(f"{d}{_letters(idx)}", d, size, rep,
                                              frozenset(orbit)))
            self._class_of = {g: i for i, cl in enumerate(classes) for g in cl.members}
            self._classes = tuple(classes)
        return self._classes

    def class_index_of(self, g) -> int:
        self.conjugacy_classes()
        try:
            return self._class_of[g]
        except KeyError:
            raise ValidationError(f"element {self.format(g)} is not in"
                                  f" {shown(self.name)}") from None

    # -- formatting ----------------------------------------------------
    def format(self, g) -> str:
        return repr(g)

    def parse(self, text: str):
        raise ValidationError(f"cannot parse elements of kind {self.kind}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def _letters(idx: int) -> str:
    # 0 -> a, 25 -> z, 26 -> aa, ...
    out = ""
    idx += 1
    while idx:
        idx, r = divmod(idx - 1, 26)
        out = chr(ord("a") + r) + out
    return out


class ConjugacyClass(NamedTuple):
    label: str
    element_order: int
    size: int
    rep: tuple
    members: frozenset


def check_order_bound(name: str, n: int, bound: int) -> None:
    if n > bound:
        raise BudgetError(f"group closure for {shown(name)} exceeded order bound {bound}")


class IndexedGroup(FiniteGroup):
    """A group whose elements are the positions 0..n-1 of ``data.elements``.

    ``table[a][b]`` is the index of ``data.mul(elements[a], elements[b])``.
    Its rows are composed along the listing walk's tree from its products, so
    the table takes no data product of its own; inverses are read off it,
    and the classes are computed on indices.
    """

    kind = "indexed"

    def __init__(self, data: FiniteGroup):
        if data.order ** 2 > TABLE_ENTRY_CAP:  # before anything is listed
            raise BudgetError(f"multiplication table of {shown(data.name)} needs {data.order ** 2}"
                              f" entries, above the cap {TABLE_ENTRY_CAP}")
        els = data.elements
        n = len(els)
        index = data._index
        super().__init__((index[g] for g in data.gens), data.name, data.order_bound)
        self.data = data
        self.descriptor = data.descriptor
        self._identity = e = index[data.identity]
        self._elements = tuple(range(n))
        self._index = {i: i for i in self._elements}
        # y = gens[k] * x has y * b = gens[k] * (x * b)
        rows = [None] * n
        rows[e] = self._elements
        queue = [e]
        for x in queue:
            for left in data._left:
                y = left[x]
                if rows[y] is None:
                    rows[y] = operator.itemgetter(*rows[x])(left)
                    queue.append(y)
        self.table = tuple(rows)
        self.inverse = tuple(row.index(e) for row in self.table)
        classes = self.conjugacy_classes()
        class_of = self._class_of = [self._class_of[i] for i in self._elements]
        if data._classes is None:
            data._classes = tuple(
                ConjugacyClass(cl.label, cl.element_order, cl.size, els[cl.rep],
                               frozenset(map(els.__getitem__, cl.members)))
                for cl in classes
            )
            data._class_of = dict(zip(els, class_of))

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, a):
        table = self.table
        return table[table[self.inverse[a]][g]][a]

    @property
    def identity(self):
        return self._identity

    def to_index(self, t) -> tuple:
        """Index tuple of a tuple of data elements (KeyError for non-members)."""
        index = self.data._index
        return tuple(index[g] for g in t)

    def to_data(self, t) -> tuple:
        els = self.data.elements
        return tuple(els[i] for i in t)

    @cached_property
    def element_strings(self) -> tuple[str, ...]:
        """Every element in the data group's notation, by index."""
        return tuple(map(self.data.format, self.data.elements))

    def format(self, g):
        return self.element_strings[g]


class GroupHom:
    """A verified homomorphism between finite groups, stored as its images.

    ``images[i]`` is the image of ``source.gens[i]`` and must be an element
    of the target.  One breadth-first search from the identity extends the
    images over the source and checks map(x * g) == map(x) * map(g) at every
    element x and generator g; by induction on word length that forces the
    map to be multiplicative everywhere.  The source is listed first, under
    its order bound, by ``source.elements``.  The map is stored once, as
    ``element_images`` in ``source.elements`` order (between indexed views,
    the index map).  Source and target may be data groups or indexed views.

    >>> c2, v4 = make_group("gens:[(1,2)]"), make_group("gens:[(1,2)(3,4)]")
    >>> GroupHom(c2, v4, [v4.parse("(1,3)")])
    Traceback (most recent call last):
    ...
    hurwitz.errors.ValidationError: image of generator 1 is not an element of 'gens:[(1,2)(3,4)]'
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        images = tuple(images)
        if len(images) != len(source.gens):
            raise ValidationError(
                f"need {len(source.gens)} generator images, got {len(images)}"
            )
        for i, img in enumerate(images, 1):
            if img not in target:
                raise ValidationError(
                    f"image of generator {i} is not an element of {shown(target.name)}"
                )
        els = source.elements
        pairs = tuple(zip(source.gens, images))
        smul, tmul = source.mul, target.mul
        mapped = {source.identity: target.identity}
        queue = [source.identity]
        for x in queue:  # breadth first: the queue grows while it is read
            mx = mapped[x]
            for g, img in pairs:
                y = smul(x, g)
                v = tmul(mx, img)
                got = mapped.get(y)
                if got is None:
                    mapped[y] = v
                    queue.append(y)
                elif got != v:
                    raise ValidationError(
                        "generator images do not define a homomorphism"
                    )
        self.source = source
        self.target = target
        self.element_images = tuple(map(mapped.__getitem__, els))

    def __call__(self, x):
        return self.element_images[self.source._index[x]]

    def kernel(self) -> tuple:
        """The kernel, sorted as ``source.elements`` is."""
        e = self.target.identity
        return tuple(x for x, y in zip(self.source.elements, self.element_images) if y == e)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.element_images)) == self.target.order

    def preimage(self, y):
        """The least preimage of y (deterministic section)."""
        try:
            return self.source.elements[self.element_images.index(y)]
        except ValueError:
            raise ValidationError("element has no preimage") from None


class PermutationGroup(FiniteGroup):
    kind = "permutation"

    def __init__(self, gens, n: int, name: str, **kw):
        self.degree = n
        super().__init__(gens, name, **kw)

    mul = staticmethod(perm_mul)
    inv = staticmethod(perm_inv)

    @property
    def identity(self):
        return identity_perm(self.degree)

    def format(self, g):
        return format_perm(g)

    def parse(self, text):
        return parse_perm(text, self.degree)


class Sl2Group(FiniteGroup):
    """SL2 over Z/m; elements are (a, b, c, d) row-major with det = 1."""

    kind = "sl2"

    def __init__(self, m: int, **kw):
        if m < 2:
            raise ValidationError("SL2 modulus must be at least 2")
        self.modulus = m
        gens = ((1, 1, 0, 1), (1, 0, 1, 1))  # they generate SL2(Z), which maps onto SL2(Z/m)
        primes, rest = set(), m  # by trial division up to sqrt(m)
        while rest > 1:
            primes.add(p := _smallest_prime_factor(rest))
            rest //= p
        order = m**3 * prod(p * p - 1 for p in primes) // prod(p * p for p in primes)
        super().__init__(gens, f"SL2({m})", order=order, **kw)

    def mul(self, x, y):
        m = self.modulus
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            (a1 * a2 + b1 * c2) % m,
            (a1 * b2 + b1 * d2) % m,
            (c1 * a2 + d1 * c2) % m,
            (c1 * b2 + d1 * d2) % m,
        )

    def inv(self, x):
        m = self.modulus
        a, b, c, d = x
        return (d % m, -b % m, -c % m, a % m)

    @property
    def identity(self):
        return (1, 0, 0, 1)

    def format(self, g):
        a, b, c, d = g
        return f"[[{a},{b}],[{c},{d}]]"

    def parse(self, text):
        try:
            (a, b), (c, d) = _int_rows(json.loads(text), 2, 2)
        except Exception:
            raise ValidationError(f"bad SL2 element: {shown(text)}") from None
        m = self.modulus
        g = (a % m, b % m, c % m, d % m)
        if (g[0] * g[3] - g[1] * g[2]) % m != 1:
            raise ValidationError(f"matrix {shown(text)} has determinant != 1 mod {m}")
        return g


class HeisenbergGroup(FiniteGroup):
    """Upper unitriangular 3x3 matrices over Z/m, stored as (x, y, z)
    for rows [[1, x, z], [0, 1, y], [0, 0, 1]].
    """

    kind = "heisenberg"

    def __init__(self, m: int, **kw):
        if m < 2:
            raise ValidationError("Heisenberg modulus must be at least 2")
        self.modulus = m
        gens = ((1, 0, 0), (0, 1, 0))
        super().__init__(gens, f"Heis({m})", order=m**3, **kw)

    def mul(self, a, b):
        m = self.modulus
        x1, y1, z1 = a
        x2, y2, z2 = b
        return ((x1 + x2) % m, (y1 + y2) % m, (z1 + z2 + x1 * y2) % m)

    def inv(self, a):
        m = self.modulus
        x, y, z = a
        return (-x % m, -y % m, (x * y - z) % m)

    @property
    def identity(self):
        return (0, 0, 0)

    def format(self, g):
        return f"[{g[0]},{g[1]},{g[2]}]"

    def parse(self, text):
        try:
            (x, y, z), = _int_rows([json.loads(text)], 1, 3)
        except Exception:
            raise ValidationError(f"bad Heisenberg element: {shown(text)}") from None
        m = self.modulus
        return (x % m, y % m, z % m)


def _mat_mul(a, b, m):
    t = len(b[0])
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) % m for j in range(t))
        for row in a
    )


def _mat_identity(t):
    return tuple(tuple(1 if i == j else 0 for j in range(t)) for i in range(t))


def _mat_order(mat, m, name: str, order_bound: int) -> int:
    """The order q of an invertible matrix mod m, up to the order bound on m^t * q."""
    ident, lattice = _mat_identity(len(mat)), m ** len(mat)
    x, k = mat, 1
    while x != ident:
        x = _mat_mul(x, mat, m)
        k += 1
        check_order_bound(name, lattice * k, order_bound)
    return k


def _int_rows(rows, t: int, n: int) -> tuple | None:
    """``rows`` as t rows of n ints each, else None; a bool or a float is no int here."""
    try:
        out = tuple(map(tuple, rows))
    except TypeError:
        return None
    ok = len(out) == t and all(len(r) == n and all(type(v) is int for v in r) for r in out)
    return out if ok else None


def check_lattice(t, m, action) -> tuple:
    """The one check of a lattice action: an integer rank t >= 1, a modulus
    m >= 2 and a t x t matrix of ints, returned as tuples."""
    if type(t) is not int or t < 1:
        raise ValidationError(f"lattice rank t must be at least 1, got {t!r}")
    if type(m) is not int or m < 2:
        raise ValidationError(f"lattice modulus must be at least 2, got {m!r}")
    mat = _int_rows(action, t, t)
    if mat is None:
        raise ValidationError(f"action matrix must be {t}x{t} with integer entries")
    return mat


class VectorSemidirectGroup(FiniteGroup):
    """(Z/m)^t semidirect a cyclic complement acting by an invertible matrix.

    Elements are ``(v, a)`` with ``v`` a length-t residue tuple and ``a`` the
    complement exponent; ``(v1, a)(v2, b) = (v1*M^b + v2, a + b)`` (row
    vectors, so the product is again "apply first factor first").  The
    lattice order m^t is checked against the order bound before any matrix
    work, and the complement order q is found under that bound.
    """

    kind = "vector-semidirect"

    def __init__(self, t: int, m: int, action, order_bound: int = DEFAULT_ORDER_BOUND):
        mat = tuple(tuple(x % m for x in row) for row in check_lattice(t, m, action))
        name = f"V({t},{m})"
        check_order_bound(name, m**t, order_bound)
        det = _det_mod(mat, m)
        if gcd(det, m) != 1:
            raise ValidationError(f"action matrix not invertible mod {m} (det={det})")
        self.modulus, self.dim, self.action = m, t, mat
        q = self.complement_order = _mat_order(mat, m, name, order_bound)
        powers = [_mat_identity(t)]
        for _ in range(q - 1):
            powers.append(_mat_mul(powers[-1], mat, m))
        # entry j of v * M^b is the dot product of v with column j of M^b
        self._columns = [tuple(zip(*p)) for p in powers]
        gens = (*((e, 0) for e in powers[0]), ((0,) * t, 1 % q))  # basis, complement
        super().__init__(gens, name, order_bound, order=m**t * q)

    def mul(self, a, b):
        m = self.modulus
        v1, a1 = a
        v2, b1 = b
        v = tuple((sum(map(operator.mul, v1, col)) + x) % m
                  for col, x in zip(self._columns[b1], v2))
        return (v, (a1 + b1) % self.complement_order)

    def inv(self, a):
        v, k = a
        m, k = self.modulus, -k % self.complement_order
        return (tuple(-sum(map(operator.mul, v, col)) % m for col in self._columns[k]), k)

    @property
    def identity(self):
        return (tuple(0 for _ in range(self.dim)), 0)

    def format(self, g):
        v, a = g
        return "[" + ",".join(str(x) for x in v) + "|" + str(a) + "]"

    def parse(self, text):
        m = re.fullmatch(r"\[\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\|\s*(-?\d+)\s*\]", text.strip())
        if not m:
            raise ValidationError(f"bad semidirect element: {shown(text)}")
        v = tuple(read_int(x) % self.modulus for x in m.group(1).split(","))
        if len(v) != self.dim:
            raise ValidationError(f"vector part of {shown(text)} must have length {self.dim}")
        return (v, read_int(m.group(2)) % self.complement_order)


def _det_mod(mat, m):
    """Determinant reduced mod m, by fraction-free (Bareiss) elimination over
    Z: each division is exact, so any modulus, prime or not, is exact too."""
    a = [[v % m for v in row] for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] % m


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


# ---------------------------------------------------------------------------
# class vectors


class Frozen:
    """Attributes set once, by ``__init__`` through ``vars(self)``.

    Records in this package are NamedTuples or subclasses of this one, not
    dataclasses: ``dataclasses`` generates and compiles every class's methods
    at import, which each command-line launch would pay for again.
    """

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__


class ClassVector(Frozen):
    """A multiset of conjugacy classes, stored as sorted class indices; two
    are equal when their indices are."""

    def __init__(self, group: FiniteGroup, indices: tuple[int, ...]):
        vars(self).update(group=group, indices=tuple(sorted(indices)))

    def __eq__(self, other):
        return self.indices == other.indices if other.__class__ is ClassVector else NotImplemented

    def __hash__(self):
        return hash(self.indices)

    @property
    def r(self) -> int:
        return len(self.indices)

    def labels(self) -> tuple[str, ...]:
        cls = self.group.conjugacy_classes()
        return tuple(cls[i].label for i in self.indices)

    def reps(self) -> tuple:
        cls = self.group.conjugacy_classes()
        return tuple(cls[i].rep for i in self.indices)

    def __str__(self):
        return "[" + ",".join(self.labels()) + "]"


def class_vector_items(text: str) -> list[tuple[str, int]]:
    """A class vector's items and their repetition counts: its length and
    size are known and checked before any group is built."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValidationError(f"class vector must be bracketed: {shown(text)}")
    body = text[1:-1].strip()
    if not body:
        raise ValidationError("empty class vector")
    items, r = [], 0
    for item in _split_top_level(body):
        m = re.fullmatch(r"(.*?)\s*x\s*(\d+)", item)
        item, mult = (m.group(1).strip(), read_int(m.group(2))) if m else (item, 1)
        r += mult
        if r > TABLE_ENTRY_CAP:
            raise BudgetError(f"class vector has more than {TABLE_ENTRY_CAP} entries")
        items.append((item, mult))
    if r < 2:
        raise ValidationError("class vector needs at least 2 entries")
    return items


def parse_class_vector(group: FiniteGroup, text: str) -> ClassVector:
    """Parse ``[3a,3a,3b,3b]`` or explicit representatives ``[(1,2,3)x2,...]``.

    Items are class labels or element strings in the group's own notation,
    optionally with an ``xN`` repetition suffix.
    """
    items = class_vector_items(text)
    classes = group.conjugacy_classes()
    by_label = {cl.label: i for i, cl in enumerate(classes)}
    indices: list[int] = []
    for item, mult in items:
        if item in by_label:
            idx = by_label[item]
        elif re.fullmatch(r"\d+[a-z]+", item):
            labels = list(by_label)  # the first six, and the count when there are more
            more = f", ... ({len(labels)} in all)" if len(labels) > 6 else ""
            raise ValidationError(f"no class {shown(item)} in {shown(group.name)};"
                                  f" its class labels are {', '.join(labels[:6])}{more}")
        else:
            idx = group.class_index_of(group.parse(item))
        indices.extend([idx] * mult)
    return ClassVector(group, tuple(indices))


def _split_top_level(body: str) -> list[str]:
    items, depth, cur = [], 0, []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    items.append("".join(cur))
    return [s for s in (i.strip() for i in items) if s]


def class_power(cv: ClassVector, m: int) -> ClassVector:
    """Entrywise m-th power map on classes; m must be prime to every entry order."""
    group = cv.group
    classes = group.conjugacy_classes()
    out = []
    for i in cv.indices:
        d = classes[i].element_order
        if gcd(m, d) != 1:
            raise ValidationError(f"power {m} is not prime to class order {d}")
        out.append(group.class_index_of(group.power(classes[i].rep, m % d)))
    return ClassVector(group, tuple(out))


# ---------------------------------------------------------------------------
# catalog


def alternating(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """A_n by the 3-cycles (i, i+1, i+2), built after its order n!/2 is
    checked against the bound.  As k! >= 2^(k-1), the factorial need not run
    past the bound's bit length: n!/2, or else a value above the bound."""
    if n < 3:
        raise ValidationError("alternating group needs n >= 3")
    order = factorial(min(n, order_bound.bit_length() + 2)) // 2
    check_order_bound(f"A{n}", order, order_bound)
    gens = [perm_from_cycles([(i, i + 1, i + 2)], n) for i in range(n - 2)]
    return PermutationGroup(gens, n, f"A{n}", order=order, order_bound=order_bound)


def symmetric(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    if n < 2:
        raise ValidationError("symmetric group needs n >= 2")
    order = factorial(min(n, order_bound.bit_length() + 2))  # as for A_n
    check_order_bound(f"S{n}", order, order_bound)
    return PermutationGroup(_symmetric_gens(n), n, f"S{n}", order=order,
                            order_bound=order_bound)


def _symmetric_gens(n: int):
    if n <= 2:
        return [perm_from_cycles([(0, 1)], 2)] if n == 2 else []
    return [perm_from_cycles([(0, 1)], n), perm_from_cycles([tuple(range(n))], n)]


def dihedral(n: int, order_bound: int = DEFAULT_ORDER_BOUND) -> PermutationGroup:
    """Dihedral group of order 2n on n symbols: rotation x+1 and reflection -x.
    Its order is checked against the bound before the n-point generators
    are built."""
    if n < 3:
        raise ValidationError("dihedral group needs n >= 3")
    check_order_bound(f"D{n}", 2 * n, order_bound)
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return _Dihedral([rot, refl], n, f"D{n}", order=2 * n, order_bound=order_bound)


class _Dihedral(PermutationGroup):
    @cached_property
    def sym_normalizer_gens(self) -> list:
        """The normalizer of this copy inside Sym(n) is the affine group
        x -> ax+b: catalog generators, so larger n avoids brute force, built
        when ``normalizer_in_sym`` first asks."""
        n = self.degree
        return [self.gens[0], *(tuple((a * i) % n for i in range(n))
                                for a in _unit_generators(n))]


def _unit_generators(n: int) -> list[int]:
    """Greedy generators of (Z/n)^*: each step adds the least unit that
    enlarges the generated subgroup most, so a cyclic group gets one
    primitive root.  A unit a multiplies the order of a subgroup S by the
    least k >= 1 with a^k in S."""
    units = [a for a in range(2, n) if gcd(a, n) == 1]
    gens, sub = [], {1}
    while len(sub) <= len(units):
        best = 1
        for a in units:
            k, x = 1, a
            while x not in sub:
                k, x = k + 1, x * a % n
            if k > best:
                best, pick = k, a
                if k * len(sub) > len(units):
                    break
        gens.append(pick)
        sub = {s * pow(pick, j, n) % n for s in sub for j in range(best)}
    return gens


def vector_descriptor(m: int, action) -> str:
    """The descriptor of (Z/m)^t x| Z/q acting by ``action`` reduced mod m."""
    rows = ",".join("[" + ",".join(str(v % m) for v in row) + "]" for row in action)
    return f"V({len(action)},{m}):M=[{rows}]"


def _vector_group(m, kw) -> VectorSemidirectGroup:
    try:
        mat = json.loads(m.group(3), parse_int=read_int)
    except (json.JSONDecodeError, RecursionError):  # or nested too deep
        raise ValidationError(f"bad action matrix in {shown(m.group(0))}") from None
    return VectorSemidirectGroup(read_int(m.group(1)), read_int(m.group(2)), mat, **kw)


def _sl2_group(m, kw) -> Sl2Group:
    # |SL2(Z/m)| > m^3/2, as 1 - p^-2 over all primes multiplies to 6/pi^2
    n = read_int(m.group(1))
    check_order_bound(f"SL2({n})", n**3 // 2, kw["order_bound"])
    return Sl2Group(n, **kw)


def _generated_group(m, kw) -> PermutationGroup:
    parts = _split_top_level(m.group(1)[1:-1])
    syms = [read_int(s) for p in parts for s in re.findall(r"\d+", p)]
    if not syms:
        raise ValidationError(f"no symbols in generator list {shown(m.group(0))}")
    n = max(syms)
    return PermutationGroup([parse_perm(p, n) for p in parts], n, m.group(0), **kw)


_DESCRIPTOR_RES = [
    (re.compile(r"A(\d+)$"), lambda m, kw: alternating(read_int(m.group(1)), **kw)),
    (re.compile(r"S(\d+)$"), lambda m, kw: symmetric(read_int(m.group(1)), **kw)),
    (re.compile(r"D(\d+)$"), lambda m, kw: dihedral(read_int(m.group(1)), **kw)),
    (re.compile(r"SL2\((\d+)\)$"), _sl2_group),
    (re.compile(r"Heis\((\d+)\)$"), lambda m, kw: HeisenbergGroup(read_int(m.group(1)), **kw)),
    (re.compile(r"V\((\d+),(\d+)\):M=(\[.*\])$"), _vector_group),
    (re.compile(r"gens:(\[.*\])$"), _generated_group),
]


def make_group(descriptor: str, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Build a group from a descriptor string.

    Supported forms: ``A4`` ``S5`` ``D7`` ``SL2(9)`` ``Heis(5)``,
    ``V(2,5):M=[[0,-1],[1,-1]]`` for a vector group with cyclic action, and
    ``gens:[(1,2,3),(2,3,4)]`` for an explicit permutation group.
    """
    desc = descriptor.strip()
    kw = {"order_bound": order_bound}
    for rx, build in _DESCRIPTOR_RES:
        m = rx.fullmatch(desc)
        if m:
            g = build(m, kw)
            g.descriptor = desc
            # lists g unless its order has a closed form
            check_order_bound(g.name, g.order, g.order_bound)
            return g
    raise ValidationError(f"cannot parse group descriptor {shown(descriptor)}")


# ---------------------------------------------------------------------------
# normalizers in the symmetric group


def normalizer_in_sym(group: PermutationGroup) -> PermutationGroup:
    """The normalizer of ``group`` in Sym(n), given by generators and listed
    only on demand: the catalog generators a dihedral group attaches, each
    checked; Sym(n)'s two generators when ``group`` has index at most 2 (A_n
    or S_n, both normal); or else generators picked by ``_span`` from a
    search over Sym(n) (``_sym_normalizer_search``) for n <=
    ``SYM_SEARCH_DEGREE_LIMIT``.  The Nielsen layer cuts it down to the
    subgroup fixing a class multiset.
    """
    if group.kind != "permutation":
        raise ValidationError("normalizer_in_sym needs a permutation group")
    n, name = group.degree, f"N_Sym({shown(group.name)})"
    if group.sym_normalizer_gens is not None:
        gens = group.sym_normalizer_gens
        for s in gens:
            if any(group.conj(g, s) not in group for g in group.gens):
                raise ValidationError(f"catalog generator {format_perm(s)} does not"
                                      f" normalize {shown(group.name)}")
    elif 2 * group.order >= factorial(n):
        gens = _symmetric_gens(n)
    elif n <= SYM_SEARCH_DEGREE_LIMIT:
        found = _sym_normalizer_search(group)
        gens = _span(found, n, name, len(found))[0]
    else:
        raise BudgetError(
            f"no catalog normalizer for {shown(group.name)} and degree {n} exceeds "
            f"brute-force limit {SYM_SEARCH_DEGREE_LIMIT}"
        )
    return PermutationGroup(gens, n, name)


def _span(perms, n: int, name: str, size: int) -> tuple[list, set]:
    """Generators picked from ``perms`` (of n points) and the group of order
    ``size`` they generate: each one outside the group so far is added and
    the group closed again, until it holds ``size`` elements.  A size above
    ``TABLE_ENTRY_CAP // n`` raises ``BudgetError`` before any closure."""
    cap = TABLE_ENTRY_CAP // n
    if size > cap:
        raise BudgetError(f"{name} need {size} permutations, above the cap of {cap}")
    sym = PermutationGroup((), n, name)
    gens, span = [], {identity_perm(n)}
    for p in perms:
        if len(span) == size:
            break
        if p not in span:
            gens.append(p)
            span = sym.close(gens, stop_above=size - 1)
    return gens, span


def _sym_normalizer_search(group: PermutationGroup) -> list:
    """Every s in Sym(n) normalizing ``group``, assigning s(0), s(1), ... in
    turn: h = s^-1 g s has h(s(y)) = s(g(y)) for a generator g, and a partial
    s is dropped once some h agrees with no element of the group there."""
    n, gens = group.degree, group.gens
    # the facts (j, y) that s(k) completes: both y and gens[j][y] are <= k
    facts = [[(j, y) for j, g in enumerate(gens) for y in {k, g.index(k)} if max(y, g[y]) <= k]
             for k in range(n)]

    def extend(s: list, cands: list):
        if len(s) == n:
            yield tuple(s)
        for v in sorted(set(range(n)).difference(s)):
            t, nxt = s + [v], list(cands)
            for j, y in facts[len(s)]:
                a, b = t[y], t[gens[j][y]]
                nxt[j] = [h for h in nxt[j] if h[a] == b]
            if all(nxt):
                yield from extend(t, nxt)

    return list(extend([], [group.elements] * len(gens)))
