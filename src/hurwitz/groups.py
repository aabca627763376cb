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
are enumerated completely by breadth-first closure over the generators; no
stabiliser-chain machinery is used or needed.

Indexed view.  ``group.indexed()`` numbers the sorted elements 0..n-1 and
returns an ``IndexedGroup`` whose elements are those indices: ``mul`` is a
lookup in the Cayley table, with an inverse list and the class of every
index beside it.  It is itself a ``FiniteGroup``, so closure, powers,
conjugation and element orders run on it unchanged.  The Nielsen search,
canonical forms and braid orbits work on index tuples and convert to data
only at their public boundary.  Index order equals data order, so the
least index tuple of a set is the index form of its least data tuple, and
every sorted list and label comes out as it would on data.  The view is
built on first use, only for groups whose Nielsen classes are computed;
a view whose table would exceed ``TABLE_ENTRY_CAP`` entries raises
``BudgetError`` before anything is allocated.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import permutations
from math import factorial, gcd

from .errors import BudgetError, ValidationError

DEFAULT_ORDER_BOUND = 10**6

# Entries (n^2 for a group of order n) an indexed view's Cayley table, or
# the index permutations of a conjugation action, may hold: about 30 MB of
# references at the cap.  It admits order 2000, enough for SL2(9) (720) and
# the level-1 vector tower group at ell = 5 (1875).
TABLE_ENTRY_CAP = 4_000_000


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
            raise ValidationError(f"unexpected text in permutation: {text!r}")
        pos = m.end()
        body = m.group(1).strip()
        if not body:
            continue
        try:
            syms = [int(s) for s in body.split(",")]
        except ValueError:
            raise ValidationError(f"bad cycle in permutation: {text!r}") from None
        if any(s < 1 or s > n for s in syms):
            raise ValidationError(f"symbol out of range 1..{n} in {text!r}")
        if len(set(syms)) != len(syms):
            raise ValidationError(f"repeated symbol in cycle: {text!r}")
        cycles.append(tuple(s - 1 for s in syms))
    if pos != len(text) and text[pos:].strip():
        raise ValidationError(f"unexpected text in permutation: {text!r}")
    flat = [s for c in cycles for s in c]
    if len(set(flat)) != len(flat):
        raise ValidationError(f"cycles are not disjoint: {text!r}")
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

    def __init__(self, gens, name: str, order_bound: int = DEFAULT_ORDER_BOUND):
        self.gens = tuple(gens)
        self.name = name
        self.descriptor = name
        self.order_bound = order_bound
        self.sym_normalizer_gens = None
        self._elements: tuple | None = None
        self._index: dict | None = None
        self._orders: dict = {}
        self._classes = None
        self._class_of = None
        self._indexed: IndexedGroup | None = None
        # canonical-form tables of the Nielsen layer, one per equivalence
        self._conj_actions: dict = {}

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
            closure = self.close(self.gens)
            self._elements = tuple(sorted(closure))
            self._index = {g: i for i, g in enumerate(self._elements)}
        return self._elements

    @property
    def element_set(self) -> frozenset:
        self.elements
        return frozenset(self._index)

    @property
    def order(self) -> int:
        return len(self.elements)

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
        bound = self.order_bound
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
            if len(seen) > bound:
                raise BudgetError(
                    f"group closure for {self.name} exceeded order bound {bound}"
                )
            frontier = nxt
        return seen

    def subgroup_order(self, seed) -> int:
        return len(self.close(seed))

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
        got = self._orders.get(g)
        if got is None:
            e = self.identity
            k, x = 1, g
            while x != e:
                x = self.mul(x, g)
                k += 1
            self._orders[g] = got = k
        return got

    # -- conjugacy -----------------------------------------------------
    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        if self._classes is None:
            els = self.elements
            gens = self.gens
            seen = set()
            raw = []
            for x in els:
                if x in seen:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        for a in gens:
                            z = self.conj(y, a)
                            if z not in orbit:
                                orbit.add(z)
                                nxt.append(z)
                    frontier = nxt
                seen |= orbit
                raw.append(orbit)
            # ordering: (element order, class size, least representative)
            raw.sort(key=lambda orb: (self.element_order(min(orb)), len(orb), min(orb)))
            classes = []
            per_order: dict[int, int] = {}
            for orb in raw:
                rep = min(orb)
                d = self.element_order(rep)
                idx = per_order.get(d, 0)
                per_order[d] = idx + 1
                label = f"{d}{_letters(idx)}"
                classes.append(
                    ConjugacyClass(
                        label=label,
                        element_order=d,
                        size=len(orb),
                        rep=rep,
                        members=frozenset(orb),
                    )
                )
            self._classes = tuple(classes)
            self._class_of = {}
            for i, cl in enumerate(self._classes):
                for g in cl.members:
                    self._class_of[g] = i
        return self._classes

    def class_index_of(self, g) -> int:
        self.conjugacy_classes()
        try:
            return self._class_of[g]
        except KeyError:
            raise ValidationError(f"element {self.format(g)} is not in {self.name}") from None

    def class_by_label(self, label: str) -> int:
        for i, cl in enumerate(self.conjugacy_classes()):
            if cl.label == label:
                return i
        raise ValidationError(f"no conjugacy class {label!r} in {self.name}")

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


@dataclass(frozen=True)
class ConjugacyClass:
    label: str
    element_order: int
    size: int
    rep: tuple
    members: frozenset


class IndexedGroup(FiniteGroup):
    """A group whose elements are the positions 0..n-1 of ``data.elements``.

    ``table[a][b]`` is the index of ``data.mul(elements[a], elements[b])``.
    Each row is filled along a spanning tree of the generators, so building
    the table takes n data products per generator and n^2 lookups.
    """

    kind = "indexed"

    def __init__(self, data: FiniteGroup):
        els = data.elements
        n = len(els)
        if n * n > TABLE_ENTRY_CAP:
            raise BudgetError(
                f"multiplication table of {data.name} needs {n * n} entries,"
                f" above the cap {TABLE_ENTRY_CAP}"
            )
        index = data._index
        super().__init__((index[g] for g in data.gens), data.name, data.order_bound)
        self.data = data
        self.descriptor = data.descriptor
        self._identity = index[data.identity]
        self._elements = tuple(range(n))
        self._index = {i: i for i in self._elements}
        right = [tuple(index[data.mul(x, g)] for x in els) for g in data.gens]
        self._tree = []
        seen = {self._identity}
        frontier = [self._identity]
        while frontier:
            nxt = []
            for x in frontier:
                for k, col in enumerate(right):
                    y = col[x]
                    if y not in seen:
                        seen.add(y)
                        self._tree.append((x, k, y))
                        nxt.append(y)
            frontier = nxt
        self.table = tuple(self._along_tree(a, right) for a in self._elements)
        self.inverse = tuple(index[data.inv(g)] for g in els)
        self._classes = tuple(
            replace(cl, rep=index[cl.rep], members=frozenset(index[g] for g in cl.members))
            for cl in data.conjugacy_classes()
        )
        self._class_of = [data._class_of[g] for g in els]
        self._orders = {index[g]: d for g, d in data._orders.items()}

    def _along_tree(self, start: int, cols) -> tuple:
        """The map f with f(identity) = start and f(x * gens[k]) = cols[k][f(x)]."""
        out = [0] * len(self._elements)
        out[self._identity] = start
        for x, k, y in self._tree:
            out[y] = cols[k][out[x]]
        return tuple(out)

    def automorphism(self, images) -> tuple:
        """The index permutation of the automorphism sending gens[k] to images[k]."""
        table = self.table
        return self._along_tree(
            self._identity, [tuple(row[h] for row in table) for h in images]
        )

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

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

    def format(self, g):
        return self.data.format(self.data.elements[g])

    def parse(self, text):
        g = self.data.parse(text)
        if g not in self.data:
            raise ValidationError(f"element {text!r} is not in {self.name}")
        return self.data._index[g]


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

    def __init__(self, m: int, name: str | None = None, **kw):
        if m < 2:
            raise ValidationError("SL2 modulus must be at least 2")
        self.modulus = m
        gens = ((1, 1, 0, 1), (1, 0, 1, 1))
        super().__init__(gens, name or f"SL2({m})", **kw)

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
            rows = json.loads(text)
            (a, b), (c, d) = rows
        except Exception:
            raise ValidationError(f"bad SL2 element: {text!r}") from None
        m = self.modulus
        g = (a % m, b % m, c % m, d % m)
        if (g[0] * g[3] - g[1] * g[2]) % m != 1:
            raise ValidationError(f"matrix {text!r} has determinant != 1 mod {m}")
        return g


class HeisenbergGroup(FiniteGroup):
    """Upper unitriangular 3x3 matrices over Z/m, stored as (x, y, z)
    for rows [[1, x, z], [0, 1, y], [0, 0, 1]].
    """

    kind = "heisenberg"

    def __init__(self, m: int, name: str | None = None, **kw):
        if m < 2:
            raise ValidationError("Heisenberg modulus must be at least 2")
        self.modulus = m
        gens = ((1, 0, 0), (0, 1, 0))
        super().__init__(gens, name or f"Heis({m})", **kw)

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
            x, y, z = json.loads(text)
        except Exception:
            raise ValidationError(f"bad Heisenberg element: {text!r}") from None
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


def _vec_mat(v, mat, m):
    return tuple(sum(v[k] * mat[k][j] for k in range(len(v))) % m for j in range(len(v)))


def _mat_order(mat, m, cap=10_000):
    ident = _mat_identity(len(mat))
    x, k = mat, 1
    while x != ident:
        x = _mat_mul(x, mat, m)
        k += 1
        if k > cap:
            raise ValidationError("action matrix has no finite order mod modulus (not invertible?)")
    return k


class VectorSemidirectGroup(FiniteGroup):
    """(Z/m)^t semidirect a cyclic complement acting by an invertible matrix.

    Elements are ``(v, a)`` with ``v`` a length-t residue tuple and ``a`` the
    complement exponent; ``(v1, a)(v2, b) = (v1*M^b + v2, a + b)`` (row
    vectors, so the product is again "apply first factor first").
    """

    kind = "vector-semidirect"

    def __init__(self, t: int, m: int, action, name: str | None = None, **kw):
        self.modulus = m
        self.dim = t
        mat = tuple(tuple(x % m for x in row) for row in action)
        if len(mat) != t or any(len(r) != t for r in mat):
            raise ValidationError(f"action matrix must be {t}x{t}")
        det = _det_mod(mat, m)
        if gcd(det, m) != 1:
            raise ValidationError(f"action matrix not invertible mod {m} (det={det})")
        self.action = mat
        q = _mat_order(mat, m)
        self.complement_order = q
        self._powers = [_mat_identity(t)]
        for _ in range(q - 1):
            self._powers.append(_mat_mul(self._powers[-1], mat, m))
        zero = tuple(0 for _ in range(t))
        basis = tuple(
            (tuple(1 if i == j else 0 for i in range(t)), 0) for j in range(t)
        )
        gens = basis + ((zero, 1 % q),)
        super().__init__(gens, name or f"V({t},{m})", **kw)

    def mul(self, a, b):
        m = self.modulus
        v1, a1 = a
        v2, b1 = b
        mat = self._powers[b1]
        v = tuple(
            (sum(v1[k] * mat[k][j] for k in range(self.dim)) + v2[j]) % m
            for j in range(self.dim)
        )
        return (v, (a1 + b1) % self.complement_order)

    def inv(self, a):
        v, k = a
        q = self.complement_order
        mat = self._powers[(-k) % q]
        u = tuple(-x % self.modulus for x in _vec_mat(v, mat, self.modulus))
        return (u, (-k) % q)

    @property
    def identity(self):
        return (tuple(0 for _ in range(self.dim)), 0)

    def format(self, g):
        v, a = g
        return "[" + ",".join(str(x) for x in v) + "|" + str(a) + "]"

    def parse(self, text):
        m = re.fullmatch(r"\[\s*([0-9,\s-]*)\|\s*(-?\d+)\s*\]", text.strip())
        if not m:
            raise ValidationError(f"bad semidirect element: {text!r}")
        v = tuple(int(x) % self.modulus for x in m.group(1).split(","))
        if len(v) != self.dim:
            raise ValidationError(f"vector part of {text!r} must have length {self.dim}")
        return (v, int(m.group(2)) % self.complement_order)


def _det_mod(mat, m):
    """Determinant by cofactor expansion along the first row, reduced mod m."""
    n = len(mat)
    if n == 1:
        return mat[0][0] % m
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det_mod(minor, m)
    return total % m


def _smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


class HeisenbergSemidirectGroup(FiniteGroup):
    """Heis(m) semidirect Z/q via an automorphism given as an explicit map.

    The automorphism is supplied as a dict on Heisenberg data; its powers are
    precomputed.  Elements are ``(h, a)`` and multiply like the vector case:
    ``(h1, a)(h2, b) = (alpha^b(h1) * h2, a + b)``.
    """

    kind = "heisenberg-semidirect"

    def __init__(self, heis: HeisenbergGroup, alpha: dict, q: int, name: str, **kw):
        self.heis = heis
        self.complement_order = q
        self._alpha_pows = [{g: g for g in heis.elements}]
        for _ in range(q - 1):
            prev = self._alpha_pows[-1]
            self._alpha_pows.append({g: alpha[prev[g]] for g in heis.elements})
        ident = self._alpha_pows[0]
        check = {g: alpha[self._alpha_pows[-1][g]] for g in heis.elements}
        if check != ident:
            raise ValidationError(f"automorphism does not have order dividing {q}")
        gens = ((heis.gens[0], 0), (heis.gens[1], 0), (heis.identity, 1))
        super().__init__(gens, name, **kw)

    def mul(self, a, b):
        h1, a1 = a
        h2, b1 = b
        return (self.heis.mul(self._alpha_pows[b1][h1], h2), (a1 + b1) % self.complement_order)

    def inv(self, a):
        h, k = a
        q = self.complement_order
        b = (-k) % q
        return (self.heis.inv(self._alpha_pows[b][h]), b)

    @property
    def identity(self):
        return (self.heis.identity, 0)

    def format(self, g):
        (x, y, z), a = g
        return f"[{x},{y},{z}|{a}]"


# ---------------------------------------------------------------------------
# class vectors


@dataclass(frozen=True)
class ClassVector:
    """A multiset of conjugacy classes, stored as sorted class indices."""

    group: FiniteGroup = field(compare=False)
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))

    @property
    def r(self) -> int:
        return len(self.indices)

    def labels(self) -> tuple[str, ...]:
        cls = self.group.conjugacy_classes()
        return tuple(cls[i].label for i in self.indices)

    def reps(self) -> tuple:
        cls = self.group.conjugacy_classes()
        return tuple(cls[i].rep for i in self.indices)

    def multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i in self.indices:
            out[i] = out.get(i, 0) + 1
        return out

    def __str__(self):
        return "[" + ",".join(self.labels()) + "]"


def parse_class_vector(group: FiniteGroup, text: str) -> ClassVector:
    """Parse ``[3a,3a,3b,3b]`` or explicit representatives ``[(1,2,3)x2,...]``.

    Items are class labels or element strings in the group's own notation,
    optionally with an ``xN`` repetition suffix.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValidationError(f"class vector must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise ValidationError("empty class vector")
    items = _split_top_level(body)
    classes = group.conjugacy_classes()
    by_label = {cl.label: i for i, cl in enumerate(classes)}
    indices: list[int] = []
    for item in items:
        item = item.strip()
        mult = 1
        m = re.fullmatch(r"(.*?)\s*x\s*(\d+)", item)
        if m and not item.startswith("[["):
            item, mult = m.group(1).strip(), int(m.group(2))
        if item in by_label:
            idx = by_label[item]
        else:
            g = group.parse(item)
            idx = group.class_index_of(g)
        indices.extend([idx] * mult)
    if len(indices) < 2:
        raise ValidationError("class vector needs at least 2 entries")
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


def alternating(n: int, **kw) -> PermutationGroup:
    if n < 3:
        raise ValidationError("alternating group needs n >= 3")
    gens = [perm_from_cycles([(i, i + 1, i + 2)], n) for i in range(n - 2)]
    g = PermutationGroup(gens, n, f"A{n}", **kw)
    g.sym_normalizer_gens = _symmetric_gens(n)
    return g


def symmetric(n: int, **kw) -> PermutationGroup:
    if n < 2:
        raise ValidationError("symmetric group needs n >= 2")
    g = PermutationGroup(_symmetric_gens(n), n, f"S{n}", **kw)
    g.sym_normalizer_gens = _symmetric_gens(n)
    return g


def _symmetric_gens(n: int):
    if n == 2:
        return [perm_from_cycles([(0, 1)], 2)]
    return [perm_from_cycles([(0, 1)], n), perm_from_cycles([tuple(range(n))], n)]


def dihedral(n: int, **kw) -> PermutationGroup:
    """Dihedral group of order 2n on n symbols: rotation x+1 and reflection -x.

    The normalizer of this copy inside Sym(n) is the affine group x -> ax+b,
    attached here as catalog generators so larger n avoids brute force.
    """
    if n < 3:
        raise ValidationError("dihedral group needs n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    g = PermutationGroup([rot, refl], n, f"D{n}", **kw)
    g.sym_normalizer_gens = [rot] + [tuple((a * i) % n for i in range(n))
                                     for a in _unit_generators(n)]
    return g


def _unit_generators(n: int) -> list[int]:
    """Greedy generators of (Z/n)^*: each step adds the least unit that
    enlarges the generated subgroup most, so a cyclic group gets one
    primitive root.  A unit a is closed as diag(a, 1/a) in SL2(Z/n)."""
    sl2 = Sl2Group(n)
    diag = {a: (a, 0, 0, pow(a, -1, n)) for a in range(2, n) if gcd(a, n) == 1}
    gens, sub = [], {sl2.identity}
    while len(sub) <= len(diag):
        best = sub
        for a in diag:
            span = sl2.close([diag[b] for b in gens] + [diag[a]])
            if len(span) > len(best):
                best, pick = span, a
                if len(best) > len(diag):
                    break
        gens.append(pick)
        sub = best
    return gens


_DESCRIPTOR_RES = [
    (re.compile(r"A(\d+)$"), lambda m, kw: alternating(int(m.group(1)), **kw)),
    (re.compile(r"S(\d+)$"), lambda m, kw: symmetric(int(m.group(1)), **kw)),
    (re.compile(r"D(\d+)$"), lambda m, kw: dihedral(int(m.group(1)), **kw)),
    (re.compile(r"SL2\((\d+)\)$"), lambda m, kw: Sl2Group(int(m.group(1)), **kw)),
    (re.compile(r"Heis\((\d+)\)$"), lambda m, kw: HeisenbergGroup(int(m.group(1)), **kw)),
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
            g.order  # force enumeration so the bound is enforced up front
            return g
    m = re.fullmatch(r"V\((\d+),(\d+)\):M=(\[.*\])", desc)
    if m:
        t, mod = int(m.group(1)), int(m.group(2))
        try:
            mat = json.loads(m.group(3))
        except json.JSONDecodeError:
            raise ValidationError(f"bad action matrix in {desc!r}") from None
        g = VectorSemidirectGroup(t, mod, mat, **kw)
        g.descriptor = desc
        g.order
        return g
    m = re.fullmatch(r"gens:(\[.*\])", desc)
    if m:
        body = m.group(1)[1:-1]
        parts = _split_gen_list(body)
        syms = [int(s) for p in parts for s in re.findall(r"\d+", p)]
        if not syms:
            raise ValidationError(f"no symbols in generator list {desc!r}")
        n = max(syms)
        gens = [parse_perm(p, n) for p in parts]
        g = PermutationGroup(gens, n, desc, **kw)
        g.descriptor = desc
        g.order
        return g
    raise ValidationError(f"cannot parse group descriptor {descriptor!r}")


def _split_gen_list(body: str) -> list[str]:
    # generators are runs of ()-groups; commas separate them at depth 0
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


# ---------------------------------------------------------------------------
# normalizers in the symmetric group


def normalizer_in_sym(group: PermutationGroup, cv: ClassVector | None = None,
                      brute_force_limit: int = 9) -> PermutationGroup:
    """Subgroup of Sym(n) normalizing ``group`` and fixing the class multiset.

    Uses catalog-attached generators when present; otherwise a search over
    Sym(n) (``_sym_normalizer_search``) for n <= ``brute_force_limit``.
    """
    if group.kind != "permutation":
        raise ValidationError("normalizer_in_sym needs a permutation group")
    n = group.degree
    if group.sym_normalizer_gens is not None:
        good = PermutationGroup(catalog_normalizer_gens(group), n, f"N({group.name})").elements
    elif n <= brute_force_limit:
        good = _sym_normalizer_search(group)
    else:
        raise BudgetError(
            f"no catalog normalizer for {group.name} and degree {n} exceeds "
            f"brute-force limit {brute_force_limit}"
        )
    if cv is not None:
        good = [s for s in good if _preserves_class_multiset(group, cv, s)]
    result = PermutationGroup(tuple(good), n, f"N_Sym({group.name})")
    result._elements = tuple(sorted(good))
    result._index = {g: i for i, g in enumerate(result._elements)}
    return result


def _sym_normalizer_search(group: PermutationGroup) -> list:
    """Every s in Sym(n) normalizing ``group``, assigning s(0), s(1), ... in
    turn: h = s^-1 g s has h(s(y)) = s(g(y)) for a generator g, and a partial
    s is dropped once some h agrees with no element of the group there."""
    n, gens = group.degree, group.gens
    if 2 * group.order >= factorial(n):  # A_n or S_n, both normal in Sym(n)
        return list(permutations(range(n)))
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


def catalog_normalizer_gens(group: PermutationGroup) -> list:
    """The catalog generators of the Sym(n)-normalizer, each checked once."""
    for s in group.sym_normalizer_gens:
        if not _normalizes(group, s):
            raise ValidationError(f"catalog generator {format_perm(s)} does not"
                                  f" normalize {group.name}")
    return group.sym_normalizer_gens


def _normalizes(group: PermutationGroup, s) -> bool:
    return all(group.conj(g, s) in group for g in group.gens)


def _preserves_class_multiset(group: PermutationGroup, cv: ClassVector, s) -> bool:
    mult = cv.multiset()
    classes = group.conjugacy_classes()
    for i, m in mult.items():
        j = group.class_index_of(group.conj(classes[i].rep, s))
        if mult.get(j) != m:
            return False
    return True
