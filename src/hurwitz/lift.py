"""Central extensions, same-order lifts, lift invariants, Frattini checks.

A central extension psi: H -> G with kernel K of exponent N lifts every
g in G of order d prime to N to a unique same-order element of H, namely
h^t for any preimage h, with t = N * (N^{-1} mod d).  The lift invariant of
a product-one tuple is the product of the same-order lifts of its entries;
it lands in K and is constant on braid orbits, so a nontrivial value
obstructs the tuple's orbit from lifting through psi.

The built-in covers are the two binary double covers SL2(Z/3) -> A4 and
SL2(Z/5) -> A5 (the n = 4, 5 spin covers of the alternating groups), and
the small-Heisenberg extensions Heis(l) x| Z/3 -> (Z/l)^2 x| Z/3 obtained
by extending an order-3 matrix action to the Heisenberg group.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from math import gcd, lcm

from .errors import ValidationError
from .groups import (
    ClassVector,
    FiniteGroup,
    HeisenbergGroup,
    HeisenbergSemidirectGroup,
    Sl2Group,
    VectorSemidirectGroup,
    _mat_mul,
    _smallest_prime_factor,
    alternating,
)

FRATTINI_TUPLE_BUDGET = 200_000

# the companion matrix of x^2 + x + 1: the default order-3 action of vector
# towers and Heisenberg covers
COMPANION = ((0, -1), (1, -1))


class GroupHom:
    """A verified homomorphism between finite groups, stored as a full map.

    Construction checks map(x * g) == map(x) * map(g) for every element x
    and generator g; by induction on word length that forces the map to be
    multiplicative everywhere.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping
        self._verify()
        self._kernel = None
        self._least_preimage = None

    @classmethod
    def from_gen_images(cls, source: FiniteGroup, target: FiniteGroup,
                        images) -> "GroupHom":
        """Propagate generator images over the whole source by word closure."""
        images = tuple(images)
        if len(images) != len(source.gens):
            raise ValidationError(
                f"need {len(source.gens)} generator images, got {len(images)}"
            )
        gen_images = dict(zip(source.gens, images))
        mapping = {source.identity: target.identity}
        frontier = [source.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g, img in gen_images.items():
                    y = source.mul(x, g)
                    v = target.mul(mapping[x], img)
                    got = mapping.get(y)
                    if got is None:
                        mapping[y] = v
                        nxt.append(y)
                    elif got != v:
                        raise ValidationError(
                            "generator images do not define a homomorphism"
                        )
            frontier = nxt
        return cls(source, target, mapping)

    @classmethod
    def from_callable(cls, source: FiniteGroup, target: FiniteGroup,
                      fn) -> "GroupHom":
        return cls(source, target, {x: fn(x) for x in source.elements})

    def _verify(self) -> None:
        src, tgt, m = self.source, self.target, self.mapping
        if len(m) != src.order:
            raise ValidationError("homomorphism map does not cover the source")
        if m[src.identity] != tgt.identity:
            raise ValidationError("homomorphism must send identity to identity")
        for x in src.elements:
            mx = m[x]
            for g in src.gens:
                if m[src.mul(x, g)] != tgt.mul(mx, m[g]):
                    raise ValidationError(
                        "map is not multiplicative on a generator pair"
                    )

    def apply(self, x):
        return self.mapping[x]

    def __call__(self, x):
        return self.mapping[x]

    def kernel(self) -> tuple:
        if self._kernel is None:
            e = self.target.identity
            self._kernel = tuple(
                sorted(x for x in self.source.elements if self.mapping[x] == e)
            )
        return self._kernel

    def image(self) -> frozenset:
        return frozenset(self.mapping.values())

    @property
    def is_surjective(self) -> bool:
        return len(self.image()) == self.target.order

    def preimage(self, y):
        """The least preimage of y (deterministic section)."""
        if self._least_preimage is None:
            least: dict = {}
            for x in self.source.elements:  # sorted, so first hit is least
                least.setdefault(self.mapping[x], x)
            self._least_preimage = least
        try:
            return self._least_preimage[y]
        except KeyError:
            raise ValidationError("element has no preimage") from None

    def preimages(self, y) -> tuple:
        return tuple(x for x in self.source.elements if self.mapping[x] == y)

    def compose(self, other: "GroupHom") -> "GroupHom":
        """other after self: source --self--> mid --other--> far."""
        if other.source is not self.target:
            raise ValidationError("composition needs matching middle group")
        return GroupHom(
            self.source, other.target,
            {x: other.mapping[y] for x, y in self.mapping.items()},
        )


class CentralExtension:
    """A surjection psi: cover -> base whose kernel is central in the cover."""

    def __init__(self, cover: FiniteGroup, base: FiniteGroup,
                 projection: GroupHom, name: str = ""):
        if projection.source is not cover or projection.target is not base:
            raise ValidationError("projection must map the cover onto the base")
        if not projection.is_surjective:
            raise ValidationError("central extension projection must be onto")
        self.cover = cover
        self.base = base
        self.projection = projection
        self.name = name or f"{cover.name}->{base.name}"
        self.kernel = projection.kernel()
        for k in self.kernel:
            for g in cover.gens:
                if cover.mul(k, g) != cover.mul(g, k):
                    raise ValidationError("extension kernel is not central")
        self.kernel_exponent = lcm(
            *(cover.element_order(k) for k in self.kernel)
        ) if len(self.kernel) > 1 else 1
        self._alt_thunks = None

    @property
    def alternatives(self) -> tuple["CentralExtension", ...]:
        """Other extensions found by the same search, built on first access."""
        if self._alt_thunks is not None:
            rest, build = self._alt_thunks
            self._alt_built = tuple(build(st) for st in rest)
            self._alt_thunks = None
        return getattr(self, "_alt_built", ())

    @property
    def kernel_order(self) -> int:
        return len(self.kernel)

    def __repr__(self):
        return f"CentralExtension({self.name}, kernel order {self.kernel_order})"


@dataclass(frozen=True)
class LiftInvariant:
    value: object
    trivial: bool
    extension: CentralExtension

    @property
    def label(self) -> str:
        if self.trivial:
            return "1"
        return self.extension.cover.format(self.value)

    def to_dict(self) -> dict:
        return {"value": self.label, "trivial": self.trivial}


def same_order_lift(ext: CentralExtension, g):
    """The unique preimage of g of the same order.

    Requires ord(g) prime to the kernel exponent N; the lift is h^t for any
    preimage h, with t = N * (N^{-1} mod d) and d = ord(g).
    """
    base, cover = ext.base, ext.cover
    d = base.element_order(g)
    n = ext.kernel_exponent
    if gcd(n, d) != 1:
        raise ValidationError(
            f"element order {d} is not coprime to the kernel exponent {n}"
        )
    h = ext.projection.preimage(g)
    if n == 1:
        return h
    return cover.power(h, n * pow(n, -1, d))


def lift_invariant(ext: CentralExtension, t: tuple) -> LiftInvariant:
    """Product of the same-order lifts of a product-one tuple, in the kernel."""
    cover = ext.cover
    val = cover.identity
    for g in t:
        val = cover.mul(val, same_order_lift(ext, g))
    if val not in set(ext.kernel):
        raise ValidationError(
            "lift product landed outside the kernel; tuple is not product-one"
        )
    return LiftInvariant(value=val, trivial=val == cover.identity, extension=ext)


def lift_class_vector(ext: CentralExtension, cv: ClassVector) -> ClassVector:
    """The class vector of same-order lifts of cv's representatives."""
    cover = ext.cover
    idx = tuple(
        cover.class_index_of(same_order_lift(ext, rep)) for rep in cv.reps()
    )
    return ClassVector(cover, idx)


def is_obstructed(ext: CentralExtension, orbit_or_tuple) -> bool:
    """True iff the lift invariant of the orbit's representative is nontrivial."""
    t = getattr(orbit_or_tuple, "rep", orbit_or_tuple)
    return not lift_invariant(ext, t).trivial


def is_frattini_cover(hom: GroupHom, budget: int = FRATTINI_TUPLE_BUDGET) -> bool:
    """Whether every lift of a generating set of the target generates the source.

    Exhaustive over kernel translates of one fixed lift tuple: any proper
    subgroup surjecting onto the target contains some translate tuple, so
    this is sound and complete.  Emits a cost warning (and keeps going) when
    the number of translate tuples exceeds the budget.
    """
    src, tgt = hom.source, hom.target
    if not hom.is_surjective:
        raise ValidationError("Frattini test needs a surjective homomorphism")
    kernel = hom.kernel()
    gens = tgt.gens
    n_tuples = len(kernel) ** len(gens)
    if n_tuples > budget:
        warnings.warn(
            f"Frattini check enumerates {n_tuples} kernel-translate tuples "
            f"(budget {budget}); this may take a while",
            RuntimeWarning,
            stacklevel=2,
        )
    lifts = [hom.preimage(g) for g in gens]
    # A translate subgroup S surjects onto the target, so |S| is |target|
    # times a divisor of |kernel|; once it exceeds the largest proper value
    # it must be everything.  A trivial kernel leaves no proper value
    # (threshold = |source|), and every translate generates.
    threshold = tgt.order * (len(kernel) // _smallest_prime_factor(len(kernel)))
    for ks in product(kernel, repeat=len(gens)):
        seeds = [src.mul(h, k) for h, k in zip(lifts, ks)]
        if len(src.close(seeds, stop_above=threshold)) <= threshold < src.order:
            return False
    return True


# ---------------------------------------------------------------------------
# catalog covers

_SPIN_GEN_IMAGES = {
    4: ("(2,3,4)", "(1,2,3)"),
    5: ("(1,2,3,4,5)", "(1,2,4,5,3)"),
}


def spin_cover(n: int) -> CentralExtension:
    """The double cover of A_n by SL2(Z/3) (n = 4) or SL2(Z/5) (n = 5).

    Generator images are catalog data; the homomorphism is re-verified on
    every construction.
    """
    if n not in _SPIN_GEN_IMAGES:
        raise ValidationError("spin covers are built in for n = 4 and n = 5 only")
    cover = Sl2Group(3 if n == 4 else 5)
    base = alternating(n)
    images = tuple(base.parse(s) for s in _SPIN_GEN_IMAGES[n])
    hom = GroupHom.from_gen_images(cover, base, images)
    ext = CentralExtension(cover, base, hom, name=f"spin{n}")
    if ext.kernel_order != 2:
        raise ValidationError("spin cover must have kernel of order 2")
    return ext


def _normalize_matrix(m, ell: int) -> tuple:
    rows = tuple(tuple(int(v) % ell for v in row) for row in m)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValidationError("Heisenberg extension needs a 2x2 matrix")
    return rows


def _heisenberg_corrections(ell: int, m: tuple):
    """Valid linear corrections (s, t) to the cocycle term, plus helpers.

    An automorphism of Heis(ell) over the matrix action m must scale the
    center by lam = det(m) and add a cocycle q(v) = B(v, v)/2 + s*x + t*y,
    where B is the symmetric defect form; (s, t) is valid iff the induced
    map has order 3.  The order-3 condition is affine in (s, t), so invalid
    candidates die on the first vector tested.
    """
    lam = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % ell

    def act(v):
        return (
            (v[0] * m[0][0] + v[1] * m[1][0]) % ell,
            (v[0] * m[0][1] + v[1] * m[1][1]) % ell,
        )

    inv2 = pow(2, -1, ell)

    def q_base(v):
        w = act(v)
        return ((w[0] * w[1] - lam * v[0] * v[1]) % ell * inv2) % ell

    lam2 = (lam * lam) % ell
    vecs = [(x, y) for x in range(ell) for y in range(ell)]
    # residual obligation at each v once the base cocycle is in place
    base_tot = {}
    coeff = {}
    for v in vecs:
        mv = act(v)
        mmv = act(mv)
        base_tot[v] = (lam2 * q_base(v) + lam * q_base(mv) + q_base(mmv)) % ell
        coeff[v] = (
            (lam2 * v[0] + lam * mv[0] + mmv[0]) % ell,
            (lam2 * v[1] + lam * mv[1] + mmv[1]) % ell,
        )

    def valid(s, t):
        for v in vecs:
            a, b = coeff[v]
            if (base_tot[v] + a * s + b * t) % ell:
                return False
        return True

    corrections = (
        (s, t) for s in range(ell) for t in range(ell) if valid(s, t)
    )
    return lam, act, q_base, corrections


def extend_action_to_heisenberg(ell: int, m) -> CentralExtension:
    """Extend an order-3 matrix action on (Z/l)^2 to Heis(l), centrally.

    Searches the finite space of compatible automorphisms: the action on the
    center is forced to be multiplication by det(m), and the remaining
    freedom is a linear correction to the quadratic cocycle term.  Returns
    the extension for the least valid correction; every other valid choice
    appears on ``.alternatives`` (built on first access).  The modulus may
    be any odd prime power not divisible by 3, so towers can ask for the
    level-k cover over Z/ell^(k+1).
    """
    if ell < 2 or ell % 2 == 0 or ell % 3 == 0:
        raise ValidationError(
            "Heisenberg extension needs an odd modulus prime to 3"
        )
    m = _normalize_matrix(m, ell)
    ident = ((1, 0), (0, 1))
    m2 = _mat_mul(m, m, ell)
    if _mat_mul(m2, m, ell) != ident or m == ident:
        raise ValidationError("action matrix must have order exactly 3")

    lam, act, q_base, corrections = _heisenberg_corrections(ell, m)
    base = VectorSemidirectGroup(2, ell, m, name=f"(Z/{ell})^2:3")
    heis = HeisenbergGroup(ell)

    def build(st):
        s, t = st
        alpha = {}
        for h in heis.elements:
            v = (h[0], h[1])
            w = act(v)
            z = (lam * h[2] + q_base(v) + s * v[0] + t * v[1]) % ell
            alpha[h] = (w[0], w[1], z)
        cover = HeisenbergSemidirectGroup(
            heis, alpha, 3, name=f"Heis({ell}):3"
        )
        hom = GroupHom.from_callable(
            cover, base, lambda e: ((e[0][0], e[0][1]), e[1])
        )
        return CentralExtension(cover, base, hom, name=f"heis({ell})[{s},{t}]")

    first = next(corrections, None)
    if first is None:
        raise ValidationError(
            "no order-3 extension of the action to the Heisenberg group exists"
        )
    primary = build(first)
    primary._alt_thunks = (corrections, build)
    return primary


def heisenberg_cover(ell: int, m=None) -> CentralExtension:
    """Heisenberg extension for ``m``, by default the companion matrix."""
    return extend_action_to_heisenberg(ell, COMPANION if m is None else m)
