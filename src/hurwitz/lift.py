"""Central extensions, same-order lifts, lift invariants, Frattini checks.

A central extension psi: H -> G with kernel K of exponent N lifts every
g in G of order d prime to N to a unique same-order element of H, namely
h^t for any preimage h, with t = N * (N^{-1} mod d).  The lift invariant of
a product-one tuple is the product of the same-order lifts of its entries;
it lands in K and is constant on braid orbits, so a nontrivial value
obstructs the tuple's orbit from lifting through psi.

Every cover is a ``CentralExtension`` given by a projection, a section and
its kernel, and is built over the group object the caller holds, which is
its ``base``.  The built-in covers are the two binary double covers
SL2(Z/3) -> A4 and SL2(Z/5) -> A5 (the n = 4, 5 spin covers of the
alternating groups), and the small-Heisenberg extensions
Heis(l) x| Z/3 -> (Z/l)^2 x| Z/3 obtained by extending an order-3 matrix
action to the Heisenberg group; ``heisenberg_obstruction`` is the one rule
for when such an extension exists.  The spin and ``hom:`` covers project by a
``GroupHom`` given by generator images, checked on every element and
generator as it is built; its least preimages and kernel are the section and
kernel.  ``GroupHom`` lives in the groups module, where tower level maps and
conjugation automorphisms are built with it too.  A Heisenberg cover is the
semidirect product Heis(l) x| Z/3 by a formula, so dropping the central
coordinate is a homomorphism by construction, its kernel and section
v -> (v, 0) are read off the formula, and the cover is never enumerated;
its automorphism multiplies with the base's own action columns.  Each
action gets one extension, for the least valid cocycle correction.

``is_frattini_cover`` takes any surjective ``GroupHom`` and runs on its
source as given: on data for SL2(27) -> SL2(9), between indexed views for the
tower steps G_k -> G_(k-1).  Above ``FRATTINI_TUPLE_BUDGET`` it raises
``BudgetError`` before any closure.
"""

from __future__ import annotations

from itertools import product
from math import factorial, gcd, lcm
from typing import NamedTuple

from .errors import BudgetError, ValidationError, shown
from .groups import (
    FiniteGroup,
    GroupHom,
    HeisenbergGroup,
    VectorSemidirectGroup,
    _det_mod,
    _smallest_prime_factor,
    make_group,
)

# kernel-translate tuples a Frattini check may enumerate; above it the check
# raises BudgetError, which tower reports print as a "skipped" step
FRATTINI_TUPLE_BUDGET = 200_000


class CentralExtension:
    """A surjection psi: cover -> base whose kernel is central in the cover.

    ``projection`` is a homomorphism (a ``GroupHom``, or a map that is one
    by construction), given with its ``section`` (one preimage of each base
    element) and ``kernel``.  It is onto when the section splits it on the
    base's generators, since its image is a subgroup, and each kernel
    element must commute with the cover's generators.
    """

    def __init__(self, cover: FiniteGroup, base: FiniteGroup, projection,
                 section, kernel, name: str):
        if any(projection(section(g)) != g for g in base.gens):
            raise ValidationError("central extension projection must be onto")
        self.cover = cover
        self.base = base
        self.projection = projection
        self.section = section
        self.name = name
        self.kernel = tuple(kernel)
        for k in self.kernel:
            for g in cover.gens:
                if cover.mul(k, g) != cover.mul(g, k):
                    raise ValidationError("extension kernel is not central")
        self.kernel_exponent = lcm(*map(cover.element_order, self.kernel))

    @property
    def kernel_order(self) -> int:
        return len(self.kernel)

    def __repr__(self):
        return f"CentralExtension({self.name}, kernel order {self.kernel_order})"


class LiftInvariant(NamedTuple):
    value: object
    trivial: bool
    extension: CentralExtension

    @property
    def label(self) -> str:
        if self.trivial:
            return "1"
        return self.extension.cover.format(self.value)


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
    h = ext.section(g)
    if n == 1:
        return h
    return cover.power(h, n * pow(n, -1, d))


def lift_invariant(ext: CentralExtension, t: tuple) -> LiftInvariant:
    """Product of the same-order lifts of a product-one tuple, in the kernel."""
    cover = ext.cover
    val = cover.identity
    for g in t:
        val = cover.mul(val, same_order_lift(ext, g))
    if val not in ext.kernel:
        raise ValidationError(
            "lift product landed outside the kernel; tuple is not product-one"
        )
    return LiftInvariant(value=val, trivial=val == cover.identity, extension=ext)


def is_frattini_cover(hom: GroupHom) -> bool:
    """Whether every lift of a generating set of the target generates the source.

    Exhaustive over kernel translates of the least lifts of the target's
    generators: any proper subgroup surjecting onto the target contains some
    translate tuple, so this is sound and complete.  The closures run on the
    source as given.  Raises ``BudgetError`` before the first closure when the
    number of translate tuples exceeds ``FRATTINI_TUPLE_BUDGET``.
    """
    src, tgt = hom.source, hom.target
    if not hom.is_surjective:
        raise ValidationError("Frattini test needs a surjective homomorphism")
    kernel = hom.kernel()
    lifts = [hom.preimage(g) for g in tgt.gens]
    n_tuples = len(kernel) ** len(lifts)
    if n_tuples > FRATTINI_TUPLE_BUDGET:
        raise BudgetError(f"Frattini check needs {n_tuples} kernel-translate tuples,"
                          f" above the budget {FRATTINI_TUPLE_BUDGET}")
    # A translate subgroup S surjects onto the target, so |S| is |target|
    # times a divisor of |kernel|; once it exceeds the largest proper value
    # it must be everything.  A trivial kernel leaves no proper value
    # (threshold = |source|), and every translate generates.
    threshold = tgt.order * (len(kernel) // _smallest_prime_factor(len(kernel)))
    for ks in product(kernel, repeat=len(lifts)):
        seeds = [src.mul(h, k) for h, k in zip(lifts, ks)]
        if len(src.close(seeds, stop_above=threshold)) <= threshold < src.order:
            return False
    return True


# ---------------------------------------------------------------------------
# catalog covers, each built over the group object it covers

_SPIN_GEN_IMAGES = {
    4: ("(2,3,4)", "(1,2,3)"),
    5: ("(1,2,3,4,5)", "(1,2,4,5,3)"),
}


def spin_cover(n: int, base: FiniteGroup) -> CentralExtension:
    """The double cover of A_n by SL2(Z/3) (n = 4) or SL2(Z/5) (n = 5) over
    ``base``, which must be A_n on n points: of degree n and order n!/2.

    Generator images are catalog data; the homomorphism into ``base`` is
    re-verified on every construction.
    """
    if n not in _SPIN_GEN_IMAGES:
        raise ValidationError("spin covers are built in for n = 4 and n = 5 only")
    if base.kind != "permutation" or base.degree != n or 2 * base.order != factorial(n):
        raise ValidationError(f"spin{n} covers A{n} on {n} points, not {shown(base.name)}")
    cover = make_group(f"SL2({3 if n == 4 else 5})")
    images = tuple(base.parse(s) for s in _SPIN_GEN_IMAGES[n])
    hom = GroupHom(cover, base, images)
    ext = CentralExtension(cover, base, hom, hom.preimage, hom.kernel(), f"spin{n}")
    if ext.kernel_order != 2:
        raise ValidationError("spin cover must have kernel of order 2")
    return ext


def heisenberg_obstruction(base: FiniteGroup) -> str | None:
    """Why ``base`` carries no Heisenberg cover, or None when it carries one.

    The one rule: ``base`` is a rank-2 vector group (Z/m)^2 x| Z/3 with m
    prime to 6, its action M has order 3, and det M = 1 mod m.  An
    automorphism of Heis(m) over M scales the center by det M, so with
    det M != 1 the kernel of the cover would not be central.
    """
    if base.kind != "vector-semidirect" or base.dim != 2:
        return "Heisenberg covers need a rank-2 vector group"
    if gcd(base.modulus, 6) != 1:
        return "Heisenberg extension needs an odd modulus prime to 3"
    if base.complement_order != 3:
        return "action matrix must have order exactly 3"
    if _det_mod(base.action, base.modulus) != 1:
        return "extension kernel is not central"
    return None


def _heisenberg_corrections(base: VectorSemidirectGroup):
    """The valid linear corrections (s, t) to the cocycle term, least first.

    An automorphism of Heis(m) over the base's action M (det M = 1 by the
    rule) fixes the center and adds a cocycle q(v) = B(v, v)/2 + s*x + t*y,
    where B is the symmetric defect form.  Every (s, t) gives an
    automorphism alpha, so (s, t) is valid iff alpha^3 fixes the generators
    (1, 0, 0) and (0, 1, 0), a condition affine in (s, t).  v*M is read off
    the base's own product.
    """
    m, complement = base.modulus, base.gens[2]
    inv2 = pow(2, -1, m)

    def act(v):
        return base.mul((v, 0), complement)[0]

    def half_defect(v):
        w = act(v)
        return (w[0] * w[1] - v[0] * v[1]) * inv2

    # alpha^3 shifts the center over generator v by c + a*s + b*t, which must vanish
    residuals = []
    for v, _ in base.gens[:2]:
        mv, mmv = act(v), act(act(v))
        residuals.append((half_defect(v) + half_defect(mv) + half_defect(mmv),
                          v[0] + mv[0] + mmv[0], v[1] + mv[1] + mmv[1]))
    return ((s, t) for s in range(m) for t in range(m)
            if all((c + a * s + b * t) % m == 0 for c, a, b in residuals))


class HeisenbergCover(FiniteGroup):
    """Heis(m) x| Z/3 over its base (Z/m)^2 x| Z/3, for the order-3
    automorphism alpha(v, z) = (v*M, z + B(v, v)/2 + s*x + t*y) of Heis(m)
    (row vectors v = (x, y), M the base's action, read off the base's
    ``_columns[1]`` once per call).

    Elements are ``((x, y, z), a)``, and (h1, a)(h2, b) = (alpha^b(h1) h2,
    a + b) with the product taken in ``HeisenbergGroup(m)``; alpha^0,
    alpha^1 and alpha^2 are kept as maps.  The lattice part of a product is
    the base's product, so dropping z is a homomorphism onto the base, with
    kernel {((0, 0, z), 0)} and section (v, a) -> ((v, 0), a).
    """

    def __init__(self, base: VectorSemidirectGroup, s: int, t: int):
        m = base.modulus
        self.heis = HeisenbergGroup(m)
        inv2 = pow(2, -1, m)
        (a, b), (c, d) = base._columns[1]  # (x, y)*M = (a*x + b*y, c*x + d*y)

        def alpha(h):
            x, y, z = h
            u, w = (a * x + b * y) % m, (c * x + d * y) % m
            return (u, w, (z + (u * w - x * y) * inv2 + s * x + t * y) % m)

        self._alpha = (lambda h: h, alpha, lambda h: alpha(alpha(h)))
        self.kernel = tuple(((0, 0, z), 0) for z in range(m))
        # the two lattice generators, then the complement, as in the base
        super().__init__(map(self.section, base.gens), f"Heis({m}):3")

    def mul(self, g, h):
        (h1, a), (h2, b) = g, h
        return (self.heis.mul(self._alpha[b](h1), h2), (a + b) % 3)

    def inv(self, g):
        h, a = g
        return (self._alpha[-a % 3](self.heis.inv(h)), -a % 3)

    @property
    def identity(self):
        return ((0, 0, 0), 0)

    @staticmethod
    def project(g):
        return (g[0][:2], g[1])

    @staticmethod
    def section(g):
        return ((*g[0], 0), g[1])

    def format(self, g):
        (x, y, z), a = g
        return f"[{x},{y},{z}|{a}]"


def extend_action_to_heisenberg(base: FiniteGroup) -> CentralExtension:
    """The Heisenberg central extension over ``base``, for the least valid
    cocycle correction; ``heisenberg_obstruction``'s reason is raised when
    none exists.  Any modulus prime to 6 will do, so a tower level over
    Z/ell^(k+1) gets its cover."""
    reason = heisenberg_obstruction(base)
    if reason:
        raise ValidationError(reason)
    # (0, 0) is always valid here: as M^3 = I, the residual c telescopes to 0
    s, t = next(_heisenberg_corrections(base))
    cover = HeisenbergCover(base, s, t)
    return CentralExtension(cover, base, cover.project, cover.section, cover.kernel,
                            f"heis({base.modulus})[{s},{t}]")
