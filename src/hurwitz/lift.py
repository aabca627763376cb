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
it is the base plus one central coordinate and multiplies with the base's
own action columns.

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
    translate tuple, so this is sound and complete.  K is normal, so its
    conjugates of a translate tuple are translate tuples generating subgroups
    of the same order: one per K-conjugacy orbit is closed, on the source as
    given.  Raises ``BudgetError`` before the first closure when the number of
    translate tuples, every one counted, exceeds ``FRATTINI_TUPLE_BUDGET``.
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
    met = set()  # the K-conjugates of every tuple closed so far
    for ks in product(kernel, repeat=len(lifts)):
        seeds = tuple(src.mul(h, k) for h, k in zip(lifts, ks))
        if seeds in met:
            continue
        met.update(tuple(src.conj(s, c) for s in seeds) for c in kernel)
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


class HeisenbergCover(FiniteGroup):
    """Heis(m) x| Z/3 over its base (Z/m)^2 x| Z/3: each base element (v, a),
    v = (x, y) a row vector, with one central coordinate z, in the symmetric
    gauge of Heis(m) (z = z_upper - x*y/2), where a product adds w(v1, v2)/2,
    w(u, v) = u_x*v_y - u_y*v_x, to the center.  The base's action M has
    det M = 1 (``heisenberg_obstruction``), so M preserves w and
    (v, z) -> (v*M, z) is an automorphism: ((v1, z1), a)((v2, z2), b) =
    ((v1*M^b + v2, z1 + z2 + w(v1*M^b, v2)/2), a + b), v1*M^b read off the
    base's ``_columns[b]``; ((v, z), a) has the base's inverse of (v, a) and
    central part -z.  Dropping z is the base's product, a homomorphism with
    kernel {((0, 0, z), 0)} and section (v, a) -> ((v, 0), a).
    """

    def __init__(self, base: VectorSemidirectGroup):
        m = self.modulus = base.modulus
        self._columns, self._base_inv = base._columns, base.inv
        self._half = pow(2, -1, m)
        self.kernel = tuple(((0, 0, z), 0) for z in range(m))
        # the two lattice generators, then the complement, as in the base
        super().__init__(map(self.section, base.gens), f"Heis({m}):3")

    def mul(self, g, h):
        ((x1, y1, z1), a), ((x2, y2, z2), b) = g, h
        (p, q), (r, s) = self._columns[b]  # (x, y)*M^b = (p*x + q*y, r*x + s*y)
        u, w, m = p * x1 + q * y1, r * x1 + s * y1, self.modulus
        return (((u + x2) % m, (w + y2) % m, (z1 + z2 + (u * y2 - w * x2) * self._half) % m),
                (a + b) % 3)

    def inv(self, g):
        (x, y, z), a = g
        (u, w), b = self._base_inv(((x, y), a))
        return ((u, w, -z % self.modulus), b)

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
    """The Heisenberg central extension over ``base``, or
    ``heisenberg_obstruction``'s reason raised; any modulus prime to 6 will
    do, so a tower level over Z/ell^(k+1) gets its cover.  The name keeps
    [0,0], which reports print: the cover is the upper-gauge model (v, z) ->
    (v*M, z + ((vM)_x (vM)_y - x*y)/2 + s*x + t*y) at (s, t) = (0, 0), in
    coordinates that fix the kernel, so invariants and labels are the same."""
    reason = heisenberg_obstruction(base)
    if reason:
        raise ValidationError(reason)
    cover = HeisenbergCover(base)
    return CentralExtension(cover, base, cover.project, cover.section, cover.kernel,
                            f"heis({base.modulus})[0,0]")
