"""Central extensions, same-order lifts, lift invariants, Frattini checks.

A central extension psi: H -> G with kernel K of exponent N lifts every
g in G of order d prime to N to a unique same-order element of H, namely
h^t for any preimage h, with t = N * (N^{-1} mod d).  The lift invariant of
a product-one tuple is the product of the same-order lifts of its entries;
it lands in K and is constant on braid orbits, so a nontrivial value
obstructs the tuple's orbit from lifting through psi.

Every cover is a ``CentralExtension`` given by a projection, a section and
its kernel.  The built-in covers are the two binary double covers
SL2(Z/3) -> A4 and SL2(Z/5) -> A5 (the n = 4, 5 spin covers of the
alternating groups), and the small-Heisenberg extensions
Heis(l) x| Z/3 -> (Z/l)^2 x| Z/3 obtained by extending an order-3 matrix
action to the Heisenberg group.  The spin and ``hom:`` covers project by a
``GroupHom`` given by generator images, checked on every element and
generator as it is built; its least preimages and kernel are the section and
kernel.  ``GroupHom`` lives in the groups module, where tower level maps and
conjugation automorphisms are built with it too.  A Heisenberg cover is the
semidirect product Heis(l) x| Z/3 by a formula, so dropping the central
coordinate is a homomorphism by construction, its kernel and section
v -> (v, 0) are read off the formula, and the cover is never enumerated.
Each action gets one extension, for the least valid cocycle correction.

``is_frattini_cover`` takes any surjective ``GroupHom`` and runs on its
source as given: on data for SL2(27) -> SL2(9), between indexed views for the
tower steps G_k -> G_(k-1).  Above ``FRATTINI_TUPLE_BUDGET`` it raises
``BudgetError`` before any closure.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .errors import BudgetError, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    HeisenbergGroup,
    VectorSemidirectGroup,
    _det_mod,
    _mat_mul,
    _smallest_prime_factor,
    check_lattice,
    make_group,
    vector_descriptor,
)

# kernel-translate tuples a Frattini check may enumerate; above it the check
# raises BudgetError, which tower reports print as a "skipped" step
FRATTINI_TUPLE_BUDGET = 200_000

# the companion matrix of x^2 + x + 1: the default order-3 action of vector
# towers and Heisenberg covers
COMPANION = ((0, -1), (1, -1))


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
    if val not in set(ext.kernel):
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
    cover, base = make_group(f"SL2({3 if n == 4 else 5})"), make_group(f"A{n}")
    images = tuple(base.parse(s) for s in _SPIN_GEN_IMAGES[n])
    hom = GroupHom(cover, base, images)
    ext = CentralExtension(cover, base, hom, hom.preimage, hom.kernel(), f"spin{n}")
    if ext.kernel_order != 2:
        raise ValidationError("spin cover must have kernel of order 2")
    return ext


def _heisenberg_corrections(ell: int, m: tuple):
    """Valid linear corrections (s, t) to the cocycle term, plus helpers.

    An automorphism of Heis(ell) over the matrix action m must scale the
    center by lam = det(m) and add a cocycle q(v) = B(v, v)/2 + s*x + t*y,
    where B is the symmetric defect form.  Every (s, t) gives an
    automorphism alpha, so (s, t) is valid iff alpha^3 fixes the generators
    (1, 0, 0) and (0, 1, 0), a condition affine in (s, t).
    """
    lam = _det_mod(m, ell)

    def act(v):
        return _mat_mul((v,), m, ell)[0]

    inv2 = pow(2, -1, ell)

    def q_base(v):
        w = act(v)
        return (w[0] * w[1] - lam * v[0] * v[1]) * inv2 % ell

    # alpha^3 shifts the center over generator v by c + a*s + b*t, which must vanish
    lam2 = lam * lam
    residuals = []
    for v in ((1, 0), (0, 1)):
        mv = act(v)
        mmv = act(mv)
        residuals.append((lam2 * q_base(v) + lam * q_base(mv) + q_base(mmv),
                          lam2 * v[0] + lam * mv[0] + mmv[0],
                          lam2 * v[1] + lam * mv[1] + mmv[1]))

    def valid(s, t):
        return all((c + a * s + b * t) % ell == 0 for c, a, b in residuals)

    corrections = (
        (s, t) for s in range(ell) for t in range(ell) if valid(s, t)
    )
    return lam, act, q_base, corrections


class HeisenbergCover(FiniteGroup):
    """Heis(m) x| Z/3 for the order-3 automorphism
    alpha(v, z) = (v*M, lam*z + q(v)) of Heis(m), over its base
    (Z/m)^2 x| Z/3 (row vectors v, M the base's action).

    Elements are ``((x, y, z), a)``, and (h1, a)(h2, b) = (alpha^b(h1) h2,
    a + b) with the product taken in ``HeisenbergGroup(m)``; alpha^0,
    alpha^1 and alpha^2 are kept as maps.  The lattice part of a product is
    the base's product, so dropping z is a homomorphism onto the base, with
    kernel {((0, 0, z), 0)} and section (v, a) -> ((v, 0), a).  The kernel
    is central exactly when lam = 1.
    """

    def __init__(self, base: VectorSemidirectGroup, lam: int, act, q, name: str):
        self.base = base
        self.heis = HeisenbergGroup(base.modulus)
        m = base.modulus

        def alpha(h):
            v = h[:2]
            return (*act(v), (lam * h[2] + q(v)) % m)

        self._alpha = (lambda h: h, alpha, lambda h: alpha(alpha(h)))
        self.kernel = tuple(((0, 0, z), 0) for z in range(m))
        # the two lattice generators, then the complement, as in the base
        super().__init__(map(self.section, base.gens), name)

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


def extend_action_to_heisenberg(ell: int, m=COMPANION) -> CentralExtension:
    """Extend an order-3 matrix action on (Z/l)^2 to Heis(l), centrally.

    Searches the finite space of compatible automorphisms: the action on the
    center is forced to be multiplication by det(m), and the remaining
    freedom is a linear correction to the quadratic cocycle term.  Returns
    the extension for the least valid correction; ``_heisenberg_corrections``
    yields every valid one.  The modulus may be any odd prime power not
    divisible by 3, so towers can ask for the level-k cover over Z/ell^(k+1).
    """
    if ell < 2 or ell % 2 == 0 or ell % 3 == 0:
        raise ValidationError("Heisenberg extension needs an odd modulus prime to 3")
    m = tuple(tuple(v % ell for v in row) for row in check_lattice(2, ell, m))
    ident = ((1, 0), (0, 1))
    if m == ident or _mat_mul(_mat_mul(m, m, ell), m, ell) != ident:
        raise ValidationError("action matrix must have order exactly 3")

    lam, act, q_base, corrections = _heisenberg_corrections(ell, m)
    first = next(corrections, None)
    if first is None:
        raise ValidationError(
            "no order-3 extension of the action to the Heisenberg group exists"
        )
    s, t = first
    base = make_group(vector_descriptor(ell, m))
    cover = HeisenbergCover(base, lam, act, lambda v: q_base(v) + s * v[0] + t * v[1],
                            name=f"Heis({ell}):3")
    return CentralExtension(cover, base, cover.project, cover.section, cover.kernel,
                            f"heis({ell})[{s},{t}]")
