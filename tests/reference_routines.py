"""Routines the tests use as independent oracles, and no command calls.

``tuple_cover_genus`` reads a cover's genus off one branch-cycle tuple by
Riemann-Hurwitz, and ``inner_absolute_fibers`` counts how inner classes and
braid orbits sit over absolute ones (the degree of X_1 -> X_0 for dihedral
groups).  ``tuple_is_hm`` and ``_has_adjacent_repeat`` are the per-tuple
shape tests that ``NielsenClassSet.shapes`` computes column by column,
``det_by_cofactors`` is the cofactor-expansion determinant the elimination
in ``_det_mod`` replaced, and ``project_tuple`` reduces a level-k tuple on
data.  ``lift_class_vector`` gives the classes of same-order lifts.
``heisenberg_corrections`` searches the cocycle corrections (s, t) of the
upper-gauge Heisenberg cover ``AlphaHeisenbergCover``, and
``heisenberg_extensions`` builds one extension per valid correction, which
``lift_partition_is_choice_independent`` compares on a tower level.  ``apply_qi_inv`` is the inverse twist, checked against
``apply_qi``.  ``list_action_group`` lists the group a conjugation action's
generators generate, which the action itself never lists.
``frattini_by_every_translate`` closes every kernel-translate tuple in full,
where ``is_frattini_cover`` closes one per K-conjugacy orbit.  All take and
return the library's own objects.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import product
from typing import NamedTuple

from hurwitz.braid import braid_orbits
from hurwitz.errors import ValidationError
from hurwitz.groups import (
    ClassVector,
    FiniteGroup,
    GroupHom,
    HeisenbergGroup,
    VectorSemidirectGroup,
    cycle_type,
    riemann_hurwitz,
)
from hurwitz.lift import (
    CentralExtension,
    lift_invariant,
    same_order_lift,
)
from hurwitz.nielsen import Mode, _qi_inv, enumerate_nielsen
from hurwitz.tower import TowerLevel, TowerSpec


# ---------------------------------------------------------------------------
# the acting group of a conjugation action, listed


def list_action_group(action) -> set:
    """Every permutation in the group generated by ``action.gens``, by closing
    them under composition from the identity."""
    identity = tuple(range(len(action.orbit_min)))
    group, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in action.gens:
                q = tuple(g[i] for i in p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


# ---------------------------------------------------------------------------
# the Frattini test, one closure per kernel-translate tuple


def frattini_by_every_translate(hom: GroupHom) -> bool:
    """Whether every kernel translate of the least lifts of the target's
    generators generates the source, each tuple closed in full."""
    src, kernel = hom.source, hom.kernel()
    lifts = [hom.preimage(g) for g in hom.target.gens]
    return all(len(src.close([src.mul(h, k) for h, k in zip(lifts, ks)])) == src.order
               for ks in product(kernel, repeat=len(lifts)))


# ---------------------------------------------------------------------------
# Riemann-Hurwitz for a branch-cycle tuple


class CoverGenus(NamedTuple):
    degree: int
    entry_indices: tuple[int, ...]
    genus: int


def tuple_cover_genus(group: FiniteGroup, t: tuple, embedding=None) -> CoverGenus:
    """Genus of the cover with branch cycles t, via Riemann-Hurwitz:
    2(n + g - 1) = sum of indices.  Entries must act transitively.

    ``embedding`` is a ``GroupHom`` from ``group`` to a permutation group;
    each entry is replaced by its image, which the homomorphism checked lies
    in ``embedding.target`` when it was built.  Fixed points count as
    length-1 cycles throughout.
    """
    if embedding is not None:
        perms = tuple(embedding(g) for g in t)
        n = embedding.target.degree
    elif group.kind == "permutation":
        perms = tuple(t)
        n = group.degree
    else:
        raise ValidationError("tuple_cover_genus needs a permutation image; pass an embedding")
    # transitivity
    reached, queue = {0}, [0]
    for x in queue:
        for p in perms:
            if p[x] not in reached:
                reached.add(p[x])
                queue.append(p[x])
    if len(reached) != n:
        raise ValidationError("branch cycles are not transitive; the cover is disconnected")
    indices, genus = riemann_hurwitz([cycle_type(p) for p in perms], n)
    return CoverGenus(degree=n, entry_indices=indices, genus=genus)


# ---------------------------------------------------------------------------
# inner/absolute fibers


class FiberReport(NamedTuple):
    absolute_count: int
    inner_count: int
    orbit_fibers: tuple[tuple[str, tuple[str, ...]], ...]
    class_fibers: tuple[int, ...]


def inner_absolute_fibers(group: FiniteGroup, cv: ClassVector,
                          reduced: bool = True) -> FiberReport:
    """How inner classes and braid orbits sit over absolute ones."""
    inner_mode = Mode.INNER_REDUCED if reduced else Mode.INNER
    abs_mode = Mode.ABSOLUTE_REDUCED if reduced else Mode.ABSOLUTE
    ni_in = enumerate_nielsen(group, cv, inner_mode)
    ni_abs = enumerate_nielsen(group, cv, abs_mode)
    # the position in ni_abs of each inner class's absolute class
    up = [ni_abs.position[ni_abs.canonical(u)] for u in ni_in.tuples]

    # class-level fibers: how many inner classes collapse to each absolute one
    coarse = Counter(up)
    class_fibers = tuple(coarse[p] for p in range(ni_abs.count))

    in_orbits = braid_orbits(ni_in)
    abs_orbits = braid_orbits(ni_abs)
    owner = {p: o.label for o in abs_orbits for p in o.positions}
    fibers: dict[str, list[str]] = {o.label: [] for o in abs_orbits}
    for o in in_orbits:
        fibers[owner[up[o.positions[0]]]].append(o.label)
    return FiberReport(
        absolute_count=ni_abs.count,
        inner_count=ni_in.count,
        orbit_fibers=tuple(
            (o.label, tuple(fibers[o.label])) for o in abs_orbits
        ),
        class_fibers=class_fibers,
    )


# ---------------------------------------------------------------------------
# tuple moves, shapes and determinants


def apply_qi_inv(group: FiniteGroup, t: tuple, i: int) -> tuple:
    """The inverse of twist q_i, 1-based, with ``apply_qi``'s range check."""
    if not 1 <= i <= len(t) - 1:
        raise ValidationError(f"twist index {i} out of range 1..{len(t) - 1}")
    return _qi_inv(group, t, i)


def tuple_is_hm(group: FiniteGroup, t: tuple) -> bool:
    """Harbater-Mumford shape: consecutive pairs (g, g^-1)."""
    return len(t) % 2 == 0 and all(map(operator.eq, t[1::2], map(group.inv, t[::2])))


def _has_adjacent_repeat(t: tuple) -> bool:
    """Some entry equals the next one, cyclically."""
    return any(map(operator.eq, t, t[1:] + t[:1]))


def det_by_cofactors(mat, m: int) -> int:
    """Determinant by cofactor expansion along the first row, reduced mod m."""
    n = len(mat)
    if n == 1:
        return mat[0][0] % m
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det_by_cofactors(minor, m)
    return total % m


# ---------------------------------------------------------------------------
# towers and lifts


def project_tuple(spec: TowerSpec, k: int, t: tuple) -> tuple:
    """Entrywise reduction of a level-k tuple to level k-1 (k >= 1)."""
    down, gk = spec.level_map(k), spec.level_group(k)
    try:
        return tuple(spec.level_group(k - 1).elements[down(gk._index[g])] for g in t)
    except (KeyError, TypeError):
        raise ValidationError(f"tuple entries must be elements of level {k}, {gk.name}") from None


def lift_class_vector(ext: CentralExtension, cv: ClassVector) -> ClassVector:
    """The class vector of same-order lifts of cv's representatives."""
    cover = ext.cover
    idx = tuple(
        cover.class_index_of(same_order_lift(ext, rep)) for rep in cv.reps()
    )
    return ClassVector(cover, idx)


def heisenberg_corrections(base: VectorSemidirectGroup):
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


class AlphaHeisenbergCover(FiniteGroup):
    """Heis(m) x| Z/3 over its base (Z/m)^2 x| Z/3 in the upper gauge, for the
    automorphism alpha(v, z) = (v*M, z + B(v, v)/2 + s*x + t*y) of Heis(m)
    (row vectors v = (x, y), M the base's action).

    Elements are ``((x, y, z), a)``, and (h1, a)(h2, b) = (alpha^b(h1) h2,
    a + b) with the product taken in ``HeisenbergGroup(m)``.  Dropping z is
    a homomorphism onto the base, with kernel {((0, 0, z), 0)} and section
    (v, a) -> ((v, 0), a).
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


def alpha_extension(base, s: int, t: int) -> CentralExtension:
    """The upper-gauge Heisenberg extension over ``base`` for the correction (s, t)."""
    cover = AlphaHeisenbergCover(base, s, t)
    return CentralExtension(cover, base, cover.project, cover.section, cover.kernel,
                            f"heis({base.modulus})[{s},{t}]")


def heisenberg_extensions(base) -> tuple[CentralExtension, ...]:
    """One upper-gauge Heisenberg extension over the vector group ``base`` per
    valid cocycle correction (s, t), least first; the first is the model that
    ``extend_action_to_heisenberg`` builds in the symmetric gauge."""
    return tuple(alpha_extension(base, s, t) for s, t in heisenberg_corrections(base))


def lift_partition_is_choice_independent(level: TowerLevel) -> bool | None:
    """Do all Heisenberg extensions split the orbits the same way?

    Returns None when the level carries no extension.
    """
    if level.extension is None:
        return None

    def partition(e):
        groups: dict[str, list[str]] = {}
        for o in level.orbits:
            groups.setdefault(lift_invariant(e, o.rep).label, []).append(o.label)
        return sorted(tuple(v) for v in groups.values())

    base = partition(level.extension)
    return all(partition(e) == base for e in heisenberg_extensions(level.group))
