"""Routines the tests use as independent oracles, and no command calls.

``tuple_cover_genus`` reads a cover's genus off one branch-cycle tuple by
Riemann-Hurwitz, and ``inner_absolute_fibers`` counts how inner classes and
braid orbits sit over absolute ones (the degree of X_1 -> X_0 for dihedral
groups).  ``tuple_is_hm`` and ``_has_adjacent_repeat`` are the per-tuple
shape tests that ``NielsenClassSet.shapes`` computes column by column,
``det_by_cofactors`` is the cofactor-expansion determinant the elimination
in ``_det_mod`` replaced, and ``project_tuple`` reduces a level-k tuple on
data.  ``lift_class_vector`` gives the classes of same-order lifts, and
``heisenberg_extensions`` builds one Heisenberg extension per valid cocycle
correction, which ``lift_partition_is_choice_independent`` compares on a
tower level.  ``apply_qi_inv`` is the inverse twist, checked against
``apply_qi``.  All take and return the library's own objects.
"""

from __future__ import annotations

import operator
from collections import Counter
from typing import NamedTuple

from hurwitz.braid import braid_orbits
from hurwitz.errors import ValidationError
from hurwitz.groups import (
    ClassVector,
    FiniteGroup,
    cycle_type,
    make_group,
    riemann_hurwitz,
    vector_descriptor,
)
from hurwitz.lift import (
    COMPANION,
    CentralExtension,
    HeisenbergCover,
    _heisenberg_corrections,
    lift_invariant,
    same_order_lift,
)
from hurwitz.nielsen import Mode, _qi_inv, enumerate_nielsen
from hurwitz.tower import TowerLevel, TowerSpec


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


def heisenberg_extensions(ell: int, m=COMPANION) -> tuple[CentralExtension, ...]:
    """One extension of the order-3 action m to Heis(ell) per valid cocycle
    correction (s, t), least first, as ``extend_action_to_heisenberg`` builds
    the first."""
    lam, act, q_base, corrections = _heisenberg_corrections(ell, m)
    base = make_group(vector_descriptor(ell, m))
    out = []
    for s, t in corrections:
        cover = HeisenbergCover(base, lam, act,
                                lambda v, s=s, t=t: q_base(v) + s * v[0] + t * v[1],
                                name=f"Heis({ell}):3")
        out.append(CentralExtension(cover, base, cover.project, cover.section, cover.kernel,
                                    f"heis({ell})[{s},{t}]"))
    return tuple(out)


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
    spec = level.spec
    return all(partition(e) == base
               for e in heisenberg_extensions(spec.modulus(level.k), spec.action))
