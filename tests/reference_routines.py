"""Routines the tests use as independent oracles, and no command calls.

``tuple_cover_genus`` reads a cover's genus off one branch-cycle tuple by
Riemann-Hurwitz, and ``inner_absolute_fibers`` counts how inner classes and
braid orbits sit over absolute ones (the degree of X_1 -> X_0 for dihedral
groups).  Both take and return the library's own objects.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from hurwitz.braid import braid_orbits
from hurwitz.errors import ValidationError
from hurwitz.groups import ClassVector, FiniteGroup, cycle_type, riemann_hurwitz
from hurwitz.nielsen import Mode, enumerate_nielsen


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
