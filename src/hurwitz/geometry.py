"""Genus and ramification data for reduced braid orbits with four branch points.

A braid orbit O in a reduced Nielsen class carries three permutations induced
by the mapping-class elements gamma_0 = q1 q2, gamma_1 = q1 q2 q1 and
gamma_inf = q2 (words act left factor first).  These are the monodromy of the
orbit's component over the j-line, branched over 0, 1 and infinity, and
Riemann-Hurwitz gives the genus:

    2(|O| + g - 1) = ind(gamma_0) + ind(gamma_1) + ind(gamma_inf),

where ind = |O| minus the number of disjoint cycles.  The orbit builds the
three maps once (``BraidOrbit.gamma_maps``); the genus report and the moduli
flags both read them.  The orbit keeps its genus report too
(``BraidOrbit.genus_report``), and every command reads it there.  Reports
carry the full cycle types so the arithmetic can be redone by hand.  The
cusps are the cycles of gamma_inf, so the cusp widths are its cycle type.

The sh-incidence matrix pairs cusp orbits: entry (i, j) counts members of
cusp orbit i landing in cusp orbit j under sh.  sh maps each braid orbit
into itself, so the matrix is block-diagonal with one block per braid orbit,
and only the blocks are built; each is symmetric since sh is an involution
on reduced classes.  The command line renders every report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .groups import cycle_type, riemann_hurwitz
from .nielsen import Mode, _get_action

if TYPE_CHECKING:  # annotations only: the braid module imports this one
    from .braid import BraidOrbit


def _require_reduced_four(mode: Mode, r: int, what: str) -> None:
    """``what`` needs a reduced mode and r = 4; the CLI checks this before any group."""
    if not mode.reduced:
        raise ValidationError(f"{what} needs a reduced-mode orbit")
    if r != 4:
        raise ValidationError(f"{what} needs r = 4, got r = {r}")


class GenusReport(NamedTuple):
    orbit_label: str
    degree: int
    indices: tuple[int, int, int]
    genus: int
    fixed_points: tuple[int, int]
    cusp_widths: tuple[int, ...]
    cycle_types: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def to_dict(self) -> dict:
        names = ("gamma0", "gamma1", "gammainf")  # fixed points: the first two
        return {
            "orbit": self.orbit_label,
            "degree": self.degree,
            "indices": dict(zip(names, self.indices)),
            "genus": self.genus,
            "fixed_points": dict(zip(names, self.fixed_points)),
            "cusp_widths": list(self.cusp_widths),
            "cycle_types": dict(zip(names, map(list, self.cycle_types))),
        }


def genus_of_component(orbit: BraidOrbit) -> GenusReport:
    """Genus of the braid orbit's component as a cover of the j-line."""
    _require_reduced_four(orbit.ni.mode, orbit.ni.cv.r, "genus_of_component")
    n = orbit.size
    perms = orbit.gamma_maps
    types = tuple(cycle_type(p) for p in perms)
    indices, genus = riemann_hurwitz(types, n)
    if genus < 0:
        raise ValidationError("negative genus signals an action bug")
    fixed = tuple(sum(1 for i, j in enumerate(p) if i == j) for p in perms[:2])
    return GenusReport(
        orbit_label=orbit.label,
        degree=n,
        indices=indices,
        genus=genus,
        fixed_points=fixed,
        cusp_widths=types[2],
        cycle_types=types,
    )


class ShIncidenceBlock(NamedTuple):
    orbit_label: str
    cusp_labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    genus_report: GenusReport

    def to_dict(self) -> dict:
        return {
            "orbit": self.orbit_label,
            "cusps": list(self.cusp_labels),
            "matrix": [list(row) for row in self.matrix],
            "genus_report": self.genus_report.to_dict(),
        }


class ShIncidence(NamedTuple):
    blocks: tuple[ShIncidenceBlock, ...]

    def to_dict(self) -> dict:
        return {"blocks": [b.to_dict() for b in self.blocks]}


def _block(orbit: BraidOrbit, cusp_of: list) -> ShIncidenceBlock:
    """The orbit's sh-incidence block, after its genus report, so that the
    report's gamma maps are built while no matrix is held.  ``cusp_of`` has
    a slot for every position of the Nielsen set."""
    report = orbit.genus_report
    sh, cusps = orbit.ni.moves()[2], orbit.cusps()
    for i, c in enumerate(cusps):
        for p in c.positions:
            cusp_of[p] = i
    # entry (i, j) counts the members p of cusp j with sh(p) in cusp i
    mat = [[0] * len(cusps) for _ in cusps]
    for j, c in enumerate(cusps):
        for p in c.positions:
            mat[cusp_of[sh[p]]][j] += 1
    for i, row in enumerate(mat):  # frees each row's list once its tuple is made
        mat[i] = tuple(row)
    return ShIncidenceBlock(orbit.label, tuple(c.label for c in cusps), tuple(mat), report)


def sh_incidence(orbits: list[BraidOrbit] | tuple[BraidOrbit, ...]) -> ShIncidence:
    """The blocks of the sh-incidence matrix, one per braid orbit."""
    orbits = tuple(orbits)
    if not orbits:
        raise ValidationError("sh_incidence needs at least one braid orbit")
    for o in orbits:
        _require_reduced_four(o.ni.mode, o.ni.cv.r, "sh_incidence")
    cusp_of = [0] * orbits[0].ni.count
    return ShIncidence(tuple(_block(o, cusp_of) for o in orbits))


class ModuliFlags(NamedTuple):
    inner_fine: bool
    b_fine_reduced: bool
    fine_reduced: bool


def moduli_flags(orbit: BraidOrbit) -> ModuliFlags:
    """Fine-moduli tests: centerless G (the inner action is faithful); Klein-4
    action; no elliptic fixed points.  The Klein group Q'' is normal in the
    braid group H_4 and its action commutes with conjugation, so its orbits
    on inner classes have one size along a braid orbit: one member's four
    Klein images settle b-fineness."""
    _require_reduced_four(orbit.ni.mode, orbit.ni.cv.r, "moduli_flags")
    inner = _get_action(orbit.ni.group, Mode.INNER, None)
    images = inner.klein_images(orbit.ni.tuples[orbit.positions[0]])
    b_fine = len(set(map(inner.canonical_tuple, images))) == 4
    no_elliptic = all(i != j for p in orbit.gamma_maps[:2] for i, j in enumerate(p))
    return ModuliFlags(
        inner_fine=inner.order == inner.group.order,
        b_fine_reduced=b_fine,
        fine_reduced=b_fine and no_elliptic,
    )
