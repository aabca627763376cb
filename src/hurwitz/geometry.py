"""Genus and ramification data for reduced braid orbits with four branch points.

A braid orbit O in a reduced Nielsen class carries three permutations induced
by the mapping-class elements gamma_0 = q1 q2, gamma_1 = q1 q2 q1 and
gamma_inf = q2 (words act left factor first).  These are the monodromy of the
orbit's component over the j-line, branched over 0, 1 and infinity, and
Riemann-Hurwitz gives the genus:

    2(|O| + g - 1) = ind(gamma_0) + ind(gamma_1) + ind(gamma_inf),

where ind = |O| minus the number of disjoint cycles.  Reports carry the full
cycle types so the arithmetic can be redone by hand.

The sh-incidence matrix pairs cusp orbits: entry (i, j) counts members of
cusp orbit i landing in cusp orbit j under sh.  It is block-diagonal with one
block per braid orbit, and symmetric since sh is an involution on reduced
classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .groups import cycle_type, riemann_hurwitz
from .braid import BraidOrbit, CuspOrbit
from .nielsen import Mode, _get_action, _reduction_orbit


def _require_reduced_four(orbit: BraidOrbit, what: str) -> None:
    if not orbit.ni.mode.reduced:
        raise ValidationError(f"{what} needs a reduced-mode orbit")
    if len(orbit.rep) != 4:
        raise ValidationError(f"{what} needs r = 4, got r = {len(orbit.rep)}")


def _gamma_maps(orbit: BraidOrbit):
    """The three induced maps on the orbit's members, as index arrays."""
    q1, q2, _ = orbit.ni.moves()
    pos = orbit.positions
    local = {p: i for i, p in enumerate(pos)}
    gamma0 = tuple(local[q2[q1[p]]] for p in pos)
    gamma1 = tuple(local[q1[q2[q1[p]]]] for p in pos)
    return gamma0, gamma1, tuple(local[q2[p]] for p in pos)


@dataclass(frozen=True)
class GenusReport:
    orbit_label: str
    degree: int
    indices: tuple[int, int, int]
    genus: int
    fixed_points: tuple[int, int]
    cusp_widths: tuple[int, ...]
    cycle_types: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def to_dict(self) -> dict:
        g0, g1, ginf = self.cycle_types
        return {
            "orbit": self.orbit_label,
            "degree": self.degree,
            "indices": {
                "gamma0": self.indices[0],
                "gamma1": self.indices[1],
                "gammainf": self.indices[2],
            },
            "genus": self.genus,
            "fixed_points": {
                "gamma0": self.fixed_points[0],
                "gamma1": self.fixed_points[1],
            },
            "cusp_widths": list(self.cusp_widths),
            "cycle_types": {
                "gamma0": list(g0),
                "gamma1": list(g1),
                "gammainf": list(ginf),
            },
        }


def genus_of_component(orbit: BraidOrbit) -> GenusReport:
    """Genus of the braid orbit's component as a cover of the j-line."""
    _require_reduced_four(orbit, "genus_of_component")
    n = orbit.size
    perms = _gamma_maps(orbit)
    types = tuple(cycle_type(p) for p in perms)
    indices, genus = riemann_hurwitz(types, n)
    if genus < 0:
        raise ValidationError("negative genus signals an action bug")
    fixed = tuple(sum(1 for i, j in enumerate(p) if i == j) for p in perms[:2])
    widths = tuple(c.width for c in orbit.cusps())
    return GenusReport(
        orbit_label=orbit.label,
        degree=n,
        indices=indices,
        genus=genus,
        fixed_points=fixed,
        cusp_widths=widths,
        cycle_types=types,
    )


@dataclass(frozen=True)
class ShIncidenceBlock:
    orbit_label: str
    cusp_labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...] = field(compare=False)
    genus_report: GenusReport

    def to_dict(self) -> dict:
        return {
            "orbit": self.orbit_label,
            "cusps": list(self.cusp_labels),
            "matrix": [list(row) for row in self.matrix],
            "genus_report": self.genus_report.to_dict(),
        }


@dataclass(frozen=True)
class ShIncidence:
    cusp_labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...] = field(compare=False)
    blocks: tuple[ShIncidenceBlock, ...]

    def to_dict(self) -> dict:
        return {"blocks": [b.to_dict() for b in self.blocks]}

    def render_text(self) -> str:
        lines = []
        for block in self.blocks:
            rep = block.genus_report
            lines.append(
                f"orbit {block.orbit_label}: degree {rep.degree}, genus {rep.genus}, "
                f"ind = {rep.indices}"
            )
            labels = block.cusp_labels
            width = max(len(s) for s in labels)
            cells = [max(len(str(v)) for v in col) for col in zip(*block.matrix)]
            cells = [max(w, len(labels[j])) for j, w in enumerate(cells)]
            head = " " * width + "  " + "  ".join(
                labels[j].rjust(cells[j]) for j in range(len(labels))
            )
            lines.append(head)
            for i, lab in enumerate(labels):
                row = "  ".join(
                    str(block.matrix[i][j]).rjust(cells[j]) for j in range(len(labels))
                )
                lines.append(lab.ljust(width) + "  " + row)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def to_rows(self) -> list[list]:
        rows = [["cusp", *self.cusp_labels]]
        for i, lab in enumerate(self.cusp_labels):
            rows.append([lab, *self.matrix[i]])
        return rows


def sh_incidence(orbits: list[BraidOrbit] | tuple[BraidOrbit, ...]) -> ShIncidence:
    """Full sh-incidence matrix over the cusp orbits of the given braid orbits."""
    orbits = tuple(orbits)
    if not orbits:
        raise ValidationError("sh_incidence needs at least one braid orbit")
    for o in orbits:
        _require_reduced_four(o, "sh_incidence")
    _, _, sh = orbits[0].ni.moves()

    cusps: list[CuspOrbit] = []
    spans: list[tuple[int, int, BraidOrbit]] = []
    for o in orbits:
        start = len(cusps)
        cusps.extend(o.cusps())
        spans.append((start, len(cusps), o))

    sets = [frozenset(c.positions) for c in cusps]
    images = [frozenset(sh[p] for p in s) for s in sets]
    mat = tuple(tuple(len(a & b) for b in images) for a in sets)

    blocks = tuple(
        ShIncidenceBlock(
            orbit_label=o.label,
            cusp_labels=tuple(c.label for c in cusps[a:b]),
            matrix=tuple(row[a:b] for row in mat[a:b]),
            genus_report=genus_of_component(o),
        )
        for a, b, o in spans
    )
    labels = tuple(c.label for c in cusps)
    return ShIncidence(cusp_labels=labels, matrix=mat, blocks=blocks)


@dataclass(frozen=True)
class ModuliFlags:
    inner_fine: bool
    b_fine_reduced: bool
    fine_reduced: bool

    def to_dict(self) -> dict:
        return {
            "inner_fine": self.inner_fine,
            "b_fine_reduced": self.b_fine_reduced,
            "fine_reduced": self.fine_reduced,
        }


def _center_is_trivial(group) -> bool:
    gens = group.gens
    count = sum(
        1
        for a in group.elements
        if all(group.mul(a, g) == group.mul(g, a) for g in gens)
    )
    return count == 1


def moduli_flags(group, orbit: BraidOrbit) -> ModuliFlags:
    """Fine-moduli tests: centerless G; Klein-4 action; no elliptic fixed points."""
    _require_reduced_four(orbit, "moduli_flags")
    inner_fine = _center_is_trivial(group)

    inner = _get_action(group, Mode.INNER, None)
    ix = inner.group
    b_fine = True
    for t in orbit.members:
        classes = {inner.canonical_tuple(u) for u in _reduction_orbit(ix, ix.to_index(t))}
        if len(classes) != 4:
            b_fine = False
            break

    perms = _gamma_maps(orbit)
    no_elliptic = all(
        all(i != j for i, j in enumerate(p)) for p in perms[:2]
    )
    return ModuliFlags(
        inner_fine=inner_fine,
        b_fine_reduced=b_fine,
        fine_reduced=b_fine and no_elliptic,
    )
