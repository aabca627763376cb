"""Hurwitz braid action on Nielsen tuples: twists, orbits, cusps.

The Hurwitz monodromy group is generated by the twist q2 and the left
rotation sh; the other twists are conjugates of q2 by powers of sh, so orbit
closures only ever apply those two moves.  Everything acts on canonical
representatives: ``NielsenClassSet.moves()`` builds the q2 and sh images of
each representative once, from the Cayley table, looks up their canonical
forms (in the Klein map when reduced with r = 4) and derives q1 =
sh(q2(sh^-1)); orbits, cusps and the geometry module then follow those
permutations of positions.  An orbit or a cusp stores only the positions
of its members in ``NielsenClassSet.tuples``.  ``BraidOrbit`` is the one
per-orbit record every command reads: it builds its cusps, its gamma maps
and its genus report (see the geometry module) on first read and keeps them.

Cusps are the orbits of gamma_infinity = q2 on a braid orbit; their lengths
are the cusp widths.  Labels follow the scheme O_{i,j}^w with i the braid
orbit's 1-based position (orbits sorted by size then least member), j the
cusp's position (cusps sorted by descending width then least member) and w
the width.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

from .errors import BudgetError, ValidationError, shown
from .geometry import GenusReport, genus_of_component
from .groups import TABLE_ENTRY_CAP, ClassVector, FiniteGroup, Frozen
from .nielsen import (
    Mode,
    NielsenClassSet,
    _get_action,
    _qi,
    _qi_inv,
    enumerate_nielsen,
    is_nielsen_tuple,
    random_nielsen_tuple,
)


def apply_qi(group: FiniteGroup, t: tuple, i: int) -> tuple:
    """Twist q_i, 1-based: (..., g_i, g_{i+1}, ...) -> (..., g_i g_{i+1} g_i^-1, g_i, ...)."""
    if not 1 <= i <= len(t) - 1:
        raise ValidationError(f"twist index {i} out of range 1..{len(t) - 1}")
    return _qi(group, t, i)


def apply_sh(group: FiniteGroup, t: tuple) -> tuple:
    """Left rotation (g_2, ..., g_r, g_1)."""
    return t[1:] + t[:1]


class _Members(Frozen):
    """``positions`` locate the members in ``ni.tuples``, the one stored
    form; ``members`` and ``rep`` (the first member, the least as built)
    convert them to element data when read."""

    @property
    def members(self) -> tuple:
        to_data, tuples = self.ni.group.indexed().to_data, self.ni.tuples
        return tuple(to_data(tuples[p]) for p in self.positions)

    @property
    def rep(self) -> tuple:
        return self.ni.group.indexed().to_data(self.ni.tuples[self.positions[0]])


class CuspOrbit(_Members):
    """A q2 orbit of a braid orbit, ``width`` members at ``positions``."""

    def __init__(self, label: str, width: int, braid_label: str, ni: NielsenClassSet,
                 positions: tuple):
        vars(self).update(label=label, width=width, braid_label=braid_label, ni=ni,
                          positions=positions)


class BraidOrbit(_Members):
    """A ⟨q2, sh⟩ orbit of ``ni``, its members at ``positions``."""

    def __init__(self, index: int, label: str, ni: NielsenClassSet, positions: tuple):
        vars(self).update(index=index, label=label, ni=ni, positions=positions)

    @property
    def size(self) -> int:
        return len(self.positions)

    def cusps(self) -> tuple[CuspOrbit, ...]:
        got = getattr(self, "_cusps", None)
        if got is None:
            got = cusp_orbits(self)
            object.__setattr__(self, "_cusps", got)
        return got

    @cached_property
    def gamma_maps(self) -> tuple[tuple, tuple, tuple]:
        """gamma_0 = q1 q2, gamma_1 = q1 q2 q1 and gamma_inf = q2 on the
        members, as index arrays into ``positions``."""
        q1, q2, _ = self.ni.moves()
        local = {p: i for i, p in enumerate(self.positions)}
        return (tuple(local[q2[q1[p]]] for p in self.positions),
                tuple(local[q1[q2[q1[p]]]] for p in self.positions),
                tuple(local[q2[p]] for p in self.positions))

    @cached_property
    def genus_report(self) -> GenusReport | None:
        """The component's genus over the j-line where the Klein group acts
        (a reduced mode and r = 4), otherwise None."""
        return genus_of_component(self) if self.ni.klein_reduced else None


def braid_orbits(ni: NielsenClassSet,
                 orbit_cap: int | None = None) -> tuple[BraidOrbit, ...]:
    """Partition of the Nielsen set into ⟨q2, sh⟩ orbits.

    Orbits come back sorted by (size, least canonical member) and labeled
    "O1", "O2", ...; the partition does not depend on seed order.
    """
    _, q2, sh = ni.moves()
    seen = [False] * ni.count
    raw_orbits: list[list[int]] = []
    for seed in range(ni.count):
        if seen[seed]:
            continue
        seen[seed] = True
        members = [seed]
        for i in members:
            for j in (q2[i], sh[i]):
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
            if orbit_cap is not None and len(members) > orbit_cap:
                raise BudgetError(f"braid orbit exceeded cap {orbit_cap}")
        raw_orbits.append(sorted(members))
    raw_orbits.sort(key=lambda s: (len(s), s[0]))
    return tuple(
        BraidOrbit(index=i + 1, label=f"O{i + 1}", ni=ni, positions=tuple(s))
        for i, s in enumerate(raw_orbits)
    )


def cusp_orbits(orbit: BraidOrbit) -> tuple[CuspOrbit, ...]:
    """gamma_infinity = q2 orbits on the braid orbit's members."""
    ni = orbit.ni
    _, q2, _ = ni.moves()
    seen = set()
    raw: list[list[int]] = []
    for seed in orbit.positions:
        if seed in seen:
            continue
        cycle = [seed]
        while q2[cycle[-1]] != seed:
            cycle.append(q2[cycle[-1]])
        seen.update(cycle)
        raw.append(sorted(cycle))
    raw.sort(key=lambda s: (-len(s), s[0]))
    return tuple(
        CuspOrbit(
            label="O_{%d,%d}^%d" % (orbit.index, j + 1, len(s)),
            width=len(s),
            braid_label=orbit.label,
            ni=ni,
            positions=tuple(s),
        )
        for j, s in enumerate(raw)
    )


# ---------------------------------------------------------------------------
# relation checking


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class PropertyReport(NamedTuple):
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def verify_braid_relations(group: FiniteGroup, cv: ClassVector,
                           sample_size: int = 25, seed: int = 0) -> PropertyReport:
    """Check the defining relations of the braid action on sampled tuples.

    Covers: q_i q_{i+1} q_i = q_{i+1} q_i q_{i+1}; sh-conjugation
    sh q_i sh^-1 = q_{i+1}; q_i q_i^-1 = id; sh^r = id; invariance of
    product-one/classes/generation; R_H acting by conjugation (so trivially
    on inner classes); and for r = 4 the reduced relations γ0³ = 1 and
    γ0 γ1 γ∞ = 1 on reduced canonical forms.  Each sample is conjugated by
    every element, so above ``TABLE_ENTRY_CAP`` samples times |G| this raises
    ``BudgetError`` before the first draw.
    """
    if sample_size <= 0:
        raise ValidationError(f"sample_size must be positive, got {sample_size}")
    if sample_size * group.order > TABLE_ENTRY_CAP:
        raise BudgetError(f"check conjugates {shown(sample_size)} samples by each of"
                          f" {group.order} elements, above the cap {TABLE_ENTRY_CAP}")
    r = cv.r
    rng = random.Random(seed)
    sample = [random_nielsen_tuple(group, cv, rng) for _ in range(sample_size)]
    checks: list[PropertyCheck] = []

    def record(name: str, failures):
        failures = list(failures)
        checks.append(PropertyCheck(name, not failures, "; ".join(failures[:3])))

    def q(t, *word):
        for i in word:
            t = _qi(group, t, i)
        return t

    def sh_conj(t, i):  # sh q_i sh^-1, with sh^-1 the right rotation
        v = q(apply_sh(group, t), i)
        return v[-1:] + v[:-1]

    def inverse_failures(t):
        yield from (f"q{i} inverse failed on {t}" for i in range(1, r)
                    if _qi_inv(group, q(t, i), i) != t)
        u = t
        for _ in range(r):
            u = apply_sh(group, u)
        if u != t:
            yield f"sh^{r} != id on {t}"

    record("moves preserve product-one, classes, generation", (
        f"{move} broke invariants on {t}" for t in sample
        for move, u in [*((f"q{i}", q(t, i)) for i in range(1, r)), ("sh", apply_sh(group, t))]
        if not is_nielsen_tuple(group, cv, u)))
    record("q_i q_{i+1} q_i = q_{i+1} q_i q_{i+1}", (
        f"braid relation failed at i={i} on {t}" for t in sample for i in range(1, r - 1)
        if q(t, i, i + 1, i) != q(t, i + 1, i, i + 1)))
    record("sh q_i sh^-1 = q_{i+1}", (
        f"sh-conjugation failed at i={i} on {t}" for t in sample for i in range(1, r - 1)
        if sh_conj(t, i) != q(t, i + 1)))
    record("q_i q_i^-1 = id and sh^r = id", (f for t in sample for f in inverse_failures(t)))

    # R_H = q_1..q_{r-1} q_{r-1}..q_1 applied to each sample tuple
    r_h = [q(t, *range(1, r), *range(r - 1, 0, -1)) for t in sample]
    record("R_H = q_1..q_{r-1} q_{r-1}..q_1 acts by conjugation", (
        f"R_H is not a conjugation on {t}" for t, u in zip(sample, r_h)
        if not any(tuple(group.conj(g, a) for g in t) == u for a in group.elements)))

    ix = group.indexed()
    if r == 4:
        ni = enumerate_nielsen(group, cv, Mode.INNER_REDUCED)
        rc = ni.action.reduced_canonical_tuple

        def words(u, *ws):
            """Each word of twists in turn, canonicalizing after each."""
            for w in ws:
                for i in w:
                    u = _qi(ix, u, i)
                u = rc(u)
            return u

        for name, fail, move in (
            ("gamma0^3 = 1 on reduced classes", "gamma0^3 != id at",
             lambda u: words(u, (1, 2), (1, 2), (1, 2))),
            ("gamma0 gamma1 gammainf = 1 on reduced classes", "gamma0 gamma1 gammainf != id at",
             lambda u: words(u, (1, 2), (1, 2, 1), (2,))),
            ("sh^2 fixes reduced classes", "sh^2 moved reduced class",
             lambda u: rc(apply_sh(ix, apply_sh(ix, u)))),
        ):
            record(name, (f"{fail} {ix.to_data(u)}" for u in ni.tuples if move(u) != u))

    inner = _get_action(group, Mode.INNER, cv).canonical_tuple
    record("R_H fixes inner classes", (
        f"R_H moved the inner class of {t}" for t, u in zip(sample, r_h)
        if inner(ix.to_index(u)) != inner(ix.to_index(t))))

    return PropertyReport(tuple(checks))
