"""Hurwitz braid action on Nielsen tuples: twists, orbits, cusps.

The Hurwitz monodromy group is generated by the twist q2 and the left
rotation sh; the other twists are conjugates of q2 by powers of sh, so orbit
closures only ever apply those two moves.  Everything acts on canonical
representatives: ``NielsenClassSet.moves()`` applies q1, q2 and sh to each
representative once and canonicalizes the image, and orbits, cusps and the
geometry module then follow those permutations of positions.

Cusps are the orbits of gamma_infinity = q2 on a braid orbit; their lengths
are the cusp widths.  Labels follow the scheme O_{i,j}^w with i the braid
orbit's 1-based position (orbits sorted by size then least member), j the
cusp's position (cusps sorted by descending width then least member) and w
the width.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import BudgetError, ValidationError
from .groups import ClassVector, FiniteGroup
from .nielsen import (
    Mode,
    NielsenClassSet,
    _qi,
    _qi_inv,
    _sh,
    enumerate_nielsen,
    is_nielsen_tuple,
    random_nielsen_tuple,
)


def apply_qi(group: FiniteGroup, t: tuple, i: int) -> tuple:
    """Twist q_i, 1-based: (..., g_i, g_{i+1}, ...) -> (..., g_i g_{i+1} g_i^-1, g_i, ...)."""
    if not 1 <= i <= len(t) - 1:
        raise ValidationError(f"twist index {i} out of range 1..{len(t) - 1}")
    return _qi(group, t, i)


def apply_qi_inv(group: FiniteGroup, t: tuple, i: int) -> tuple:
    if not 1 <= i <= len(t) - 1:
        raise ValidationError(f"twist index {i} out of range 1..{len(t) - 1}")
    return _qi_inv(group, t, i)


def apply_sh(group: FiniteGroup, t: tuple) -> tuple:
    """Left rotation (g_2, ..., g_r, g_1)."""
    return _sh(group, t)


@dataclass(frozen=True)
class CuspOrbit:
    label: str
    width: int
    members: tuple
    braid_label: str
    ni: NielsenClassSet = field(compare=False, repr=False)
    # the members' positions in ``ni.reps``, filled in by ``cusp_orbits``
    positions: tuple = field(compare=False, repr=False, default=())

    @property
    def rep(self) -> tuple:
        return self.members[0]


@dataclass(frozen=True)
class BraidOrbit:
    index: int
    label: str
    members: tuple
    ni: NielsenClassSet = field(compare=False, repr=False)
    # the members' positions in ``ni.reps``
    positions: tuple = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def rep(self) -> tuple:
        return self.members[0]

    def cusps(self) -> tuple[CuspOrbit, ...]:
        got = getattr(self, "_cusps", None)
        if got is None:
            got = cusp_orbits(self)
            object.__setattr__(self, "_cusps", got)
        return got

    def to_dict(self) -> dict:
        group = self.ni.group
        return {
            "orbit_label": self.label,
            "size": self.size,
            "cusps": [
                {
                    "label": c.label,
                    "width": c.width,
                    "rep": [group.format(g) for g in c.rep],
                }
                for c in self.cusps()
            ],
        }


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
        BraidOrbit(index=i + 1, label=f"O{i + 1}",
                   members=tuple(ni.reps[p] for p in s), ni=ni, positions=tuple(s))
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
            members=tuple(ni.reps[p] for p in s),
            braid_label=orbit.label,
            ni=ni,
            positions=tuple(s),
        )
        for j, s in enumerate(raw)
    )


# ---------------------------------------------------------------------------
# relation checking


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class PropertyReport:
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
    γ0 γ1 γ∞ = 1 on reduced canonical forms.
    """
    r = cv.r
    rng = random.Random(seed)
    sample = [random_nielsen_tuple(group, cv, rng) for _ in range(sample_size)]
    checks: list[PropertyCheck] = []

    def record(name: str, failures: list[str]):
        checks.append(PropertyCheck(name, not failures, "; ".join(failures[:3])))

    fails = []
    for t in sample:
        for i in range(1, r):
            u = _qi(group, t, i)
            if not is_nielsen_tuple(group, cv, u):
                fails.append(f"q{i} broke invariants on {t}")
        if not is_nielsen_tuple(group, cv, _sh(group, t)):
            fails.append(f"sh broke invariants on {t}")
    record("moves preserve product-one, classes, generation", fails)

    fails = []
    for t in sample:
        for i in range(1, r - 1):
            lhs = _qi(group, _qi(group, _qi(group, t, i), i + 1), i)
            rhs = _qi(group, _qi(group, _qi(group, t, i + 1), i), i + 1)
            if lhs != rhs:
                fails.append(f"braid relation failed at i={i} on {t}")
    record("q_i q_{i+1} q_i = q_{i+1} q_i q_{i+1}", fails)

    fails = []
    for t in sample:
        for i in range(1, r - 1):
            via = _sh(group, t)
            via = _qi(group, via, i)
            via = tuple(via[-1:] + via[:-1])  # sh^-1 is the right rotation
            if via != _qi(group, t, i + 1):
                fails.append(f"sh-conjugation failed at i={i} on {t}")
    record("sh q_i sh^-1 = q_{i+1}", fails)

    fails = []
    for t in sample:
        for i in range(1, r):
            if _qi_inv(group, _qi(group, t, i), i) != t:
                fails.append(f"q{i} inverse failed on {t}")
        u = t
        for _ in range(r):
            u = _sh(group, u)
        if u != t:
            fails.append(f"sh^{r} != id on {t}")
    record("q_i q_i^-1 = id and sh^r = id", fails)

    def r_h(t):
        for i in [*range(1, r), *range(r - 1, 0, -1)]:
            t = _qi(group, t, i)
        return t

    fails = []
    for t in sample:
        u = r_h(t)
        if not any(tuple(group.conj(g, a) for g in t) == u for a in group.elements):
            fails.append(f"R_H is not a conjugation on {t}")
    record("R_H = q_1..q_{r-1} q_{r-1}..q_1 acts by conjugation", fails)

    ix = group.indexed()
    if r == 4:
        ni = enumerate_nielsen(group, cv, Mode.INNER_REDUCED)
        rc = ni.action.reduced_canonical_tuple
        reps = [(x, ix.to_index(x)) for x in ni.reps]

        def gamma(u, *word):
            for i in word:
                u = _qi(ix, u, i)
            return rc(u)

        fails = []
        for x, u in reps:
            if gamma(gamma(gamma(u, 1, 2), 1, 2), 1, 2) != u:
                fails.append(f"gamma0^3 != id at {x}")
        record("gamma0^3 = 1 on reduced classes", fails)

        fails = []
        for x, u in reps:
            if gamma(gamma(gamma(u, 1, 2), 1, 2, 1), 2) != u:
                fails.append(f"gamma0 gamma1 gammainf != id at {x}")
        record("gamma0 gamma1 gammainf = 1 on reduced classes", fails)

        fails = []
        for x, u in reps:
            if rc(_sh(ix, _sh(ix, u))) != u:
                fails.append(f"sh^2 moved reduced class {x}")
        record("sh^2 fixes reduced classes", fails)

    inner = enumerate_nielsen(group, cv, Mode.INNER)

    def can(t):
        return inner.action.canonical_tuple(ix.to_index(t))

    fails = []
    for t in sample:
        if can(r_h(t)) != can(t):
            fails.append(f"R_H moved the inner class of {t}")
    record("R_H fixes inner classes", fails)

    return PropertyReport(tuple(checks))
