"""Modular Tower levels over lattice quotients with normal l-Sylow.

Two built-in families.  The vector family has level-k group
(Z/l^(k+1))^t x| Z/q with a fixed integer action matrix reduced at every
level; the dihedral family has level-k group D_(l^(k+1)).  Conjugacy classes
of order prime to l lift canonically level to level, so a level-0 class
vector determines the whole tower.  Levels carry braid orbits, lift
invariants (through the Heisenberg extension when the modulus is prime to
6), cusp classifications, and a component tree whose edges record which
level-k orbit each level-(k+1) orbit projects onto.

Cusp types at r = 4 follow the subgroup trichotomy: a cusp is g-l' when
<g1, g4> and <g2, g3> are both l'-groups, otherwise o-l' when the middle
product g2*g3 has order prime to l, otherwise an l-cusp.  "l does not
divide g2*g3" is read as a statement about the order of the middle product;
reports repeat that reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .errors import BudgetError, ValidationError
from .groups import (
    ClassVector,
    FiniteGroup,
    VectorSemidirectGroup,
    _det_mod,
    _smallest_prime_factor,
    dihedral,
)
from .nielsen import Mode, NielsenClassSet, _reduction_orbit, enumerate_nielsen
from .braid import BraidOrbit, CuspOrbit, braid_orbits
from .geometry import GenusReport, genus_of_component
from .lift import (
    COMPANION,
    FRATTINI_TUPLE_BUDGET,
    CentralExtension,
    GroupHom,
    LiftInvariant,
    extend_action_to_heisenberg,
    is_frattini_cover,
    lift_invariant,
)

O_ELL_PRIME_READING = "o-ell-prime tests the order of the middle product g2*g3"


def _int_matrix(action, t: int) -> tuple:
    try:
        rows = tuple(tuple(row) for row in action)
    except TypeError:
        rows = ()
    if len(rows) != t or any(
        len(r) != t or any(type(v) is not int for v in r) for r in rows
    ):
        raise ValidationError(f"tower action must be a {t}x{t} integer matrix")
    return rows


@dataclass(frozen=True)
class TowerSpec:
    """A tower family: which groups sit at each level.

    ``family`` is "vector" for (Z/l^(k+1))^t x| Z/q with the given integer
    ``action`` matrix (default: the order-3 companion matrix of x^2 + x + 1),
    or "dihedral" for D_(l^(k+1)).  Level groups and projections are built
    on first use and kept by the spec.
    """

    family: str
    ell: int
    t: int = 2
    action: tuple | None = None
    _levels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _projections: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)

    def __post_init__(self):
        if self.family not in ("vector", "dihedral"):
            raise ValidationError("tower family must be 'vector' or 'dihedral'")
        if self.ell < 2 or _smallest_prime_factor(self.ell) != self.ell:
            raise ValidationError(f"tower prime expected, got {self.ell}")
        if self.family == "vector":
            if self.ell == 3:
                raise ValidationError(
                    "ell = 3 is excluded for the vector family (the complement"
                    " order collides with the prime; no canonical class lift)"
                )
            action = self.action if self.action is not None else COMPANION
            object.__setattr__(self, "action", _int_matrix(action, self.t))
            if _det_mod([
                [(1 if i == j else 0) - self.action[i][j] for j in range(self.t)]
                for i in range(self.t)
            ], self.ell) == 0:
                raise ValidationError(
                    "level-0 group has a Z/ell quotient (action fixes a line);"
                    " tower groups must be ell-perfect"
                )
        else:
            if self.ell == 2:
                raise ValidationError("dihedral towers need an odd prime")
            object.__setattr__(self, "action", None)
            object.__setattr__(self, "t", 1)

    def modulus(self, k: int) -> int:
        return self.ell ** (k + 1)

    def level_group(self, k: int) -> FiniteGroup:
        cache = self._levels
        if k not in cache:
            m = self.modulus(k)
            if self.family == "vector":
                g = VectorSemidirectGroup(
                    self.t, m, self.action, name=f"(Z/{m})^{self.t}:Z/q"
                )
                g.name = f"(Z/{m})^{self.t}:Z/{g.complement_order}"
                if k > 0:
                    q0 = self.level_group(0).complement_order
                    if g.complement_order != q0:
                        raise ValidationError(
                            "action matrix changes order between levels; the"
                            f" tower needs M^{q0} = I mod {m}"
                        )
            else:
                g = dihedral(m)
            g.descriptor = self.descriptor(k)
            cache[k] = g
        return cache[k]

    def descriptor(self, k: int) -> str:
        m = self.modulus(k)
        if self.family == "dihedral":
            return f"D{m}"
        rows = ",".join(
            "[" + ",".join(str(v % m) for v in row) + "]" for row in self.action
        )
        return f"V({self.t},{m}):M=[{rows}]"

    def projection(self, k: int) -> GroupHom:
        """The level-k to level-(k-1) reduction homomorphism (k >= 1)."""
        if k < 1:
            raise ValidationError("projection needs k >= 1")
        cache = self._projections
        if k not in cache:
            src = self.level_group(k)
            tgt = self.level_group(k - 1)
            cache[k] = GroupHom.from_callable(
                src, tgt, lambda g: _project_element(self, k, g)
            )
        return cache[k]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "ell": self.ell,
            "t": self.t,
            "action": [list(r) for r in self.action] if self.action else None,
        }


def _project_element(spec: TowerSpec, k: int, g):
    m2 = spec.modulus(k - 1)
    if spec.family == "vector":
        v, a = g
        return (tuple(c % m2 for c in v), a)
    # dihedral permutations encode x -> sign*x + b on Z/(l^(k+1))
    b = g[0]
    sign = 1 if g[1] == (b + 1) % len(g) else -1
    return tuple((b + sign * i) % m2 for i in range(m2))


def project_tuple(spec: TowerSpec, k: int, t: tuple) -> tuple:
    """Entrywise reduction of a level-k tuple to level k-1."""
    if k < 1:
        raise ValidationError("project_tuple needs k >= 1")
    return tuple(_project_element(spec, k, g) for g in t)


def lift_classes_to_level(spec: TowerSpec, c0: ClassVector, k: int) -> ClassVector:
    """The canonical lift of a level-0 class vector: same complement part.

    Every class of order prime to l contains an element with trivial lattice
    part, and those elements stay in one class at every level, so the lifted
    class is the class of the complement-coordinate representative.
    """
    g0 = spec.level_group(0)
    gk = spec.level_group(k)
    if c0.group.order != g0.order:
        raise ValidationError("class vector does not live on the level-0 group")
    ell = spec.ell
    idx = []
    for rep in c0.reps():
        if c0.group.element_order(rep) % ell == 0:
            raise ValidationError("tower classes must have order prime to ell")
        if spec.family == "vector":
            if (
                not isinstance(rep, tuple) or len(rep) != 2
                or not isinstance(rep[0], tuple) or len(rep[0]) != spec.t
            ):
                raise ValidationError(
                    "class vector entries are not lattice-group elements"
                )
            zero = tuple(0 for _ in range(spec.t))
            target = (zero, rep[1])
        else:
            if rep == c0.group.identity:
                target = gk.identity
            else:
                # the only l' non-identity classes of an odd dihedral group
                # are the reflections, all conjugate
                target = gk.gens[1]
        idx.append(gk.class_index_of(target))
    return ClassVector(gk, tuple(idx))


# ---------------------------------------------------------------------------
# cusp classification


@dataclass(frozen=True)
class CuspClassification:
    type: str
    hm: bool  # some member of the cusp has Harbater-Mumford shape
    double_identity: bool

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "flags": {"hm": self.hm, "double_identity": self.double_identity},
        }


def tuple_is_hm(group: FiniteGroup, t: tuple) -> bool:
    """Harbater-Mumford shape: consecutive pairs (g, g^-1)."""
    r = len(t)
    if r % 2:
        return False
    return all(t[i + 1] == group.inv(t[i]) for i in range(0, r, 2))


def _has_adjacent_repeat(t: tuple) -> bool:
    r = len(t)
    return any(t[i] == t[(i + 1) % r] for i in range(r))


def _class_has_hm(group, t) -> bool:
    # HM shape is defined by entrywise equations invariant under simultaneous
    # conjugation, so one representative decides it for the inner class; the
    # reduced class is the union of the reduction orbit's inner classes.
    return any(tuple_is_hm(group, u) for u in _reduction_orbit(group, t))


def _class_has_double_identity(group, t) -> bool:
    return any(_has_adjacent_repeat(u) for u in _reduction_orbit(group, t))


def _subgroup_order_prime_to(group, gens, ell) -> bool:
    return group.subgroup_order(gens) % ell != 0


def cusp_type(c: CuspOrbit, ell: int) -> CuspClassification:
    """Classify one cusp orbit: l-cusp / g-l' / o-l', plus shape flags."""
    ix = c.ni.group.indexed()
    rep = ix.to_index(c.rep)
    r = len(rep)

    hm = False
    dbl = False
    for t in c.members:
        u = ix.to_index(t)
        hm = hm or _class_has_hm(ix, u)
        dbl = dbl or _class_has_double_identity(ix, u)
        if hm and dbl:
            break

    if r == 4:
        g1, g2, g3, g4 = rep
        if (
            _subgroup_order_prime_to(ix, (g1, g4), ell)
            and _subgroup_order_prime_to(ix, (g2, g3), ell)
        ):
            kind = "g-ell-prime"
        elif ix.element_order(ix.mul(g2, g3)) % ell != 0:
            kind = "o-ell-prime"
        else:
            kind = "ell-cusp"
    else:
        kind = "g-ell-prime" if _gl_prime_partition(ix, rep, ell) else "unclassified"
    return CuspClassification(type=kind, hm=hm, double_identity=dbl)


def _gl_prime_partition(group, t: tuple, ell: int) -> bool:
    """Is there a cyclic split into >= 2 consecutive arcs, all l' subgroups?"""
    r = len(t)
    for n_cuts in range(2, r + 1):
        for cuts in combinations(range(r), n_cuts):
            ok = True
            for a, b in zip(cuts, cuts[1:] + (cuts[0] + r,)):
                arc = tuple(t[i % r] for i in range(a, b))
                if not _subgroup_order_prime_to(group, arc, ell):
                    ok = False
                    break
            if ok:
                return True
    return False


# ---------------------------------------------------------------------------
# levels and the component tree


class TowerLevel:
    """One tower level: group, lifted classes, Nielsen set, braid orbits."""

    def __init__(self, spec: TowerSpec, k: int, cv: ClassVector,
                 ni: NielsenClassSet, orbits: tuple[BraidOrbit, ...]):
        self.spec = spec
        self.k = k
        self.group = ni.group
        self.cv = cv
        self.ni = ni
        self.orbits = orbits
        self._extension: CentralExtension | None | str = "unset"

    @property
    def extension(self) -> CentralExtension | None:
        """Heisenberg central extension carrying this level's lift invariant."""
        if self._extension == "unset":
            ext = None
            if self.spec.family == "vector" and self.spec.ell >= 5 and self.spec.t == 2:
                m = self.spec.modulus(self.k)
                mat = tuple(
                    tuple(v % m for v in row) for row in self.spec.action
                )
                try:
                    ext = extend_action_to_heisenberg(m, mat)
                except (BudgetError, ValidationError):
                    ext = None
            self._extension = ext
        return self._extension

    def orbit_invariant(self, orbit: BraidOrbit) -> LiftInvariant | None:
        ext = self.extension
        if ext is None:
            return None
        return lift_invariant(ext, orbit.rep)

    def genus_report(self, orbit: BraidOrbit) -> GenusReport | None:
        if self.cv.r == 4 and self.ni.mode.reduced:
            return genus_of_component(orbit)
        return None

    def to_dict(self) -> dict:
        orbits = []
        for o in self.orbits:
            rep = self.genus_report(o)
            inv = self.orbit_invariant(o)
            orbits.append({
                "label": o.label,
                "size": o.size,
                "genus": None if rep is None else rep.genus,
                "lift_invariant": None if inv is None else inv.label,
                "cusps": [
                    {
                        "label": c.label,
                        "width": c.width,
                        **cusp_type(c, self.spec.ell).to_dict(),
                    }
                    for c in o.cusps()
                ],
            })
        return {
            "k": self.k,
            "group_order": self.group.order,
            "ni_count": self.ni.count,
            "orbits": orbits,
        }


def build_level(spec: TowerSpec, c0: ClassVector, k: int,
                mode: Mode = Mode.INNER_REDUCED) -> TowerLevel:
    """Construct level k: group, lifted classes, Nielsen set, braid orbits."""
    cv = lift_classes_to_level(spec, c0, k)
    ni = enumerate_nielsen(spec.level_group(k), cv, mode)
    orbits = braid_orbits(ni)
    return TowerLevel(spec, k, cv, ni, orbits)


@dataclass(frozen=True)
class ComponentTree:
    spec: TowerSpec
    levels: tuple[TowerLevel, ...]
    edges: tuple[tuple[tuple[int, str], tuple[int, str]], ...]
    truncated_at: int | None = None

    def parent(self, k: int, label: str) -> tuple[int, str] | None:
        for child, par in self.edges:
            if child == (k, label):
                return par
        return None

    def chains(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Maximal root-ward chains from every deepest-level orbit."""
        top = self.levels[-1]
        out = []
        for o in top.orbits:
            chain = [(top.k, o.label)]
            while True:
                par = self.parent(*chain[-1])
                if par is None:
                    break
                chain.append(par)
            out.append(tuple(chain))
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "levels": [lvl.to_dict() for lvl in self.levels],
            "edges": [
                [[child[0], child[1]], [par[0], par[1]]]
                for child, par in self.edges
            ],
            "truncated_at": self.truncated_at,
            "conventions": {"o_ell_prime": O_ELL_PRIME_READING},
        }


def component_tree(spec: TowerSpec, c0: ClassVector, k_max: int,
                   mode: Mode = Mode.INNER_REDUCED) -> ComponentTree:
    """Levels 0..k_max and the projection edges between their braid orbits.

    If some level exceeds the order bound the tree is returned truncated,
    with ``truncated_at`` naming the first level that could not be built.
    """
    if k_max < 0:
        raise ValidationError(f"k-max must be non-negative, got {k_max}")
    levels: list[TowerLevel] = []
    truncated = None
    for k in range(k_max + 1):
        try:
            levels.append(build_level(spec, c0, k, mode=mode))
        except BudgetError:
            truncated = k
            break
    if not levels:
        raise BudgetError("level 0 already exceeds the order bound")

    edges = []
    for child_level in levels[1:]:
        parent_level = levels[child_level.k - 1]
        ix = parent_level.group.indexed()
        owner = {}
        for o in parent_level.orbits:
            for t in o.members:
                owner[t] = o.label
        for o in child_level.orbits:
            down = ix.to_index(project_tuple(spec, child_level.k, o.rep))
            image = ix.to_data(parent_level.ni.canonical(down))
            if image not in owner:
                raise ValidationError(
                    "projected orbit representative missed every lower orbit"
                )
            edges.append(((child_level.k, o.label),
                          (child_level.k - 1, owner[image])))
    return ComponentTree(
        spec=spec,
        levels=tuple(levels),
        edges=tuple(edges),
        truncated_at=truncated,
    )


# ---------------------------------------------------------------------------
# Branch Cycle Lemma


@dataclass(frozen=True)
class BCLResult:
    n_c: int
    q: tuple[int, ...]
    rational_union: bool

    def to_dict(self) -> dict:
        return {
            "N_C": self.n_c,
            "Q": list(self.q),
            "rational_union": self.rational_union,
        }


def bcl(group: FiniteGroup, cv: ClassVector) -> BCLResult:
    """Q_{G,C} = exponents rescuing the class multiset, and rationality."""
    from math import lcm

    n_c = lcm(*(group.element_order(rep) for rep in cv.reps()))
    units = [m for m in range(1, n_c + 1) if gcd(m, n_c) == 1]
    base = sorted(cv.indices)
    q = []
    for m in units:
        powered = sorted(
            group.class_index_of(group.power(rep, m)) for rep in cv.reps()
        )
        if powered == base:
            q.append(m)
    return BCLResult(n_c=n_c, q=tuple(q), rational_union=len(q) == len(units))


# ---------------------------------------------------------------------------
# inner/absolute fibers


@dataclass(frozen=True)
class FiberReport:
    absolute_count: int
    inner_count: int
    orbit_fibers: tuple[tuple[str, tuple[str, ...]], ...]
    class_fibers: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "absolute_count": self.absolute_count,
            "inner_count": self.inner_count,
            "orbit_fibers": [
                {"absolute_orbit": a, "inner_orbits": list(i)}
                for a, i in self.orbit_fibers
            ],
            "class_fibers": list(self.class_fibers),
        }


def inner_absolute_fibers(group: FiniteGroup, cv: ClassVector,
                          reduced: bool = True) -> FiberReport:
    """How inner classes and braid orbits sit over absolute ones."""
    inner_mode = Mode.INNER_REDUCED if reduced else Mode.INNER
    abs_mode = Mode.ABSOLUTE_REDUCED if reduced else Mode.ABSOLUTE
    ni_in = enumerate_nielsen(group, cv, inner_mode)
    ni_abs = enumerate_nielsen(group, cv, abs_mode)
    ix = group.indexed()

    def abs_canon(t):
        return ix.to_data(ni_abs.canonical(ix.to_index(t)))

    # class-level fibers: how many inner classes collapse to each absolute one
    coarse: dict[tuple, int] = {}
    for t in ni_in.reps:
        coarse[abs_canon(t)] = coarse.get(abs_canon(t), 0) + 1
    class_fibers = tuple(coarse[t] for t in ni_abs.reps)

    in_orbits = braid_orbits(ni_in)
    abs_orbits = braid_orbits(ni_abs)
    owner = {}
    for o in abs_orbits:
        for t in o.members:
            owner[t] = o.label
    fibers: dict[str, list[str]] = {o.label: [] for o in abs_orbits}
    for o in in_orbits:
        fibers[owner[abs_canon(o.rep)]].append(o.label)
    return FiberReport(
        absolute_count=ni_abs.count,
        inner_count=ni_in.count,
        orbit_fibers=tuple(
            (o.label, tuple(fibers[o.label])) for o in abs_orbits
        ),
        class_fibers=class_fibers,
    )


# ---------------------------------------------------------------------------
# eventually-Frattini data


@dataclass(frozen=True)
class FrattiniStep:
    k: int
    frattini: object  # True / False / "skipped"
    kernel_order: int
    kernel_is_ell_group: bool

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "frattini": self.frattini,
            "kernel_order": self.kernel_order,
            "kernel_is_ell_group": self.kernel_is_ell_group,
        }


def eventually_frattini_report(spec: TowerSpec, k_max: int,
                               budget: int = FRATTINI_TUPLE_BUDGET
                               ) -> tuple[FrattiniStep, ...]:
    """For each step G_k -> G_(k-1), is it a Frattini cover?

    Steps whose kernel-translate count exceeds the budget are marked
    "skipped" rather than attempted.
    """
    steps = []
    for k in range(1, k_max + 1):
        hom = spec.projection(k)
        kernel = hom.kernel()
        ell = spec.ell
        is_ell = all(
            _is_ell_power(hom.source.element_order(x), ell) for x in kernel
        )
        n_tuples = len(kernel) ** len(hom.target.gens)
        if n_tuples > budget:
            verdict: object = "skipped"
        else:
            verdict = is_frattini_cover(hom, budget=budget)
        steps.append(FrattiniStep(
            k=k,
            frattini=verdict,
            kernel_order=len(kernel),
            kernel_is_ell_group=is_ell,
        ))
    return tuple(steps)


def _is_ell_power(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1


def lift_partition_is_choice_independent(level: TowerLevel) -> bool | None:
    """Do all Heisenberg extensions split the orbits the same way?

    Returns None when the level carries no extension.
    """
    ext = level.extension
    if ext is None:
        return None

    def partition(e):
        groups: dict[str, list[str]] = {}
        for o in level.orbits:
            groups.setdefault(lift_invariant(e, o.rep).label, []).append(o.label)
        return sorted(tuple(v) for v in groups.values())

    base = partition(ext)
    return all(partition(e) == base for e in ext.alternatives)
