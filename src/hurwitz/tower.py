"""Modular Tower levels over lattice quotients with normal l-Sylow.

Two built-in families.  The vector family has level-k group
(Z/l^(k+1))^t x| Z/q with a fixed integer action matrix reduced at every
level; the dihedral family has level-k group D_(l^(k+1)).  Tower mechanics
read only the level groups and their verified projections.  A level-0 class
of order d prime to l lifts to the one level-k class of order-d elements
over it, since the kernel of G_k -> G_0 is an l-group (Schur-Zassenhaus; see
``lift_classes_to_level``).  So a level-0 class vector determines the whole
tower.  Levels carry braid orbits, lift invariants (through the Heisenberg
extension when the modulus is prime to 6), cusp classifications, and a
component tree whose edges record which level-k orbit each level-(k+1) orbit
projects onto.

Frattini lemma: the kernel K of G_k -> G_0 lies in the Frattini subgroup
Phi(G_k), so a level-k tuple generates G_k if and only if its image
generates G_0 (M. Fried, "Introduction to Modular Towers", 1995).  Proof:
K is Phi(N) for a normal subgroup N, namely l*L = Phi(L) for the lattice L
of the vector family and <r^l> = Phi(<r>) for the rotations of
D_(l^(k+1)); and Phi(N) <= Phi(G) for N normal in G.  If a subgroup H maps
onto G_0 then H K = G_k, and since Phi(G_k) consists of non-generators,
H = G_k.  So level k tests generation on its images in level 0, through the
composite of the verified projections (``TowerSpec.quotient``);
``is_frattini_cover`` remains the small-case check of the lemma.

Cusp types at r = 4 follow the subgroup trichotomy: a cusp is g-l' when
<g1, g4> and <g2, g3> are both l'-groups, otherwise o-l' when the middle
product g2*g3 has order prime to l, otherwise an l-cusp.  "l does not
divide g2*g3" is read as a statement about the order of the middle product;
reports repeat that reading.  An l' subgroup's order divides the l'-part of
|G|, so the closure deciding "<g, h> is an l'-group" stops past that part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from .errors import BudgetError, ValidationError
from .groups import (
    ClassVector,
    FiniteGroup,
    VectorSemidirectGroup,
    _det_mod,
    _smallest_prime_factor,
    check_table_budget,
    dihedral,
)
from .nielsen import Mode, NielsenClassSet, enumerate_nielsen
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
    ``action`` matrix (default: t = 2 and the order-3 companion matrix of
    x^2 + x + 1), or "dihedral" for D_(l^(k+1)), which takes no action
    matrix and no rank, and sets t to 1.  Level groups and projections are
    built on first use and kept by the spec.
    """

    family: str
    ell: int
    t: int | None = None
    action: tuple | None = None
    _levels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _projections: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)
    _index_maps: dict = field(default_factory=dict, init=False, compare=False,
                              repr=False)

    def __post_init__(self):
        if self.family not in ("vector", "dihedral"):
            raise ValidationError("tower family must be 'vector' or 'dihedral'")
        if self.ell < 2 or _smallest_prime_factor(self.ell) != self.ell:
            raise ValidationError(f"tower prime expected, got {self.ell}")
        if self.t is None:
            object.__setattr__(self, "t", 2 if self.family == "vector" else 1)
        elif self.family == "dihedral":
            raise ValidationError("dihedral towers take no lattice rank t")
        if type(self.t) is not int or self.t < 1:
            raise ValidationError(f"tower lattice rank t must be at least 1, got {self.t!r}")
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
            if self.action is not None:
                raise ValidationError("dihedral towers take no action matrix")

    def modulus(self, k: int) -> int:
        return self.ell ** (k + 1)

    def level_group(self, k: int) -> FiniteGroup:
        cache = self._levels
        if k not in cache:
            m = self.modulus(k)
            if self.family == "vector":
                g = VectorSemidirectGroup(self.t, m, self.action)
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
        """The level-k to level-(k-1) reduction homomorphism (k >= 1).

        Reduction mod l^k sends generators to generators: the basis vectors
        and the complement (vector family), the rotation and the reflection
        (dihedral family)."""
        if k < 1:
            raise ValidationError("projection needs k >= 1")
        cache = self._projections
        if k not in cache:
            tgt = self.level_group(k - 1)
            cache[k] = GroupHom(self.level_group(k), tgt, tgt.gens)
        return cache[k]

    def index_map(self, k: int) -> tuple:
        """``projection(k)`` on indexed views: for each level-k index, the
        level-(k-1) index of its image."""
        cache = self._index_maps
        if k not in cache:
            hom, index = self.projection(k), self.level_group(k - 1)._index
            cache[k] = tuple(index[hom(x)] for x in hom.source.elements)
        return cache[k]

    def quotient(self, k: int) -> tuple | None:
        """Level 0 as the Frattini quotient of level k, in the form
        ``enumerate_nielsen`` takes: the level-0 indexed view and, for each
        level-k index, the index of its image under the composite of the
        verified projections, chained as index maps.  None at level 0."""
        if k < 1:
            return None
        down = range(self.level_group(0).order)
        for j in range(1, k + 1):
            down = tuple(map(down.__getitem__, self.index_map(j)))
        return self.level_group(0).indexed(), down

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "ell": self.ell,
            "t": self.t,
            "action": [list(r) for r in self.action] if self.action else None,
        }


def project_tuple(spec: TowerSpec, k: int, t: tuple) -> tuple:
    """Entrywise reduction of a level-k tuple to level k-1 (k >= 1)."""
    return tuple(map(spec.projection(k), t))


def lift_classes_to_level(spec: TowerSpec, c0: ClassVector, k: int) -> ClassVector:
    """The canonical lift of a level-0 class vector to level k.

    A level-0 class of order d prime to l lifts to the one level-k class of
    order-d elements that ``spec.quotient(k)`` maps into it.  The kernel K of
    G_k -> G_0 is an l-group.  For order-d preimages y, y' of one element,
    <y> and <y'> complement K in K<y>, so by Schur-Zassenhaus <y>^c = <y'>
    for some c in K, and y^c = y' as both lie over one element; a power of
    any preimage has order d.  The rule checks that the class is unique, and
    finds the reps of ``c0`` in G_0 by their data.
    """
    g0, gk = spec.level_group(0), spec.level_group(k)
    view, down = spec.quotient(k) or (g0.indexed(), range(g0.order))
    over: dict = {}
    for j, cl in enumerate(gk.indexed().conjugacy_classes()):
        over.setdefault((view.class_index_of(down[cl.rep]), cl.element_order), []).append(j)
    idx = []
    for rep in c0.reps():
        if c0.group.order != g0.order or rep not in g0:
            raise ValidationError("class vector does not live on the level-0 group")
        d = g0.element_order(rep)
        if d % spec.ell == 0:
            raise ValidationError("tower classes must have order prime to ell")
        found = over.get((g0.class_index_of(rep), d), ())
        if len(found) != 1:
            raise ValidationError(
                f"no single level-{k} class of order {d} lies over {g0.format(rep)}"
            )
        idx.append(found[0])
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


def _subgroup_order_prime_to(group, gens, ell) -> bool:
    part = _ell_prime_part(group.order, ell)
    h = len(group.close(gens, stop_above=part))
    return h <= part and h % ell != 0


def cusp_type(c: CuspOrbit, ell: int) -> CuspClassification:
    """Classify one cusp orbit: l-cusp / g-l' / o-l', plus shape flags."""
    ix, tuples = c.ni.group.indexed(), c.ni.tuples
    rep = tuples[c.positions[0]]
    r = len(rep)

    # Both shapes are entrywise, so kept by conjugation; at r = 4 also by sh^2
    # (a rotation) and by q1*q3^-1: its image (g1 g2 g1^-1, g1, g4, g3^g4) is HM
    # iff g2 = g1^-1 and g3 = g4^-1, and repeats iff g1 = g2, g1 = g4, g3 = g4
    # or (as g1 g2 g3 g4 = 1) g2 = g3.  So each member's rep decides its class.
    hm = any(tuple_is_hm(ix, tuples[p]) for p in c.positions)
    dbl = any(_has_adjacent_repeat(tuples[p]) for p in c.positions)

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
    return any(
        all(_subgroup_order_prime_to(group, tuple(t[i % r] for i in range(a, b)), ell)
            for a, b in zip(cuts, cuts[1:] + (cuts[0] + r,)))
        for n_cuts in range(2, r + 1) for cuts in combinations(range(r), n_cuts)
    )


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

    @cached_property
    def extension(self) -> CentralExtension | None:
        """Heisenberg central extension carrying this level's lift invariant.

        It exists for the vector family with t = 2, ell >= 5, complement
        order 3 and det M = 1 mod the level's modulus; otherwise the level
        has none (with det M != 1 the Heisenberg kernel is not central)."""
        spec, m = self.spec, self.spec.modulus(self.k)
        if (spec.family != "vector" or spec.t != 2 or spec.ell < 5
                or self.group.complement_order != 3 or _det_mod(spec.action, m) != 1):
            return None
        return extend_action_to_heisenberg(m, spec.action)

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
    """Construct level k: group, lifted classes, Nielsen set, braid orbits;
    generation is tested on level-0 images (see the module docstring)."""
    group = spec.level_group(k)
    # |G_k| = |G_0| * l^(t*k) (t = 1 for the dihedral family), so a level
    # over the table cap stops before its elements are listed
    check_table_budget(group.name, spec.level_group(0).order * spec.ell ** (spec.t * k))
    cv = lift_classes_to_level(spec, c0, k)
    ni = enumerate_nielsen(group, cv, mode, quotient=spec.quotient(k))
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
            "edges": [[list(child), list(par)] for child, par in self.edges],
            "truncated_at": self.truncated_at,
            "conventions": {"o_ell_prime": O_ELL_PRIME_READING},
        }


def component_tree(spec: TowerSpec, c0: ClassVector, k_max: int,
                   mode: Mode = Mode.INNER_REDUCED) -> ComponentTree:
    """Levels 0..k_max and the projection edges between their braid orbits.

    If some level above 0 exceeds a budget the tree is returned truncated,
    with ``truncated_at`` naming the first level that could not be built;
    level 0's ``BudgetError`` propagates.
    """
    if k_max < 0:
        raise ValidationError(f"k-max must be non-negative, got {k_max}")
    levels = [build_level(spec, c0, 0, mode=mode)]
    truncated = None
    for k in range(1, k_max + 1):
        try:
            levels.append(build_level(spec, c0, k, mode=mode))
        except BudgetError:
            truncated = k
            break

    edges = []
    for child in levels[1:]:
        parent = levels[child.k - 1]
        down, position = spec.index_map(child.k), parent.ni.position
        owner = {p: o.label for o in parent.orbits for p in o.positions}
        for o in child.orbits:
            image = parent.ni.canonical(tuple(down[g] for g in child.ni.tuples[o.positions[0]]))
            if image not in position:
                raise ValidationError(
                    "projected orbit representative missed every lower orbit"
                )
            edges.append(((child.k, o.label), (parent.k, owner[position[image]])))
    return ComponentTree(spec, tuple(levels), tuple(edges), truncated)


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
# eventually-Frattini data


@dataclass(frozen=True)
class FrattiniStep:
    k: int
    frattini: object  # True / False / "skipped"
    kernel_order: int
    kernel_is_ell_group: bool

    def to_dict(self) -> dict:
        return asdict(self)


def eventually_frattini_report(spec: TowerSpec, k_max: int) -> tuple[FrattiniStep, ...]:
    """For each step G_k -> G_(k-1), is it a Frattini cover?

    Steps whose kernel-translate count exceeds ``FRATTINI_TUPLE_BUDGET`` are
    marked "skipped" rather than attempted.
    """
    steps = []
    for k in range(1, k_max + 1):
        hom = spec.projection(k)
        kernel = hom.kernel()
        ell = spec.ell
        is_ell = all(
            _ell_prime_part(hom.source.element_order(x), ell) == 1 for x in kernel
        )
        n_tuples = len(kernel) ** len(hom.target.gens)
        if n_tuples > FRATTINI_TUPLE_BUDGET:
            verdict: object = "skipped"
        else:
            verdict = is_frattini_cover(hom)
        steps.append(FrattiniStep(
            k=k,
            frattini=verdict,
            kernel_order=len(kernel),
            kernel_is_ell_group=is_ell,
        ))
    return tuple(steps)


def _ell_prime_part(n: int, ell: int) -> int:
    while n % ell == 0:
        n //= ell
    return n


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
