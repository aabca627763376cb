"""Modular Tower levels over lattice quotients with normal l-Sylow.

Two built-in families.  The vector family has level-k group
(Z/l^(k+1))^t x| Z/q with a fixed integer action matrix reduced at every
level; the dihedral family has level-k group D_(l^(k+1)).  Tower mechanics
read only the level groups and the checked ``GroupHom`` between the indexed
views of adjacent levels (``TowerSpec.level_map``).  A level-0 class of
order d prime to l lifts to the one level-k class of order-d elements over
it, since the kernel of G_k -> G_0 is an l-group (Schur-Zassenhaus; see
``lift_classes_to_level``).  So a level-0 class vector determines the whole
tower.  A level (``TowerLevel``, read-only) holds its Nielsen set and braid
orbits; its report reads each orbit's genus report off the orbit record, and
adds lift invariants (through the Heisenberg extension built over the level
group, where ``heisenberg_obstruction`` admits one) and cusp
classifications.  A component tree's edges record which level-k orbit each
level-(k+1) orbit projects onto.

The kernel of G_k -> G_0 lies in Phi(G_k), so level k tests generation in
level 0, its ``generation_quotient`` as a catalog group (see the groups
module); ``eventually_frattini_report`` checks each step by running
``is_frattini_cover`` on its level map.

Cusp types at r = 4 follow the subgroup trichotomy: a cusp is g-l' when
<g1, g4> and <g2, g3> are both l'-groups, otherwise o-l' when the middle
product g2*g3 has order prime to l, otherwise an l-cusp.  "l does not
divide g2*g3" is read as a statement about the order of the middle product;
reports repeat that reading.  An l' subgroup's order divides the l'-part of
|G|, so the closure deciding "<g, h> is an l'-group" stops past that part.
At other r a cusp is g-l' when some cyclic split of a tuple into at least
two arcs gives l' subgroups, that is when every entry's order is prime to
l, and is otherwise unclassified.  l must be a prime.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .errors import BudgetError, ValidationError, shown
from .groups import (
    DEFAULT_ORDER_BOUND,
    ClassVector,
    FiniteGroup,
    Frozen,
    GroupHom,
    _det_mod,
    _smallest_prime_factor,
    check_lattice,
    class_power,
    make_group,
    vector_descriptor,
)
from .nielsen import Mode, NielsenClassSet, enumerate_nielsen
from .braid import BraidOrbit, CuspOrbit, braid_orbits
# unused here; perfbench/tests/test_perfbench.py asserts that this module binds it
from .geometry import genus_of_component  # noqa: F401
from .lift import (
    CentralExtension,
    extend_action_to_heisenberg,
    heisenberg_obstruction,
    is_frattini_cover,
    lift_invariant,
)

# the companion matrix of x^2 + x + 1: the default order-3 action of vector towers
COMPANION = ((0, -1), (1, -1))

O_ELL_PRIME_READING = "o-ell-prime tests the order of the middle product g2*g3"


class TowerSpec(Frozen):
    """A tower family: which groups sit at each level.

    ``family`` is "vector" for (Z/l^(k+1))^t x| Z/q with the given integer
    ``action`` matrix, whose size is the rank t (default: the order-3 companion
    matrix of x^2 + x + 1, so t = 2), or "dihedral" for D_(l^(k+1)), with no
    action matrix and t = 1.  Level groups, ``make_group`` of their
    descriptors, and the level maps between their views are built on first use
    and kept by the spec.  A level 0 of order above ``DEFAULT_ORDER_BOUND``
    raises ``BudgetError`` before ell is factored.
    """

    def __init__(self, family: str, ell: int, action: tuple | None = None):
        if family not in ("vector", "dihedral"):
            raise ValidationError("tower family must be 'vector' or 'dihedral'")
        if ell < 2:
            raise ValidationError(f"tower prime expected, got {ell}")
        t = 1
        if family == "vector":
            action = COMPANION if action is None else action
            if not isinstance(action, (list, tuple)):
                raise ValidationError("action matrix must be a list of integer rows")
            t = len(action)
            action = check_lattice(t, ell, action)
        elif action is not None:
            raise ValidationError("dihedral towers take no action matrix")
        # level 0 has order 2*ell, or at least ell^t, named by formula: the bound
        # comes before the trial division that tests ell and any matrix work
        order0, formula = (2 * ell, "2*ell") if family == "dihedral" else (ell ** t, f"ell^{t}")
        if order0 > DEFAULT_ORDER_BOUND:
            raise BudgetError(f"level 0 of the {family} tower at ell = {shown(ell)} has order"
                              f" at least {formula}, above the order bound {DEFAULT_ORDER_BOUND}")
        if _smallest_prime_factor(ell) != ell:
            raise ValidationError(f"tower prime expected, got {ell}")
        if family == "dihedral":
            if ell == 2:
                raise ValidationError("dihedral towers need an odd prime")
        elif ell == 3:
            raise ValidationError(
                "ell = 3 is excluded for the vector family (the complement"
                " order collides with the prime; no canonical class lift)"
            )
        elif _det_mod([
            [(1 if i == j else 0) - action[i][j] for j in range(t)] for i in range(t)
        ], ell) == 0:
            raise ValidationError(
                "level-0 group has a Z/ell quotient (action fixes a line);"
                " tower groups must be ell-perfect"
            )
        vars(self).update(family=family, ell=ell, t=t, action=action, _levels={},
                          _level_maps={})

    def modulus(self, k: int) -> int:
        return self.ell ** (k + 1)

    def level_group(self, k: int) -> FiniteGroup:
        """``make_group`` of the level's descriptor, keeping level 0's complement order."""
        cache = self._levels
        if k not in cache:
            g = make_group(self.descriptor(k))
            if k > 0 and self.family == "vector":
                q0 = self.level_group(0).complement_order
                if g.complement_order != q0:
                    raise ValidationError("action matrix changes order between levels;"
                                          f" the tower needs M^{q0} = I mod {g.modulus}")
            cache[k] = g
        return cache[k]

    def descriptor(self, k: int) -> str:
        m = self.modulus(k)
        return f"D{m}" if self.family == "dihedral" else vector_descriptor(m, self.action)

    def level_map(self, k: int) -> GroupHom:
        """The level-k to level-(k-1) reduction on indexed views (k >= 1), a
        ``GroupHom`` sending generators to generators: the basis vectors and
        the complement, or the rotation and the reflection."""
        if k < 1:
            raise ValidationError(f"a level map needs k >= 1, got {k}")
        cache = self._level_maps
        if k not in cache:
            target = self.level_group(k - 1).indexed()
            cache[k] = GroupHom(self.level_group(k).indexed(), target, target.gens)
        return cache[k]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "ell": self.ell,
            "t": self.t,
            "action": [list(r) for r in self.action] if self.action else None,
        }


def lift_classes_to_level(spec: TowerSpec, c0: ClassVector, k: int) -> ClassVector:
    """The canonical lift of a level-0 class vector to level k.

    A level-0 class of order d prime to l lifts to the one level-k class of
    order-d elements that G_k's ``generation_quotient``, level 0, maps into
    it; another quotient is refused.  The kernel K of G_k -> G_0 is an
    l-group.  For order-d preimages y, y' of one element,
    <y> and <y'> complement K in K<y>, so by Schur-Zassenhaus <y>^c = <y'>
    for some c in K, and y^c = y' as both lie over one element; a power of
    any preimage has order d.  The rule checks that the class is unique, and
    finds the reps of ``c0`` in the quotient's data group by their data.
    """
    gk = spec.level_group(k)
    view, down = gk.generation_quotient
    if (g0 := view.data).descriptor != spec.descriptor(0):
        raise ValidationError(f"level {k} tests generation in {shown(g0.descriptor)}, not level 0")
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


class CuspClassification(NamedTuple):
    type: str
    hm: bool  # some member of the cusp has Harbater-Mumford shape
    double_identity: bool

    def to_dict(self) -> dict:
        return {
            "type": self.type,
            "flags": {"hm": self.hm, "double_identity": self.double_identity},
        }


def _subgroup_order_prime_to(group, gens, ell) -> bool:
    key = (ell, tuple(sorted(gens)))
    if key not in group._ell_prime:
        part = _ell_prime_part(group.order, ell)
        h = len(group.close(gens, stop_above=part))
        group._ell_prime[key] = h <= part and h % ell != 0
    return group._ell_prime[key]


def cusp_type(c: CuspOrbit, ell: int) -> CuspClassification:
    """Classify one cusp orbit: l-cusp / g-l' / o-l', plus shape flags, for a prime l."""
    if ell < 2 or _smallest_prime_factor(ell) != ell:
        raise ValidationError(f"cusp types need a prime ell, got {ell}")
    ni = c.ni
    ix, rep = ni.group.indexed(), ni.tuples[c.positions[0]]

    # Both shapes are entrywise, so kept by conjugation; at r = 4 also by sh^2
    # (a rotation) and by q1*q3^-1: its image (g1 g2 g1^-1, g1, g4, g3^g4) is HM
    # iff g2 = g1^-1 and g3 = g4^-1, and repeats iff g1 = g2, g1 = g4, g3 = g4
    # or (as g1 g2 g3 g4 = 1) g2 = g3.  So each member's rep decides its class,
    # and a cusp reads its members' flags off the set's columns.
    hm_column, repeat_column = ni.shapes
    hm = any(map(hm_column.__getitem__, c.positions))
    dbl = any(map(repeat_column.__getitem__, c.positions))
    if len(rep) == 4:
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
        # some cyclic split into >= 2 arcs generates l' subgroups iff the
        # split into single entries does: an arc's subgroup contains its
        # entries' cyclic subgroups, whose orders divide its order
        prime_to = all(ix.element_order(g) % ell != 0 for g in rep)
        kind = "g-ell-prime" if prime_to else "unclassified"
    return CuspClassification(type=kind, hm=hm, double_identity=dbl)


# ---------------------------------------------------------------------------
# levels and the component tree


class TowerLevel(Frozen):
    """One tower level: group, Nielsen set of the lifted classes, braid orbits."""

    def __init__(self, spec: TowerSpec, k: int, ni: NielsenClassSet,
                 orbits: tuple[BraidOrbit, ...]):
        vars(self).update(spec=spec, k=k, group=ni.group, ni=ni, orbits=orbits)

    @cached_property
    def extension(self) -> CentralExtension | None:
        """Heisenberg central extension over this level's group, carrying its
        lift invariant, or None where ``heisenberg_obstruction`` finds none."""
        group = self.group
        return None if heisenberg_obstruction(group) else extend_action_to_heisenberg(group)

    def to_dict(self) -> dict:
        orbits = []
        for o in self.orbits:
            rep, ext = o.genus_report, self.extension
            orbits.append({
                "label": o.label,
                "size": o.size,
                "genus": None if rep is None else rep.genus,
                "lift_invariant": None if ext is None else lift_invariant(ext, o.rep).label,
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
    cv = lift_classes_to_level(spec, c0, k)
    ni = enumerate_nielsen(spec.level_group(k), cv, mode)
    return TowerLevel(spec, k, ni, braid_orbits(ni))


class ComponentTree(NamedTuple):
    spec: TowerSpec
    levels: tuple[TowerLevel, ...]
    edges: tuple[tuple[tuple[int, str], tuple[int, str]], ...]
    truncated_at: int | None = None

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
    """Levels 0..k_max and the edges the level maps draw between their braid orbits.

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
        down, position = spec.level_map(child.k), parent.ni.position
        owner = {p: o.label for o in parent.orbits for p in o.positions}
        for o in child.orbits:
            image = parent.ni.canonical(tuple(map(down, child.ni.tuples[o.positions[0]])))
            if image not in position:
                raise ValidationError(
                    "projected orbit representative missed every lower orbit"
                )
            edges.append(((child.k, o.label), (parent.k, owner[position[image]])))
    return ComponentTree(spec, tuple(levels), tuple(edges), truncated)


# ---------------------------------------------------------------------------
# Branch Cycle Lemma


class BCLResult(NamedTuple):
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
    q = tuple(m for m in units if class_power(cv, m) == cv)
    return BCLResult(n_c=n_c, q=q, rational_union=len(q) == len(units))


# ---------------------------------------------------------------------------
# eventually-Frattini data


class FrattiniStep(NamedTuple):
    k: int
    frattini: object  # True / False / "skipped"
    kernel_order: int
    kernel_is_ell_group: bool

    def to_dict(self) -> dict:
        return self._asdict()


def eventually_frattini_report(spec: TowerSpec, k_max: int) -> tuple[FrattiniStep, ...]:
    """For each step G_k -> G_(k-1), is it a Frattini cover?

    Each step is read off ``spec.level_map(k)``: its kernel K, whether K
    is an l-group (|K| is a power of l, by Cauchy's theorem), and
    ``is_frattini_cover``.  A step whose check raises ``BudgetError`` before
    its walk is marked "skipped".  A level over the table cap raises
    ``BudgetError`` before its elements are listed.
    """
    steps = []
    for k in range(1, k_max + 1):
        hom = spec.level_map(k)
        n = len(hom.kernel())
        try:
            verdict: object = is_frattini_cover(hom)
        except BudgetError:
            verdict = "skipped"
        steps.append(FrattiniStep(k, verdict, n, _ell_prime_part(n, spec.ell) == 1))
    return tuple(steps)


def _ell_prime_part(n: int, ell: int) -> int:
    while n % ell == 0:
        n //= ell
    return n
