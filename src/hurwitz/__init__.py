"""Branched-cover bookkeeping for small finite groups.

The pipeline: describe a group and a multiset of conjugacy classes, list the
generating product-one tuples up to an equivalence (Nielsen classes), act on
them with the Hurwitz braid moves, and read geometry off the orbits — cusp
widths, incidence matrices, component genera, lift invariants for central
extensions, and level-by-level tower data.
"""

from .errors import BudgetError, ValidationError
from .groups import (
    ClassVector,
    ConjugacyClass,
    FiniteGroup,
    GroupHom,
    PermutationGroup,
    class_power,
    make_group,
    normalizer_in_sym,
    parse_class_vector,
)
from .nielsen import Mode, NielsenClassSet, canonicalize, enumerate_nielsen
from .braid import (
    BraidOrbit,
    CuspOrbit,
    apply_qi,
    apply_sh,
    braid_orbits,
    cusp_orbits,
    verify_braid_relations,
)
from .geometry import GenusReport, ShIncidence, genus_of_component, moduli_flags, sh_incidence
from .lift import (
    CentralExtension,
    extend_action_to_heisenberg,
    is_frattini_cover,
    lift_invariant,
    same_order_lift,
    spin_cover,
)
from .tower import (
    TowerSpec,
    bcl,
    build_level,
    component_tree,
    cusp_type,
    eventually_frattini_report,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ValidationError",
    "ClassVector",
    "ConjugacyClass",
    "FiniteGroup",
    "PermutationGroup",
    "class_power",
    "make_group",
    "normalizer_in_sym",
    "parse_class_vector",
    "Mode",
    "NielsenClassSet",
    "canonicalize",
    "enumerate_nielsen",
    "BraidOrbit",
    "CuspOrbit",
    "apply_qi",
    "apply_sh",
    "braid_orbits",
    "cusp_orbits",
    "verify_braid_relations",
    "GenusReport",
    "ShIncidence",
    "genus_of_component",
    "moduli_flags",
    "sh_incidence",
    "CentralExtension",
    "GroupHom",
    "extend_action_to_heisenberg",
    "is_frattini_cover",
    "lift_invariant",
    "same_order_lift",
    "spin_cover",
    "TowerSpec",
    "bcl",
    "build_level",
    "component_tree",
    "cusp_type",
    "eventually_frattini_report",
    "__version__",
]
