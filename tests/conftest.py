import pytest

from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import Mode, _qi, _qi_inv, enumerate_nielsen
from hurwitz.braid import braid_orbits
from hurwitz.tower import TowerSpec, lift_classes_to_level


@pytest.fixture(scope="session")
def a4():
    return make_group("A4")


@pytest.fixture(scope="session")
def a4_cv(a4):
    return parse_class_vector(a4, "[3a,3a,3b,3b]")


@pytest.fixture(scope="session")
def a4_ni(a4, a4_cv):
    return enumerate_nielsen(a4, a4_cv, Mode.INNER_REDUCED)


@pytest.fixture(scope="session")
def a4_orbits(a4_ni):
    # sorted by (size, least member): O1 has size 6, O2 has size 9
    return braid_orbits(a4_ni)


@pytest.fixture(scope="session")
def d5_orbits():
    d5 = make_group("D5")
    cv = parse_class_vector(d5, "[2a,2a,2a,2a]")
    ni = enumerate_nielsen(d5, cv, Mode.ABSOLUTE_REDUCED)
    return braid_orbits(ni)


@pytest.fixture(scope="session")
def group_and_classes():
    """(group, class vector) for a group descriptor and class labels; the
    name "vector l=2 level 2" stands for the level-2 group of the vector
    tower at ell = 2 and the lift of the classes from its level 0."""
    def build(desc, classes):
        if desc == "vector l=2 level 2":
            spec = TowerSpec("vector", 2)
            cv0 = parse_class_vector(spec.level_group(0), classes)
            return spec.level_group(2), lift_classes_to_level(spec, cv0, 2)
        g = make_group(desc)
        return g, parse_class_vector(g, classes)
    return build


@pytest.fixture(scope="session")
def reduction_orbit():
    """The four images of a tuple under the rank-4 reduction group {1,
    q1*q3^-1, sh^2, both}, built from the generic braid twists; just [t]
    when r != 4.  The reference for ``ConjAction.klein_images``, which reads
    q1*q3^-1 off the Cayley table."""
    def images(group, t):
        if len(t) != 4:
            return [t]
        a = _qi(group, _qi_inv(group, t, 3), 1)
        return [t, a, t[2:] + t[:2], a[2:] + a[:2]]
    return images
