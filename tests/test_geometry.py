"""Genus reports and sh-incidence, checked against classical modular data.

The dihedral covers of D_N here are the modular curves X_0(N), so
Gamma_0(N) supplies an independent oracle: index, cusp widths, elliptic
point counts, and genus.  Inner-reduced, they are X_1(N), checked against
the degree, cusp count and genus of Gamma_1(N).
"""

from math import gcd, prod

import pytest

from hurwitz.braid import braid_orbits
from hurwitz.errors import ValidationError
from hurwitz.geometry import genus_of_component, moduli_flags, sh_incidence
from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import Mode, canonicalize, enumerate_nielsen
from reference_routines import inner_absolute_fibers


def legendre(a, p):
    v = pow(a % p, (p - 1) // 2, p)
    return v - p if v > 1 else v


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def x0_oracle(n):
    """(index, genus, nu2, nu3, cusp widths) of Gamma_0(N), N odd, from the
    classical formulas: index psi(N) = N prod(1 + 1/p), one cusp of width
    N / gcd(d^2, N) for each of the phi(gcd(d, N/d)) cusps over a divisor d,
    nu2 = prod(1 + (-1/p)), nu3 = prod(1 + (-3/p)) unless 9 | N,
    and genus 1 + psi/12 - nu2/4 - nu3/3 - cusps/2."""
    assert n % 2
    primes = [p for p in range(3, n + 1) if n % p == 0 and is_prime(p)]
    index = n
    for p in primes:
        index = index * (p + 1) // p
    nu2 = prod(1 + legendre(-1, p) for p in primes)
    nu3 = 0 if n % 9 == 0 else prod(1 + legendre(-3, p) for p in primes)
    widths = []
    for d in (d for d in range(1, n + 1) if n % d == 0):
        e = gcd(d, n // d)
        phi = sum(gcd(a, e) == 1 for a in range(1, e + 1))
        widths += [n // gcd(d * d, n)] * phi
    genus_12 = 12 + index - 3 * nu2 - 4 * nu3 - 6 * len(widths)
    assert genus_12 % 12 == 0 and sum(widths) == index
    return index, genus_12 // 12, nu2, nu3, sorted(widths)


def phi(n):
    return sum(gcd(a, n) == 1 for a in range(1, n + 1))


def x1_oracle(n):
    """(degree, cusps, genus) of X_1(N), N >= 5 odd: the index of +-Gamma_1(N)
    in PSL2(Z), N^2 prod(1 - 1/p^2) / 2, its (1/2) sum over d | N of
    phi(d) phi(N/d) cusps, and genus 1 + index/12 - cusps/2, as Gamma_1(N)
    has no elliptic points for N >= 4 (Diamond-Shurman, ch. 3)."""
    assert n % 2 and n >= 5
    primes = [p for p in range(3, n + 1) if n % p == 0 and is_prime(p)]
    degree = n * n
    for p in primes:
        degree = degree * (p * p - 1) // (p * p)
    degree //= 2
    cusps, odd = divmod(sum(phi(d) * phi(n // d) for d in range(1, n + 1) if n % d == 0), 2)
    genus_12 = 12 + degree - 6 * cusps
    assert not odd and genus_12 % 12 == 0
    return degree, cusps, genus_12 // 12


def dihedral_component(ell):
    g = make_group(f"D{ell}")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    ni = enumerate_nielsen(g, cv, Mode.ABSOLUTE_REDUCED)
    orbits = braid_orbits(ni)
    assert len(orbits) == 1
    return g, orbits[0]


# D_N abs-reduced against X_0(N) for every prime N up to 251 and some prime
# powers; D625 takes about 1 s
@pytest.mark.parametrize("ell", [
    *(p for p in range(5, 252) if is_prime(p)), 25, 27, 49, 125, 343, 625,
])
def test_dihedral_matches_gamma0(ell):
    index, genus, nu2, nu3, widths = x0_oracle(ell)
    _, orbit = dihedral_component(ell)
    report = genus_of_component(orbit)
    assert report.degree == index
    assert report.genus == genus
    assert sorted(report.cusp_widths) == widths
    assert report.fixed_points == (nu3, nu2)  # gamma0 has order 3, gamma1 order 2


# the classical values of X_1(N), pinned against the oracle itself
X1_DEGREE_GENUS = {5: (12, 0), 7: (24, 0), 9: (36, 0), 11: (60, 1), 13: (84, 2),
                   25: (300, 12), 27: (324, 13), 49: (1176, 69)}


@pytest.mark.parametrize("n", sorted(X1_DEGREE_GENUS))
def test_dihedral_inner_reduced_matches_gamma1(n):
    """D_N inner-reduced is X_1(N): one braid orbit with the degree, cusp
    count and genus of X_1(N).  The search, the q2 and sh lookups in the
    Klein map and the cusps all feed this count."""
    degree, cusps, genus = x1_oracle(n)
    assert (degree, genus) == X1_DEGREE_GENUS[n]
    g = make_group(f"D{n}")
    ni = enumerate_nielsen(g, parse_class_vector(g, "[2a,2a,2a,2a]"), Mode.INNER_REDUCED)
    orbits = braid_orbits(ni)
    assert len(orbits) == 1
    report = genus_of_component(orbits[0])
    assert (report.degree, len(report.cusp_widths), report.genus) == (degree, cusps, genus)


@pytest.mark.parametrize("n", [5, 7, 11, 13, 25, 27, 49])
def test_inner_classes_cover_absolute_ones_with_the_degree_of_x1_over_x0(n):
    """Each absolute-reduced class of D_N has phi(N)/2 inner-reduced classes
    over it, the degree of X_1(N) -> X_0(N); each inner class is placed by an
    abs-reduced ``canonical`` lookup."""
    g = make_group(f"D{n}")
    report = inner_absolute_fibers(g, parse_class_vector(g, "[2a,2a,2a,2a]"))
    assert set(report.class_fibers) == {phi(n) // 2}
    assert report.inner_count == x1_oracle(n)[0]


def test_a4_genus_reports(a4_orbits):
    reports = [genus_of_component(o) for o in a4_orbits]
    assert {r.indices for r in reports} == {(4, 3, 3), (6, 4, 6)}
    assert all(r.genus == 0 for r in reports)
    assert all(r.fixed_points[0] == 0 for r in reports)  # gamma0 never fixes
    by_size = {r.degree: r for r in reports}
    assert by_size[9].fixed_points[1] == 1
    assert by_size[6].fixed_points[1] == 0


def test_genus_double_count_identity(a4_orbits, d5_orbits):
    for o in list(a4_orbits) + list(d5_orbits):
        r = genus_of_component(o)
        assert 2 * (r.degree + r.genus - 1) == sum(r.indices)


def test_genus_requires_reduced_mode(a4, a4_cv):
    inner = enumerate_nielsen(a4, a4_cv, Mode.INNER)
    orbit = braid_orbits(inner)[0]
    with pytest.raises(ValidationError):
        genus_of_component(orbit)


def same_block_up_to_width_alignment(block, widths, target, target_widths):
    """Match rows/columns by sorting on (width, row pattern) both ways."""
    if sorted(widths) != sorted(target_widths):
        return False
    import itertools

    n = len(widths)
    for perm in itertools.permutations(range(n)):
        if [widths[i] for i in perm] != list(target_widths):
            continue
        if all(
            block[perm[i]][perm[j]] == target[i][j]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def test_a4_sh_incidence_blocks(a4_orbits):
    table = sh_incidence(a4_orbits)
    assert len(table.blocks) == 2
    minus = table.blocks[0]  # orbit O1, size 6
    plus = table.blocks[1]
    assert minus.matrix == ((2, 1, 1), (1, 0, 0), (1, 0, 0))
    widths = [c.width for c in a4_orbits[1].cusps()]
    assert same_block_up_to_width_alignment(
        plus.matrix, widths, [[1, 1, 2], [1, 0, 1], [2, 1, 0]], [4, 2, 3]
    )


def test_sh_incidence_rows_sum_to_widths(a4_orbits, d5_orbits):
    for orbits in (a4_orbits, d5_orbits):
        table = sh_incidence(orbits)
        for block, orbit in zip(table.blocks, orbits):
            widths = [c.width for c in orbit.cusps()]
            assert [sum(row) for row in block.matrix] == widths
            assert block.matrix == tuple(zip(*block.matrix))  # symmetric


def test_off_block_entries_vanish(a4_orbits):
    table = sh_incidence(a4_orbits)
    full = table.matrix
    assert sum(map(sum, full)) == sum(o.size for o in a4_orbits)
    n0 = len(a4_orbits[0].cusps())
    assert not any(v for row in full[:n0] for v in row[n0:])
    assert not any(v for row in full[n0:] for v in row[:n0])


@pytest.mark.parametrize("desc,classes,mode", [
    ("D125", "[2a,2a,2a,2a]", Mode.INNER_REDUCED),  # X_1(125): 180 cusps
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("A4", "[3a,3a,3b,3b]", Mode.ABSOLUTE_REDUCED),
])
def test_sh_incidence_matches_the_pairwise_rule(desc, classes, mode):
    """Entry (i, j) is the number of members of cusp i in the sh-image of
    cusp j, intersected pair by pair over every pair of cusps."""
    g = make_group(desc)
    ni = enumerate_nielsen(g, parse_class_vector(g, classes), mode)
    orbits = braid_orbits(ni)
    sh = ni.moves()[2]
    sets = [frozenset(c.positions) for o in orbits for c in o.cusps()]
    images = [frozenset(sh[p] for p in s) for s in sets]
    assert sh_incidence(orbits).matrix == tuple(
        tuple(len(a & b) for b in images) for a in sets
    )


def test_sh_incidence_render(a4_orbits):
    text = sh_incidence(a4_orbits).render_text()
    assert "orbit O1: degree 6, genus 0" in text
    assert "O_{2,1}^4" in text


def test_a4_moduli_flags(a4, a4_orbits):
    for o in a4_orbits:
        flags = moduli_flags(a4, o)
        assert flags.inner_fine is True
        assert flags.b_fine_reduced is False
        assert flags.fine_reduced is False


MODULI_CASES = [
    ("A4", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("D5", "[2a,2a,2a,2a]", Mode.INNER_REDUCED),
    ("V(2,5):M=[[0,-1],[1,-1]]", "[3a,3a,3b,3b]", Mode.INNER_REDUCED),
    ("D37", "[2a,2a,2a,2a]", Mode.ABSOLUTE_REDUCED),
]


@pytest.fixture(scope="module")
def moduli_cases():
    out = []
    for desc, classes, mode in MODULI_CASES:
        g = make_group(desc)
        cv = parse_class_vector(g, classes)
        out.append((g, cv, braid_orbits(enumerate_nielsen(g, cv, mode))))
    return out


def test_b_fine_matches_the_reduction_orbit_reference(moduli_cases, reduction_orbit):
    """A reduced class is b-fine when its four Klein images, read off the
    Cayley table, are four inner classes; the reference builds the images
    with the generic braid twists and canonicalizes them on data."""
    seen = set()
    for g, cv, orbits in moduli_cases:
        for o in orbits:
            reference = all(
                len({canonicalize(g, u, Mode.INNER, cv) for u in reduction_orbit(g, t)}) == 4
                for t in o.members
            )
            assert moduli_flags(g, o).b_fine_reduced == reference, (g.name, o.label)
            seen.add(reference)
    assert seen == {True, False}


def test_cusp_widths_are_the_cycle_type_of_gamma_inf(moduli_cases):
    """The widths are read off gamma_inf without building the cusp orbits;
    they equal the widths of the q2 orbits, in the same order."""
    for _g, _cv, orbits in moduli_cases:
        for o in orbits:
            widths = genus_of_component(o).cusp_widths
            assert getattr(o, "_cusps", None) is None
            assert widths == tuple(c.width for c in o.cusps())
