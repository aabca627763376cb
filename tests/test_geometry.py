"""Genus reports and sh-incidence, checked against classical modular data.

The dihedral covers here are the standard degree ell+1 modular-curve
pictures, so Gamma_0(ell) supplies an independent oracle: index, cusp
widths, elliptic point counts, and genus.
"""

import pytest

from hurwitz.braid import braid_orbits
from hurwitz.errors import ValidationError
from hurwitz.geometry import genus_of_component, moduli_flags, sh_incidence
from hurwitz.groups import make_group, parse_class_vector
from hurwitz.nielsen import Mode, enumerate_nielsen


def legendre(a, p):
    v = pow(a % p, (p - 1) // 2, p)
    return v - p if v > 1 else v


def gamma0_oracle(ell):
    """(index, genus, nu2, nu3) of Gamma_0(ell) for an odd prime ell."""
    index = ell + 1
    nu2 = 1 + legendre(-1, ell)
    nu3 = 1 + legendre(-3, ell)
    genus_12 = 12 + index - 3 * nu2 - 4 * nu3 - 12  # two cusps
    assert genus_12 % 12 == 0
    return index, genus_12 // 12, nu2, nu3


def dihedral_component(ell):
    g = make_group(f"D{ell}")
    cv = parse_class_vector(g, "[2a,2a,2a,2a]")
    ni = enumerate_nielsen(g, cv, Mode.ABSOLUTE_REDUCED)
    orbits = braid_orbits(ni)
    assert len(orbits) == 1
    return g, orbits[0]


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_dihedral_matches_gamma0(ell):
    index, genus, nu2, nu3 = gamma0_oracle(ell)
    _, orbit = dihedral_component(ell)
    report = genus_of_component(orbit)
    assert report.degree == index
    assert report.genus == genus
    assert sorted(report.cusp_widths) == [1, ell]
    assert report.fixed_points == (nu3, nu2)  # gamma0 has order 3, gamma1 order 2


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
    assert minus.matrix.tolist() == [[2, 1, 1], [1, 0, 0], [1, 0, 0]]
    widths = [c.width for c in a4_orbits[1].cusps()]
    assert same_block_up_to_width_alignment(
        plus.matrix.tolist(), widths, [[1, 1, 2], [1, 0, 1], [2, 1, 0]], [4, 2, 3]
    )


def test_sh_incidence_rows_sum_to_widths(a4_orbits, d5_orbits):
    for orbits in (a4_orbits, d5_orbits):
        table = sh_incidence(orbits)
        for block, orbit in zip(table.blocks, orbits):
            widths = [c.width for c in orbit.cusps()]
            assert [sum(row) for row in block.matrix.tolist()] == widths
            mat = block.matrix
            assert (mat == mat.T).all()


def test_off_block_entries_vanish(a4_orbits):
    table = sh_incidence(a4_orbits)
    full = table.matrix
    assert int(full.sum()) == sum(o.size for o in a4_orbits)
    n0 = len(a4_orbits[0].cusps())
    assert not full[:n0, n0:].any()
    assert not full[n0:, :n0].any()


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
