"""Seeded inputs and the fixed job lists of the three workloads.

A seed picks a random SL2(Z) conjugate M' = P M P^-1 of the order-3
companion matrix M = [[0,-1],[1,-1]] and the order in which a run sends its
jobs.  Every vector-family job uses M', so all seeds give isomorphic inputs:
the counts, sizes, genera and invariant patterns the oracles check are the
same for every seed, while the descriptor and ``--action`` strings the
program sees differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

COMPANION = ((0, -1), (1, -1))
CLASSES_3 = "[3a,3a,3b,3b]"
CLASSES_2 = "[2a,2a,2a,2a]"
DIHEDRAL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
WORKLOADS = ("lattice-level0", "modular-curves", "tower-levels")

# elementary generators of SL2(Z) and their inverses
_ELEMENTARY = (
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
)
_MAX_ENTRY = 12


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` for ``hurwitz.cli.run`` and the oracle that
    checks its report.  ``expect`` holds the oracle's parameters."""

    name: str
    argv: tuple[str, ...]
    oracle: str
    expect: dict


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _sl2_inverse(p):
    (a, b), (c, d) = p
    return ((d, -b), (-c, a))


def _det(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def conjugated_action(rng: random.Random) -> tuple:
    """A random conjugate P M P^-1 of the companion matrix, P in SL2(Z).

    P is a product of elementary factors; conjugates equal to M itself or
    with large entries are redrawn, so every seed's matrix is short and
    differs from the companion matrix.
    """
    identity = ((1, 0), (0, 1))
    while True:
        p = identity
        for _ in range(rng.randint(3, 6)):
            p = _mat_mul(p, rng.choice(_ELEMENTARY))
        m = _mat_mul(_mat_mul(p, COMPANION), _sl2_inverse(p))
        if m != COMPANION and max(abs(x) for row in m for x in row) <= _MAX_ENTRY:
            check_action(m)
            return m


def check_action(m) -> None:
    """M'^3 = I over Z and det(I - M') is a unit mod every tower prime used."""
    if _mat_mul(_mat_mul(m, m), m) != ((1, 0), (0, 1)):
        raise ValueError(f"action {m} does not have order 3 over Z")
    i_minus = ((1 - m[0][0], -m[0][1]), (-m[1][0], 1 - m[1][1]))
    for ell in (2, 5, 7):
        if _det(i_minus) % ell == 0:
            raise ValueError(f"action {m} fixes a line mod {ell}")


def matrix_text(m) -> str:
    return json.dumps([list(row) for row in m], separators=(",", ":"))


def _vector_group(ell: int, m) -> str:
    return f"V(2,{ell}):M={matrix_text(m)}"


def _json(*argv: str) -> tuple[str, ...]:
    return (*argv, "--format", "json")


def lattice_level0(m) -> list[Job]:
    group = _vector_group(5, m)
    jobs = [
        Job(f"{cmd}-V(2,5)",
            _json(cmd, "--group", group, "--classes", CLASSES_3,
                  "--mode", "inner-reduced"),
            f"v25-{cmd}", {})
        for cmd in ("orbits", "shinc", "genus")
    ]
    for ell in (5, 7):
        jobs.append(Job(
            f"tower-vector-l{ell}-k0",
            _json("tower", "--family", "vector", "--ell", str(ell),
                  "--action", matrix_text(m), "--classes", CLASSES_3,
                  "--k-max", "0"),
            "vector-level0", {"ell": ell},
        ))
    return jobs


def modular_curves() -> list[Job]:
    jobs = [
        Job(f"genus-D{p}",
            _json("genus", "--group", f"D{p}", "--classes", CLASSES_2,
                  "--mode", "abs-reduced"),
            "dihedral-genus", {"p": p})
        for p in DIHEDRAL_PRIMES
    ]
    jobs.append(Job(
        "tower-dihedral-l5-k1",
        _json("tower", "--family", "dihedral", "--ell", "5",
              "--classes", CLASSES_2, "--mode", "abs-reduced", "--k-max", "1"),
        "tower-levels", {"levels": [[10, 6, 1], [50, 30, 1]], "frattini": False},
    ))
    return jobs


def tower_levels(m) -> list[Job]:
    return [Job(
        "tower-vector-l2-k2",
        _json("tower", "--family", "vector", "--ell", "2",
              "--action", matrix_text(m), "--classes", CLASSES_3,
              "--k-max", "2", "--frattini"),
        "tower-levels",
        {"levels": [[12, 15, 2], [48, 120, 4], [192, 1920, 9]],
         "frattini": True},
    )]


def jobs_for(workload: str, seed: int) -> tuple[tuple, list[Job]]:
    """The seed's action matrix and the workload's jobs in the seed's order."""
    rng = random.Random(seed)
    m = conjugated_action(rng)
    if workload == "lattice-level0":
        jobs = lattice_level0(m)
    elif workload == "modular-curves":
        jobs = modular_curves()
    elif workload == "tower-levels":
        jobs = tower_levels(m)
    else:
        raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
    rng.shuffle(jobs)
    return m, jobs
