"""Checks on every job's JSON report, with answers that no seed changes.

Each oracle returns a list of problems; an empty list means the report
passed.  The expected values are classical (the modular curves X_0(p)) or
were fixed from the reports of the companion-matrix inputs, and hold for
every seed because the seeds only change the inputs up to isomorphism.
"""

from __future__ import annotations

import json


def _legendre_minus1(p: int) -> int:
    return 1 if p % 4 == 1 else -1


def _legendre_minus3(p: int) -> int:
    return 1 if p % 3 == 1 else -1


def _riemann_hurwitz(rep: dict, where: str) -> list[str]:
    """2(|O| + g - 1) = ind(gamma0) + ind(gamma1) + ind(gamma_inf)."""
    total = sum(rep["indices"].values())
    if 2 * (rep["degree"] + rep["genus"] - 1) != total:
        return [f"{where}: Riemann-Hurwitz fails (degree {rep['degree']}, "
                f"genus {rep['genus']}, index sum {total})"]
    if sum(rep["cusp_widths"]) != rep["degree"]:
        return [f"{where}: cusp widths do not sum to the degree"]
    return []


def _v25_shape(sizes, genera, where: str) -> list[str]:
    problems = []
    if sorted(sizes) != [60, 60, 60, 60, 72] or sum(sizes) != 312:
        problems.append(f"{where}: orbit sizes {sorted(sizes)}, expected "
                        "[60,60,60,60,72] on 312 classes")
    if genera is not None and any(g != 1 for g in genera):
        problems.append(f"{where}: genera {genera}, expected all 1")
    return problems


def v25_orbits(data: dict, expect: dict) -> list[str]:
    orbits = data["orbits"]
    problems = _v25_shape([o["size"] for o in orbits], None, "orbits")
    for o in orbits:
        if sum(c["width"] for c in o["cusps"]) != o["size"]:
            problems.append(f"orbits: cusps of {o['orbit_label']} do not "
                            "partition it")
    return problems


def v25_genus(data: dict, expect: dict) -> list[str]:
    reps = data["orbits"]
    problems = _v25_shape([r["degree"] for r in reps],
                          [r["genus"] for r in reps], "genus")
    for r in reps:
        problems += _riemann_hurwitz(r, f"genus {r['orbit']}")
    return problems


def v25_shinc(data: dict, expect: dict) -> list[str]:
    """Each block is symmetric and its row sums are the cusp widths."""
    blocks = data["blocks"]
    reps = [b["genus_report"] for b in blocks]
    problems = _v25_shape([r["degree"] for r in reps],
                          [r["genus"] for r in reps], "shinc")
    for b in blocks:
        mat = b["matrix"]
        widths = [int(label.rsplit("^", 1)[1]) for label in b["cusps"]]
        n = len(mat)
        if any(mat[i][j] != mat[j][i] for i in range(n) for j in range(n)):
            problems.append(f"shinc {b['orbit']}: matrix is not symmetric")
        if [sum(row) for row in mat] != widths:
            problems.append(f"shinc {b['orbit']}: row sums "
                            f"{[sum(row) for row in mat]} != widths {widths}")
        problems += _riemann_hurwitz(b["genus_report"], f"shinc {b['orbit']}")
    return problems


def dihedral_genus(data: dict, expect: dict) -> list[str]:
    """D_p absolute-reduced is X_0(p): degree p+1, cusps of width 1 and p,
    genus (p+1)/12 - nu2/4 - nu3/3, with nu3 fixed points of gamma0 and nu2
    of gamma1."""
    p = expect["p"]
    reps = data["orbits"]
    if len(reps) != 1:
        return [f"D{p}: {len(reps)} orbits, expected 1"]
    rep = reps[0]
    nu2 = 1 + _legendre_minus1(p)
    nu3 = 1 + _legendre_minus3(p)
    twelve_g = p + 1 - 3 * nu2 - 4 * nu3
    problems = _riemann_hurwitz(rep, f"D{p}")
    if rep["degree"] != p + 1:
        problems.append(f"D{p}: degree {rep['degree']}, expected {p + 1}")
    if sorted(rep["cusp_widths"]) != [1, p]:
        problems.append(f"D{p}: cusp widths {rep['cusp_widths']}, expected 1 and {p}")
    if 12 * rep["genus"] != twelve_g:
        problems.append(f"D{p}: genus {rep['genus']}, expected {twelve_g / 12}")
    fixed = rep["fixed_points"]
    if (fixed["gamma0"], fixed["gamma1"]) != (nu3, nu2):
        problems.append(f"D{p}: gamma0/gamma1 fixed points "
                        f"{fixed['gamma0']}/{fixed['gamma1']}, expected {nu3}/{nu2}")
    return problems


def _lift_pattern(orbits, ell: int) -> list[str]:
    """One orbit has trivial lift invariant; the others take ell-1 values."""
    labels = [o["lift_invariant"] for o in orbits]
    nontrivial = [x for x in labels if x != "1"]
    if labels.count("1") != 1 or None in labels or \
            len(set(nontrivial)) != ell - 1 or len(nontrivial) != ell - 1:
        return [f"l={ell}: lift invariants {labels}, expected one trivial and "
                f"{ell - 1} distinct nontrivial"]
    return []


_VECTOR_LEVEL0 = {
    5: ((75, 312), [(60, 1)] * 4 + [(72, 1)]),
    7: ((147, 1152), [(144, 3)] + [(168, 5)] * 6),
}


def vector_level0(data: dict, expect: dict) -> list[str]:
    ell = expect["ell"]
    (order, count), shape = _VECTOR_LEVEL0[ell]
    levels = data["levels"]
    if len(levels) != 1:
        return [f"l={ell}: {len(levels)} levels, expected 1"]
    lvl = levels[0]
    problems = []
    if (lvl["group_order"], lvl["ni_count"]) != (order, count):
        problems.append(f"l={ell}: |G|={lvl['group_order']} with "
                        f"{lvl['ni_count']} classes, expected {order} and {count}")
    got = sorted((o["size"], o["genus"]) for o in lvl["orbits"])
    if got != shape:
        problems.append(f"l={ell}: (size, genus) {got}, expected {shape}")
    return problems + _lift_pattern(lvl["orbits"], ell)


def tower_levels(data: dict, expect: dict) -> list[str]:
    """Level shapes, one parent edge per child orbit with a size that is a
    multiple of the parent's, and (when asked) Frattini steps of kernel 4."""
    levels = data["levels"]
    shape = [[lvl["group_order"], lvl["ni_count"], len(lvl["orbits"])]
             for lvl in levels]
    problems = []
    if shape != expect["levels"]:
        problems.append(f"tower: levels {shape}, expected {expect['levels']}")
    size = {(lvl["k"], o["label"]): o["size"]
            for lvl in levels for o in lvl["orbits"]}
    for lvl in levels:
        for o in lvl["orbits"]:
            if sum(c["width"] for c in o["cusps"]) != o["size"]:
                problems.append(f"tower: cusps of {lvl['k']}:{o['label']} "
                                "do not partition it")
    parents: dict = {}
    for (k, label), (pk, plabel) in data["edges"]:
        parents.setdefault((k, label), []).append((pk, plabel))
    for key, sz in size.items():
        if key[0] == 0:
            continue
        got = parents.get(key, [])
        if len(got) != 1 or got[0][0] != key[0] - 1 or got[0] not in size:
            problems.append(f"tower: orbit {key} has parent edges {got}")
        elif sz % size[got[0]]:
            problems.append(f"tower: orbit {key} of size {sz} over parent "
                            f"of size {size[got[0]]}")
    if expect["frattini"]:
        steps = data.get("frattini_steps", [])
        if [(s["k"], s["kernel_order"], s["frattini"]) for s in steps] != \
                [(k, 4, True) for k in range(1, len(expect["levels"]))]:
            problems.append(f"tower: Frattini steps {steps}")
    return problems


ORACLES = {
    "v25-orbits": v25_orbits,
    "v25-shinc": v25_shinc,
    "v25-genus": v25_genus,
    "dihedral-genus": dihedral_genus,
    "vector-level0": vector_level0,
    "tower-levels": tower_levels,
}


def check(job, report: bytes) -> list[str]:
    """Problems with one job's report; a report that is not the expected
    JSON counts as one problem rather than raising."""
    try:
        data = json.loads(report)
        return ORACLES[job.oracle](data, job.expect)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{job.name}: unreadable report ({type(exc).__name__}: {exc})"]
