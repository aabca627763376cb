"""Command-line frontend: enumeration, orbits, geometry, lifts, towers.

Configuration precedence is flags over config-file values over defaults; the
config file is JSON whose keys are the flag names (dashes or underscores).
Reports are deterministic for fixed inputs and version: JSON is emitted with
sorted keys, CSV with RFC-4180 quoting, and every report embeds the input
description and the package version.  Exit codes: 0 success, 2 invalid
input, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import __version__
from .errors import BudgetError, ValidationError
from .groups import make_group, parse_class_vector
from .nielsen import Mode, enumerate_nielsen
from .braid import braid_orbits, verify_braid_relations
from .geometry import genus_of_component, moduli_flags, sh_incidence
from .lift import (
    CentralExtension,
    GroupHom,
    extend_action_to_heisenberg,
    lift_invariant,
    spin_cover,
)
from .tower import TowerSpec, bcl, component_tree, eventually_frattini_report

_DEFAULTS = {
    "mode": "inner-reduced",
    "format": "text",
    "order_bound": None,
    "orbit_cap": None,
    "seed": 0,
    "sample_size": 25,
    "k_max": 1,
    "t": 2,
    "suite": "braid-relations",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Nielsen classes, braid orbits, and Modular Tower levels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", help="group descriptor, e.g. A4, D5, SL2(3)")
            p.add_argument("--classes", help="class vector, e.g. [3a,3a,3b,3b]")
        p.add_argument("--mode", help="raw | inner | absolute | inner-reduced | absolute-reduced")
        p.add_argument("--format", dest="format", help="text | json | csv")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--order-bound", type=int, dest="order_bound")
        p.add_argument("--orbit-cap", type=int, dest="orbit_cap")

    p = sub.add_parser("enumerate", help="list Nielsen-class representatives")
    common(p)

    p = sub.add_parser("orbits", help="braid orbits and their cusps")
    common(p)
    p.add_argument("--members-file", dest="members_file",
                   help="also write full orbit membership to this JSON file")

    p = sub.add_parser("shinc", help="sh-incidence matrix with genus data")
    common(p)

    p = sub.add_parser("genus", help="genus reports and moduli flags per orbit")
    common(p)

    p = sub.add_parser("lift", help="lift invariants of braid orbits under a cover")
    common(p)
    p.add_argument("--cover", help="spin4 | spin5 | heis(<l>) | hom:<file>")

    p = sub.add_parser("tower", help="component tree of a modular-tower family")
    common(p, group=False)
    p.add_argument("--classes", help="level-0 class vector, e.g. [3a,3a,3b,3b]")
    p.add_argument("--family", help="vector | dihedral")
    p.add_argument("--ell", type=int, help="the tower prime")
    p.add_argument("--t", type=int, dest="t", help="lattice rank (vector family)")
    p.add_argument("--action", help="integer action matrix as JSON, e.g. [[0,-1],[1,-1]]")
    p.add_argument("--k-max", type=int, dest="k_max", help="deepest level to build")
    p.add_argument("--frattini", action="store_true",
                   help="include per-step Frattini-cover results")

    p = sub.add_parser("bcl", help="Branch-Cycle-Lemma field data")
    common(p)

    p = sub.add_parser("check", help="property suites with witnesses")
    common(p)
    p.add_argument("--suite", help="braid-relations")
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.add_argument("--seed", type=int)

    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


_INT_KEYS = ("order_bound", "orbit_cap", "k_max", "t", "ell", "seed", "sample_size")


def _resolve(args: argparse.Namespace) -> dict:
    """Apply precedence: explicit flag > config file > default."""
    config = _load_config(getattr(args, "config", None))
    known = set(vars(args)) | set(_DEFAULTS)
    for key in config:
        if key not in known:
            raise ValidationError(f"unknown config key: {key!r}")
    out = {}
    for key, flag_value in vars(args).items():
        if key == "config":
            continue
        if flag_value is not None and flag_value is not False:
            out[key] = flag_value
        elif config.get(key) is not None:  # a null value counts as unset
            out[key] = config[key]
        else:
            out[key] = _DEFAULTS.get(key, flag_value)
    for key in _INT_KEYS:
        value = out.get(key)
        if value is not None and type(value) is not int:
            raise ValidationError(
                f"{key.replace('_', '-')} must be an integer, got {value!r}"
            )
    if out.get("format") not in (None, "text", "json", "csv"):
        raise ValidationError(f"unknown format: {out['format']!r}")
    for key in ("order_bound", "orbit_cap"):
        if out.get(key) is not None and out[key] <= 0:
            raise ValidationError(f"{key.replace('_', '-')} must be positive")
    return out


def _need(cfg: dict, key: str, hint: str):
    if cfg.get(key) in (None, ""):
        raise ValidationError(f"missing --{key.replace('_', '-')} ({hint})")
    return cfg[key]


def _group_and_classes(cfg: dict):
    group_kw = {}
    if cfg.get("order_bound"):
        group_kw["order_bound"] = cfg["order_bound"]
    group = make_group(_need(cfg, "group", "group descriptor"), **group_kw)
    cv = parse_class_vector(group, _need(cfg, "classes", "class vector"))
    mode = Mode.parse(cfg["mode"])
    return group, cv, mode


def _inputs_block(cfg: dict, keys) -> dict:
    return {
        k: cfg[k]
        for k in keys
        if cfg.get(k) not in (None, False)
    }


def _envelope(cfg: dict, keys, data: dict) -> dict:
    return {"version": __version__, "inputs": _inputs_block(cfg, keys), **data}


# ---------------------------------------------------------------------------
# output plumbing


def emit_report(data, fmt: str, path: str | None) -> None:
    """Serialize one report; identical inputs give identical bytes."""
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        for row in data:
            writer.writerow(row)
        text = buf.getvalue()
    elif fmt == "text":
        text = data if data.endswith("\n") else data + "\n"
    else:
        raise ValidationError(f"unknown format: {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _text_header(cfg: dict, keys) -> list[str]:
    inputs = " ".join(
        f"{k}={cfg[k]}" for k in keys if cfg.get(k) not in (None, False)
    )
    return [f"# hurwitz {__version__}", f"# {inputs}"]


def _csv_provenance(cfg: dict, keys) -> list[list]:
    return [
        ["version", __version__],
        ["inputs", json.dumps(_inputs_block(cfg, keys), sort_keys=True)],
    ]


# ---------------------------------------------------------------------------
# subcommands

_BASE_KEYS = ("command", "group", "classes", "mode")


def _cmd_enumerate(cfg: dict) -> None:
    group, cv, mode = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, mode)
    if cfg["format"] == "json":
        emit_report(_envelope(cfg, _BASE_KEYS, ni.to_dict()), "json", cfg["out"])
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, _BASE_KEYS)
        rows.append(["index", *(f"g{i+1}" for i in range(cv.r))])
        for i, t in enumerate(ni.reps):
            rows.append([i, *(group.format(g) for g in t)])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, _BASE_KEYS)
        lines.append(f"Ni({group.name}, {cv}) {mode.value}: {ni.count} classes")
        for t in ni.reps:
            lines.append("  " + " ".join(group.format(g) for g in t))
        emit_report("\n".join(lines), "text", cfg["out"])


def _orbit_payload(cfg: dict):
    group, cv, mode = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, mode)
    orbits = braid_orbits(ni, orbit_cap=cfg["orbit_cap"])
    return group, cv, mode, ni, orbits


def _cmd_orbits(cfg: dict) -> None:
    group, cv, mode, ni, orbits = _orbit_payload(cfg)
    dicts = [o.to_dict() for o in orbits]
    members_file = cfg.get("members_file")
    if members_file:
        blob = {
            o.label: [[group.format(g) for g in t] for t in o.members]
            for o in orbits
        }
        with open(members_file, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True, indent=2)
            fh.write("\n")
        for d in dicts:
            d["members_file"] = members_file
    if cfg["format"] == "json":
        emit_report(
            _envelope(cfg, _BASE_KEYS, {"orbits": dicts}), "json", cfg["out"]
        )
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, _BASE_KEYS)
        rows.append(["orbit", "size", "cusp", "width", "rep"])
        for o in orbits:
            for c in o.cusps():
                rows.append([
                    o.label, o.size, c.label, c.width,
                    " ".join(group.format(g) for g in c.rep),
                ])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, _BASE_KEYS)
        lines.append(f"{len(orbits)} braid orbit(s) on {ni.count} classes")
        for o in orbits:
            lines.append(f"{o.label}: size {o.size}")
            for c in o.cusps():
                rep = " ".join(group.format(g) for g in c.rep)
                lines.append(f"  {c.label} width {c.width}  rep {rep}")
        emit_report("\n".join(lines), "text", cfg["out"])


def _cmd_shinc(cfg: dict) -> None:
    group, cv, mode, ni, orbits = _orbit_payload(cfg)
    table = sh_incidence(orbits)
    if cfg["format"] == "json":
        emit_report(
            _envelope(cfg, _BASE_KEYS, table.to_dict()), "json", cfg["out"]
        )
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, _BASE_KEYS) + table.to_rows()
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, _BASE_KEYS)
        emit_report("\n".join(lines) + "\n" + table.render_text(), "text", cfg["out"])


def _cmd_genus(cfg: dict) -> None:
    group, cv, mode, ni, orbits = _orbit_payload(cfg)
    payload = []
    for o in orbits:
        entry = genus_of_component(o).to_dict()
        entry["moduli"] = moduli_flags(group, o).to_dict()
        payload.append(entry)
    if cfg["format"] == "json":
        emit_report(
            _envelope(cfg, _BASE_KEYS, {"orbits": payload}), "json", cfg["out"]
        )
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, _BASE_KEYS)
        rows.append([
            "orbit", "degree", "genus", "ind_gamma0", "ind_gamma1",
            "ind_gammainf", "fixed_gamma0", "fixed_gamma1", "cusp_widths",
        ])
        for e in payload:
            rows.append([
                e["orbit"], e["degree"], e["genus"],
                e["indices"]["gamma0"], e["indices"]["gamma1"],
                e["indices"]["gammainf"], e["fixed_points"]["gamma0"],
                e["fixed_points"]["gamma1"],
                " ".join(str(w) for w in e["cusp_widths"]),
            ])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, _BASE_KEYS)
        for e in payload:
            ind = e["indices"]
            lines.append(
                f"{e['orbit']}: degree {e['degree']}, genus {e['genus']}, "
                f"ind(gamma0,1,inf) = ({ind['gamma0']},{ind['gamma1']},"
                f"{ind['gammainf']}), cusp widths {e['cusp_widths']}"
            )
            flags = e["moduli"]
            lines.append(
                f"  moduli: inner_fine={flags['inner_fine']} "
                f"b_fine_reduced={flags['b_fine_reduced']} "
                f"fine_reduced={flags['fine_reduced']}"
            )
        emit_report("\n".join(lines), "text", cfg["out"])


_COVER_RE = re.compile(r"heis\((\d+)\)")


def _make_cover(sel: str, order_bound: int | None, group) -> CentralExtension:
    if sel == "spin4":
        return spin_cover(4)
    if sel == "spin5":
        return spin_cover(5)
    m = _COVER_RE.fullmatch(sel)
    if m:
        ell = int(m.group(1))
        action = ((0, -1), (1, -1))
        if group.kind == "vector-semidirect" and group.dim == 2 and group.modulus == ell:
            action = group.action
        return extend_action_to_heisenberg(ell, action)
    if sel.startswith("hom:"):
        path = sel[4:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read cover file: {exc}") from exc
        for key in ("source", "target", "images"):
            if key not in data:
                raise ValidationError(f"cover file misses {key!r}")
        kw = {"order_bound": order_bound} if order_bound else {}
        source = make_group(data["source"], **kw)
        target = make_group(data["target"], **kw)
        images = [target.parse(s) for s in data["images"]]
        hom = GroupHom.from_gen_images(source, target, images)
        return CentralExtension(source, target, hom, name=f"hom:{path}")
    raise ValidationError(
        f"unknown cover {sel!r}; use spin4, spin5, heis(<l>) or hom:<file>"
    )


def _cmd_lift(cfg: dict) -> None:
    group, cv, mode = _group_and_classes(cfg)
    ext = _make_cover(_need(cfg, "cover", "cover selector"), cfg.get("order_bound"), group)
    same = ext.base.element_set == group.element_set and all(
        ext.base.mul(x, g) == group.mul(x, g) for x in group.elements for g in group.gens
    )
    if not same:
        raise ValidationError(
            "cover base group does not match --group "
            f"({ext.base.name} vs {group.name})"
        )
    orbits = braid_orbits(enumerate_nielsen(group, cv, mode), orbit_cap=cfg["orbit_cap"])
    entries = []
    for o in orbits:
        inv = lift_invariant(ext, o.rep)
        entries.append({
            "orbit": o.label,
            "size": o.size,
            "invariant": inv.label,
            "trivial": inv.trivial,
            "obstructed": not inv.trivial,
        })
    keys = _BASE_KEYS + ("cover",)
    if cfg["format"] == "json":
        data = {
            "cover": ext.name,
            "kernel_order": ext.kernel_order,
            "kernel_exponent": ext.kernel_exponent,
            "orbit_invariants": entries,
        }
        emit_report(_envelope(cfg, keys, data), "json", cfg["out"])
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, keys)
        rows.append(["orbit", "size", "invariant", "trivial", "obstructed"])
        for e in entries:
            rows.append([
                e["orbit"], e["size"], e["invariant"],
                str(e["trivial"]).lower(), str(e["obstructed"]).lower(),
            ])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, keys)
        lines.append(
            f"cover {ext.name}: kernel order {ext.kernel_order}, "
            f"exponent {ext.kernel_exponent}"
        )
        for e in entries:
            word = "obstructed" if e["obstructed"] else "unobstructed"
            lines.append(
                f"{e['orbit']} (size {e['size']}): invariant {e['invariant']}"
                f" -> {word}"
            )
        emit_report("\n".join(lines), "text", cfg["out"])


def _tower_spec(cfg: dict) -> TowerSpec:
    family = _need(cfg, "family", "vector or dihedral")
    ell = _need(cfg, "ell", "tower prime")
    action = cfg.get("action")
    if isinstance(action, str):
        try:
            action = json.loads(action)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--action is not valid JSON: {exc}") from exc
    return TowerSpec(family, ell, t=cfg.get("t") or 2, action=action)


def _cmd_tower(cfg: dict) -> None:
    spec = _tower_spec(cfg)
    g0 = spec.level_group(0)
    cv = parse_class_vector(g0, _need(cfg, "classes", "level-0 class vector"))
    mode = Mode.parse(cfg["mode"])
    tree = component_tree(spec, cv, cfg["k_max"], mode=mode)
    data = tree.to_dict()
    if cfg.get("frattini"):
        data["frattini_steps"] = [
            s.to_dict() for s in eventually_frattini_report(spec, cfg["k_max"])
        ]
    keys = ("command", "family", "ell", "t", "action", "k_max", "classes",
            "mode")
    if cfg["format"] == "json":
        emit_report(_envelope(cfg, keys, data), "json", cfg["out"])
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, keys)
        rows.append(["level", "orbit", "size", "genus", "lift_invariant",
                     "parent"])
        parents = {tuple(edge[0]): edge[1] for edge in data["edges"]}
        for lvl in data["levels"]:
            for o in lvl["orbits"]:
                par = parents.get((lvl["k"], o["label"]))
                rows.append([
                    lvl["k"], o["label"], o["size"],
                    "" if o["genus"] is None else o["genus"],
                    o["lift_invariant"] or "",
                    "" if par is None else f"{par[0]}:{par[1]}",
                ])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, keys)
        for lvl in data["levels"]:
            lines.append(
                f"level {lvl['k']}: group order {lvl['group_order']}, "
                f"{lvl['ni_count']} classes, {len(lvl['orbits'])} orbit(s)"
            )
            for o in lvl["orbits"]:
                inv = o["lift_invariant"] or "-"
                genus = "-" if o["genus"] is None else o["genus"]
                lines.append(
                    f"  {o['label']}: size {o['size']}, genus {genus}, "
                    f"invariant {inv}"
                )
                for c in o["cusps"]:
                    f = c["flags"]
                    lines.append(
                        f"    {c['label']} width {c['width']} {c['type']}"
                        f" hm={f['hm']} double_identity={f['double_identity']}"
                    )
        for edge in data["edges"]:
            lines.append(
                f"edge: level {edge[0][0]} {edge[0][1]} -> "
                f"level {edge[1][0]} {edge[1][1]}"
            )
        if data.get("truncated_at") is not None:
            lines.append(f"truncated at level {data['truncated_at']}")
        if "frattini_steps" in data:
            for s in data["frattini_steps"]:
                lines.append(
                    f"frattini step {s['k']}: {s['frattini']} "
                    f"(kernel {s['kernel_order']}, "
                    f"ell-group={s['kernel_is_ell_group']})"
                )
        emit_report("\n".join(lines), "text", cfg["out"])


def _cmd_bcl(cfg: dict) -> None:
    group, cv, _mode = _group_and_classes(cfg)
    res = bcl(group, cv)
    if cfg["format"] == "json":
        emit_report(_envelope(cfg, _BASE_KEYS, res.to_dict()), "json", cfg["out"])
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, _BASE_KEYS)
        rows.append(["N_C", "Q", "rational_union"])
        rows.append([
            res.n_c, " ".join(str(m) for m in res.q),
            str(res.rational_union).lower(),
        ])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, _BASE_KEYS)
        lines.append(
            f"N_C = {res.n_c}; Q = {list(res.q)}; "
            f"rational union: {res.rational_union}"
        )
        emit_report("\n".join(lines), "text", cfg["out"])


def _cmd_check(cfg: dict) -> None:
    suite = cfg["suite"]
    group, cv, _mode = _group_and_classes(cfg)
    keys = _BASE_KEYS + ("suite", "seed", "sample_size")
    if suite != "braid-relations":
        raise ValidationError(f"unknown suite {suite!r}; use braid-relations")
    data = verify_braid_relations(
        group, cv, sample_size=cfg["sample_size"], seed=cfg["seed"]
    ).to_dict()
    if cfg["format"] == "json":
        emit_report(_envelope(cfg, keys, data), "json", cfg["out"])
    elif cfg["format"] == "csv":
        rows = _csv_provenance(cfg, keys)
        rows.append(["check", "passed", "details"])
        for c in data["checks"]:
            rows.append([c["name"], str(c["passed"]).lower(), c["details"]])
        emit_report(rows, "csv", cfg["out"])
    else:
        lines = _text_header(cfg, keys)
        for c in data["checks"]:
            status = "ok" if c["passed"] else f"FAIL {c['details']}"
            lines.append(f"{c['name']}: {status}")
        lines.append("all passed" if data["passed"] else "violations found")
        emit_report("\n".join(lines), "text", cfg["out"])
    if not data["passed"]:
        raise ValidationError("property suite reported violations")


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "orbits": _cmd_orbits,
    "shinc": _cmd_shinc,
    "genus": _cmd_genus,
    "lift": _cmd_lift,
    "tower": _cmd_tower,
    "bcl": _cmd_bcl,
    "check": _cmd_check,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        _COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
