"""Command-line frontend: enumeration, orbits, geometry, lifts, towers.

Configuration precedence is flags over config-file values over defaults; the
config file is JSON whose keys are the flag names (dashes or underscores).
Each command computes its results once and returns its report as a JSON
body, CSV rows and text lines; ``emit_report`` alone writes it, in the chosen
format, to ``--out`` or stdout.  Reports are deterministic for fixed inputs
and version: JSON is emitted with sorted keys, CSV with RFC-4180 quoting, and
every report embeds the input description and the package version.  Exit
codes: 0 success, 2 invalid input (an unwritable output file included),
3 budget exceeded.

A run builds one argument parser, that of the command it names first; the
full parser is built only to write top-level help, usage and errors.
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
    heisenberg_cover,
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
    "suite": "braid-relations",
}


_COMMAND_HELP = {
    "enumerate": "list Nielsen-class representatives",
    "orbits": "braid orbits and their cusps",
    "shinc": "sh-incidence matrix with genus data",
    "genus": "genus reports and moduli flags per orbit",
    "lift": "lift invariants of braid orbits under a cover",
    "tower": "component tree of a modular-tower family",
    "bcl": "Branch-Cycle-Lemma field data",
    "check": "property suites with witnesses",
}


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """Every command's shell, but flags only for the first command named in
    argv (the top level has no options that take values)."""
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Nielsen classes, braid orbits, and Modular Tower levels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shells = {name: sub.add_parser(name, help=text) for name, text in _COMMAND_HELP.items()}
    command = next((a for a in argv if a in shells), None)
    if command is not None:
        _add_flags(shells[command], command)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv with the parser of the command it starts with, the one the
    full parser would hand the rest of argv to; anything else goes to the
    full parser, which writes the usage or error and exits."""
    command = argv[0] if argv else None
    if command in _COMMAND_HELP:
        parser = argparse.ArgumentParser(prog=f"hurwitz {command}")
        _add_flags(parser, command)
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=command))
        if not extras:
            return args
    return _build_parser(argv).parse_args(argv)


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    if command != "tower":
        p.add_argument("--group", help="group descriptor, e.g. A4, D5, SL2(3)")
        p.add_argument("--classes", help="class vector, e.g. [3a,3a,3b,3b]")
    p.add_argument("--mode", help="raw | inner | absolute | inner-reduced | absolute-reduced")
    p.add_argument("--format", dest="format", help="text | json | csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--order-bound", type=int, dest="order_bound")
    p.add_argument("--orbit-cap", type=int, dest="orbit_cap")
    if command == "orbits":
        p.add_argument("--members-file", dest="members_file",
                       help="also write full orbit membership to this JSON file")
    elif command == "lift":
        p.add_argument("--cover", help="spin4 | spin5 | heis(<l>) | hom:<file>")
    elif command == "tower":
        p.add_argument("--classes", help="level-0 class vector, e.g. [3a,3a,3b,3b]")
        p.add_argument("--family", help="vector | dihedral")
        p.add_argument("--ell", type=int, help="the tower prime")
        p.add_argument("--t", type=int, dest="t", help="lattice rank (vector family)")
        p.add_argument("--action", help="integer action matrix as JSON, e.g. [[0,-1],[1,-1]]")
        p.add_argument("--k-max", type=int, dest="k_max", help="deepest level to build")
        p.add_argument("--frattini", action="store_true",
                       help="include per-step Frattini-cover results")
    elif command == "check":
        p.add_argument("--suite", help="braid-relations")
        p.add_argument("--sample-size", type=int, dest="sample_size")
        p.add_argument("--seed", type=int)


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


# the JSON type each config value must have; ``action`` may be a string or a
# list of integer rows, which ``TowerSpec`` checks
_KEY_TYPES = (
    (int, "an integer",
     ("order_bound", "orbit_cap", "k_max", "t", "ell", "seed", "sample_size")),
    (str, "a string",
     ("group", "classes", "mode", "format", "out", "members_file", "cover",
      "family", "suite")),
    (bool, "true or false", ("frattini",)),
)


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
    for kind, word, keys in _KEY_TYPES:
        for key in keys:
            value = out.get(key)
            if value is not None and type(value) is not kind:
                raise ValidationError(
                    f"{key.replace('_', '-')} must be {word}, got {value!r}"
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


def _group_and_classes(cfg: dict, nielsen: bool = True):
    """The group, class vector and mode of a command.  For the commands that
    compute Nielsen classes (``nielsen``), the group's indexed view is built
    first, so a table above the cap exits before the classes are computed."""
    group_kw = {}
    if cfg.get("order_bound"):
        group_kw["order_bound"] = cfg["order_bound"]
    group = make_group(_need(cfg, "group", "group descriptor"), **group_kw)
    if nielsen:
        group.indexed()
    cv = parse_class_vector(group, _need(cfg, "classes", "class vector"))
    mode = Mode.parse(cfg["mode"])
    return group, cv, mode


# ---------------------------------------------------------------------------
# the one report writer


def emit_report(cfg: dict, keys, data: dict, rows: list, lines: list) -> None:
    """Write one report in ``cfg["format"]`` to ``--out`` or stdout.

    ``data`` is the JSON body, ``rows`` the CSV body and ``lines`` the text
    body; each form gets the package version and the inputs named by ``keys``
    in front.  CSV spells booleans as JSON does and None as an empty cell.
    Identical inputs give identical bytes.
    """
    inputs = {k: cfg[k] for k in keys if cfg.get(k) is not None and cfg[k] is not False}
    if cfg["format"] == "json":
        report = {"version": __version__, "inputs": inputs, **data}
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif cfg["format"] == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([
            ["version", __version__],
            ["inputs", json.dumps(inputs, sort_keys=True)],
            *([json.dumps(v) if isinstance(v, bool) else v for v in row] for row in rows),
        ])
        text = buf.getvalue()
    else:
        header = " ".join(f"{k}={v}" for k, v in inputs.items())
        text = "\n".join([f"# hurwitz {__version__}", f"# {header}", *lines]) + "\n"
    if cfg.get("out"):
        _write_file(cfg["out"], text, "report")
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns (input keys, JSON body, CSV rows, text lines)

_BASE_KEYS = ("command", "group", "classes", "mode")


def _cmd_enumerate(cfg: dict):
    group, cv, mode = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, mode)
    data = ni.to_dict()
    rows = [["index", *(f"g{i+1}" for i in range(cv.r))]]
    rows += [[i, *t] for i, t in enumerate(data["reps"])]
    lines = [f"Ni({group.name}, {cv}) {mode.value}: {ni.count} classes"]
    lines += ["  " + " ".join(t) for t in data["reps"]]
    return _BASE_KEYS, data, rows, lines


def _orbit_payload(cfg: dict):
    group, cv, mode = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, mode)
    orbits = braid_orbits(ni, orbit_cap=cfg["orbit_cap"])
    return group, ni, orbits


def _cmd_orbits(cfg: dict):
    _group, ni, orbits = _orbit_payload(cfg)
    dicts = [o.to_dict() for o in orbits]
    members_file = cfg.get("members_file")
    if members_file:
        blob = {o.label: [ni.formatted(p) for p in o.positions] for o in orbits}
        _write_file(members_file, json.dumps(blob, sort_keys=True, indent=2) + "\n",
                    "members file")
        for d in dicts:
            d["members_file"] = members_file
    rows = [["orbit", "size", "cusp", "width", "rep"]]
    lines = [f"{len(orbits)} braid orbit(s) on {ni.count} classes"]
    for d in dicts:
        lines.append(f"{d['orbit_label']}: size {d['size']}")
        for c in d["cusps"]:
            rep = " ".join(c["rep"])
            rows.append([d["orbit_label"], d["size"], c["label"], c["width"], rep])
            lines.append(f"  {c['label']} width {c['width']}  rep {rep}")
    return _BASE_KEYS, {"orbits": dicts}, rows, lines


def _cmd_shinc(cfg: dict):
    table = sh_incidence(_orbit_payload(cfg)[2])
    return _BASE_KEYS, table.to_dict(), table.to_rows(), table.render_text().splitlines()


def _cmd_genus(cfg: dict):
    group, _ni, orbits = _orbit_payload(cfg)
    payload = [
        {**genus_of_component(o).to_dict(), "moduli": moduli_flags(group, o).to_dict()}
        for o in orbits
    ]
    rows = [[
        "orbit", "degree", "genus", "ind_gamma0", "ind_gamma1",
        "ind_gammainf", "fixed_gamma0", "fixed_gamma1", "cusp_widths",
    ]]
    lines = []
    for e in payload:
        ind, fixed, flags = e["indices"], e["fixed_points"], e["moduli"]
        rows.append([
            e["orbit"], e["degree"], e["genus"],
            ind["gamma0"], ind["gamma1"], ind["gammainf"],
            fixed["gamma0"], fixed["gamma1"],
            " ".join(str(w) for w in e["cusp_widths"]),
        ])
        lines.append(
            f"{e['orbit']}: degree {e['degree']}, genus {e['genus']}, "
            f"ind(gamma0,1,inf) = ({ind['gamma0']},{ind['gamma1']},"
            f"{ind['gammainf']}), cusp widths {e['cusp_widths']}"
        )
        lines.append(
            f"  moduli: inner_fine={flags['inner_fine']} "
            f"b_fine_reduced={flags['b_fine_reduced']} "
            f"fine_reduced={flags['fine_reduced']}"
        )
    return _BASE_KEYS, {"orbits": payload}, rows, lines


_COVER_RE = re.compile(r"heis\((\d+)\)")


def _make_cover(sel: str, order_bound: int | None, group) -> CentralExtension:
    if sel == "spin4":
        return spin_cover(4)
    if sel == "spin5":
        return spin_cover(5)
    m = _COVER_RE.fullmatch(sel)
    if m:
        ell = int(m.group(1))
        same_lattice = (group.kind == "vector-semidirect" and group.dim == 2
                        and group.modulus == ell)
        return heisenberg_cover(ell, group.action if same_lattice else None)
    if sel.startswith("hom:"):
        path = sel[4:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read cover file: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("cover file must hold a JSON object")
        for key in ("source", "target", "images"):
            if key not in data:
                raise ValidationError(f"cover file misses {key!r}")
        images = data["images"]
        if not isinstance(images, list) or not all(
            isinstance(v, str) for v in (data["source"], data["target"], *images)
        ):
            raise ValidationError("cover file needs strings for 'source', 'target'"
                                  " and a list of strings for 'images'")
        kw = {"order_bound": order_bound} if order_bound else {}
        source = make_group(data["source"], **kw)
        target = make_group(data["target"], **kw)
        hom = GroupHom(source, target, [target.parse(v) for v in images])
        return CentralExtension(source, target, hom, name=f"hom:{path}")
    raise ValidationError(
        f"unknown cover {sel!r}; use spin4, spin5, heis(<l>) or hom:<file>"
    )


def _cmd_lift(cfg: dict):
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
    data = {
        "cover": ext.name,
        "kernel_order": ext.kernel_order,
        "kernel_exponent": ext.kernel_exponent,
        "orbit_invariants": entries,
    }
    rows = [["orbit", "size", "invariant", "trivial", "obstructed"]]
    rows += [[e[k] for k in rows[0]] for e in entries]
    lines = [f"cover {ext.name}: kernel order {ext.kernel_order}, "
             f"exponent {ext.kernel_exponent}"]
    lines += [
        f"{e['orbit']} (size {e['size']}): invariant {e['invariant']} -> "
        f"{'obstructed' if e['obstructed'] else 'unobstructed'}"
        for e in entries
    ]
    return _BASE_KEYS + ("cover",), data, rows, lines


def _tower_spec(cfg: dict) -> TowerSpec:
    family = _need(cfg, "family", "vector or dihedral")
    ell = _need(cfg, "ell", "tower prime")
    action = cfg.get("action")
    if isinstance(action, str):
        try:
            action = json.loads(action)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--action is not valid JSON: {exc}") from exc
    return TowerSpec(family, ell, t=cfg["t"], action=action)


def _cmd_tower(cfg: dict):
    spec = _tower_spec(cfg)
    cfg["t"] = spec.t if spec.family == "vector" else None  # echo the rank that ran
    g0 = spec.level_group(0)
    g0.indexed()  # the table cap fires here, and the classes are computed on the view
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
    rows = [["level", "orbit", "size", "genus", "lift_invariant", "parent"]]
    lines = []
    parents = {tuple(edge[0]): edge[1] for edge in data["edges"]}
    for lvl in data["levels"]:
        lines.append(
            f"level {lvl['k']}: group order {lvl['group_order']}, "
            f"{lvl['ni_count']} classes, {len(lvl['orbits'])} orbit(s)"
        )
        for o in lvl["orbits"]:
            par = parents.get((lvl["k"], o["label"]))
            rows.append([lvl["k"], o["label"], o["size"], o["genus"], o["lift_invariant"],
                         None if par is None else f"{par[0]}:{par[1]}"])
            genus = "-" if o["genus"] is None else o["genus"]
            lines.append(
                f"  {o['label']}: size {o['size']}, genus {genus}, "
                f"invariant {o['lift_invariant'] or '-'}"
            )
            for c in o["cusps"]:
                f = c["flags"]
                lines.append(
                    f"    {c['label']} width {c['width']} {c['type']}"
                    f" hm={f['hm']} double_identity={f['double_identity']}"
                )
    for child, par in data["edges"]:
        lines.append(f"edge: level {child[0]} {child[1]} -> level {par[0]} {par[1]}")
    if data["truncated_at"] is not None:
        lines.append(f"truncated at level {data['truncated_at']}")
    for s in data.get("frattini_steps", ()):
        lines.append(
            f"frattini step {s['k']}: {s['frattini']} "
            f"(kernel {s['kernel_order']}, "
            f"ell-group={s['kernel_is_ell_group']})"
        )
    return keys, data, rows, lines


def _cmd_bcl(cfg: dict):
    data = bcl(*_group_and_classes(cfg, nielsen=False)[:2]).to_dict()
    rows = [["N_C", "Q", "rational_union"],
            [data["N_C"], " ".join(str(m) for m in data["Q"]), data["rational_union"]]]
    lines = [f"N_C = {data['N_C']}; Q = {data['Q']}; "
             f"rational union: {data['rational_union']}"]
    return _BASE_KEYS, data, rows, lines


def _cmd_check(cfg: dict):
    suite = cfg["suite"]
    group, cv, _mode = _group_and_classes(cfg)
    if suite != "braid-relations":
        raise ValidationError(f"unknown suite {suite!r}; use braid-relations")
    data = verify_braid_relations(
        group, cv, sample_size=cfg["sample_size"], seed=cfg["seed"]
    ).to_dict()
    rows = [["check", "passed", "details"]]
    lines = []
    for c in data["checks"]:
        rows.append([c["name"], c["passed"], c["details"]])
        status = "ok" if c["passed"] else f"FAIL {c['details']}"
        lines.append(f"{c['name']}: {status}")
    lines.append("all passed" if data["passed"] else "violations found")
    return _BASE_KEYS + ("suite", "seed", "sample_size"), data, rows, lines


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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        cfg = _resolve(args)
        keys, data, rows, lines = _COMMANDS[args.command](cfg)
        emit_report(cfg, keys, data, rows, lines)
        if args.command == "check" and not data["passed"]:
            raise ValidationError("property suite reported violations")
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
