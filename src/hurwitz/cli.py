"""Command-line frontend: enumeration, orbits, geometry, lifts, towers.

Each flag's type, default and help, and each command's help, flags, echoed
inputs and runner, are declared once, in one row.  A command takes only the
flags it reads (only the commands that enumerate Nielsen classes take
``--mode``; a tower's lattice rank is its action matrix's size), and a bad
mode or cover selector, or ``genus`` or ``shinc`` off a reduced mode or
r = 4, exits 2 before any group is built.  Configuration precedence is flags
over config-file values over defaults.  The config file is a JSON object
whose keys are flag names (dashes or underscores).  Each key must name a flag
of some command other than ``--config``, so ``command`` and ``config`` are
refused; each non-null value must have that flag's type (``action`` may also
be a list of integer rows); a value for a flag the running command lacks is
ignored, so one config file can serve every command.

Each command computes its results once and returns its JSON body with its CSV
and text views, functions that read the body and what the command computed.
Records' ``to_dict`` give the JSON bodies of ``enumerate``, ``shinc``,
``genus``, ``tower``, ``bcl`` and ``check``; the rest is built here.
``emit_report`` alone reads the format: it calls only the view of the format
printed and writes the report to ``--out`` or stdout.  Reports are
deterministic for fixed inputs and version: JSON is emitted with sorted keys,
CSV with RFC-4180 quoting, and every report embeds the input description and
the package version.  Exit codes: 0 success, 2 invalid input (an unwritable
output file included), 3 budget exceeded or out of memory.  A file that cannot
be read or written is named in the message cut short, as every echoed input
is.

A command followed by its exact flags is read by a scan of the flag table;
other argv goes to argparse, which reads it or writes help, usage or errors.

``run`` pauses the cyclic garbage collector and restores its state on every
way out: reference counting frees a run's tables of ints, and the collector's
passes over them, a twentieth of a tower job's time, find nothing to free.
"""

from __future__ import annotations

import gc
import io
import json
import re
import sys

from . import __version__
from .errors import BudgetError, ValidationError, shown
from .groups import GroupHom, class_vector_items, make_group, parse_class_vector, read_int
from .nielsen import Mode, enumerate_nielsen
from .braid import braid_orbits, verify_braid_relations
from .geometry import _require_reduced_four, moduli_flags, sh_incidence
# unused here; perfbench/tests/test_perfbench.py asserts that this module binds it
from .geometry import genus_of_component  # noqa: F401
from .lift import CentralExtension, extend_action_to_heisenberg, lift_invariant, spin_cover
from .tower import TowerSpec, bcl, component_tree, eventually_frattini_report

# flag -> (type, default, help), type bool for a switch; help output is
# generated from these rows, each dest and config key is the flag's name, and
# each config value must have the flag's type.  The command rows below name
# the flags each command takes, and ``_FLAGS`` is derived from both.
_FLAG_ROWS = {
    "--group": (str, None, "group descriptor, e.g. A4, D5, SL2(3)"),
    "--classes": (str, None, "class vector, e.g. [3a,3a,3b,3b]"),
    "--mode": (str, "inner-reduced", "raw | inner | absolute | inner-reduced | absolute-reduced"),
    "--format": (str, "text", "text | json | csv"),
    "--out": (str, None, "output path (default: stdout)"),
    "--config": (str, None, "JSON config file; flags override it"),
    "--order-bound": (int, None, None),
    "--orbit-cap": (int, None, None),
    "--members-file": (str, None, "also write full orbit membership to this JSON file"),
    "--cover": (str, None, "spin4 | spin5 | heis(<l>) | hom:<file>"),
    "--family": (str, None, "vector | dihedral"),
    "--ell": (int, None, "the tower prime"),
    "--action": (str, None, "integer action matrix as JSON, e.g. [[0,-1],[1,-1]]"),
    "--k-max": (int, 1, "deepest level to build"),
    "--frattini": (bool, False, "include per-step Frattini-cover results"),
    "--sample-size": (int, 25, None),
    "--seed": (int, 0, None),
}


def _build_parser(argv: list):
    """Every command's shell, but flags only for the first command named in
    argv (the top level has no options that take values)."""
    import argparse

    def integer(value: str) -> int:  # int, a refused value echoed cut as in every message
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {shown(value)}") from None

    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Nielsen classes, braid orbits, and Modular Tower levels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shells = {name: sub.add_parser(name, help=row[0]) for name, row in _COMMANDS.items()}
    command = next((a for a in argv if a in shells), None)
    for flag, (_dest, kind, _default, text) in _FLAGS.get(command, {}).items():
        kw = {"action": "store_true"} if kind is bool else {"type": {int: integer}.get(kind, kind)}
        shells[command].add_argument(flag, help=text, **kw)
    return parser


def _parse_args(argv: list) -> dict:
    """``command``, then every dest of the command.  A command followed by its
    exact flags, each value of its type and not starting with "-" (argparse
    may read "-5" as one), is scanned here; other argv goes to the full
    parser, which reads it or writes help, usage or errors and exits."""
    try:
        flags = _FLAGS[argv[0]]
        args = {"command": argv[0]}
        args.update((dest, False if kind is bool else None) for dest, kind, *_ in flags.values())
        tokens = iter(argv[1:])
        for token in tokens:
            dest, kind, *_ = flags[token]
            if kind is bool:
                args[dest] = True
            elif (value := next(tokens, "-")).startswith("-"):
                raise ValueError(f"{token} {value}")
            else:
                args[dest] = kind(value)
        return args
    except (LookupError, ValueError):
        return vars(_build_parser(argv).parse_args(argv))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=read_int)  # an over-long integer is refused
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc.strerror}: {shown(path)}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


_TYPE_WORDS = {int: "an integer", str: "a string", bool: "true or false"}


def _resolve(args: dict) -> dict:
    """Apply precedence: explicit flag > config file > default, once each
    config key passes the rule in the module docstring."""
    config = _load_config(args["config"])
    for key, value in config.items():
        if key not in _CONFIG_TYPES:
            raise ValidationError(f"unknown config key: {shown(key)}")
        kind = _CONFIG_TYPES[key]
        if key == "action" and isinstance(value, list) and all(
                isinstance(row, list) and all(type(v) is int for v in row) for row in value):
            continue
        if value is not None and type(value) is not kind:
            word = _TYPE_WORDS[kind] + (" or a list of integer rows" if key == "action" else "")
            raise ValidationError(f"{key.replace('_', '-')} must be {word}, got {shown(value)}")
    out = {"command": args["command"]}
    for dest, _kind, default, _text in _FLAGS[args["command"]].values():
        if args[dest] is not None and args[dest] is not False:
            out[dest] = args[dest]
        elif config.get(dest) is not None:  # a null value counts as unset
            out[dest] = config[dest]
        else:
            out[dest] = default
    if out["format"] not in ("text", "json", "csv"):
        raise ValidationError(f"unknown format: {shown(out['format'])}")
    if "mode" in out:
        Mode.parse(out["mode"])  # a bad mode is refused before any group is built
    for key in ("order_bound", "orbit_cap", "sample_size"):
        if out.get(key) is not None and out[key] <= 0:
            raise ValidationError(f"{key.replace('_', '-')} must be positive")
    return out


def _need(cfg: dict, key: str, hint: str):
    if cfg.get(key) in (None, ""):
        raise ValidationError(f"missing --{key.replace('_', '-')} ({hint})")
    return cfg[key]


def _group_and_classes(cfg: dict, view: bool = True):
    """The group and class vector of a command.  For the commands that
    compute on the group's indexed view (``view``), the view is built first,
    so a table above the cap exits before the classes are computed."""
    kw = {"order_bound": cfg["order_bound"]} if cfg.get("order_bound") else {}
    group = make_group(_need(cfg, "group", "group descriptor"), **kw)
    if view:
        group.indexed()
    return group, parse_class_vector(group, _need(cfg, "classes", "class vector"))


# ---------------------------------------------------------------------------
# the one report writer


def emit_report(cfg: dict, keys, data: dict, rows, lines) -> None:
    """Write one report in ``cfg["format"]`` to ``--out`` or stdout.

    ``data`` is the JSON body; ``rows`` and ``lines`` are the CSV and text
    views, called only for the format printed, and return the CSV rows and
    the text lines.  Each form gets the package version and the inputs named
    by ``keys`` in front.  CSV spells booleans as JSON does and None as an
    empty cell.  Identical inputs give identical bytes.
    """
    inputs = {k: cfg[k] for k in keys if cfg.get(k) is not None and cfg[k] is not False}
    if cfg["format"] == "json":
        text = _json_text({"version": __version__, "inputs": inputs, **data}) + "\n"
    elif cfg["format"] == "csv":
        import csv  # only CSV runs load the module
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\r\n")
        out.writerows([["version", __version__], ["inputs", json.dumps(inputs, sort_keys=True)]])
        out.writerows([json.dumps(v) if isinstance(v, bool) else v for v in row] for row in rows())
        text = buf.getvalue()
    else:
        header = " ".join(f"{k}={v}" for k, v in inputs.items())
        text = "\n".join([f"# hurwitz {__version__}", f"# {header}", *lines()]) + "\n"
    if cfg.get("out"):
        _write_file(cfg["out"], text, "report")
    else:
        sys.stdout.write(text)


_escape = json.encoder.encode_basestring_ascii
# the JSON text of a scalar of each of these exact types; json.dumps writes others
_SCALARS = {str: _escape, int: int.__repr__, bool: {False: "false", True: "true"}.get,
            type(None): {None: "null"}.get}


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.  With
    ``indent`` set, ``json.dumps`` runs a pure-Python generator chain; this
    puts the same chunks in one list and joins a list of same-type scalars in
    one call, escaping strings as ``json.dumps`` does."""
    out: list[str] = []

    def put(o, indent: str) -> None:
        text = _SCALARS.get(type(o))
        if text is not None or not o or not isinstance(o, (dict, list, tuple)):
            out.append(text(o) if text else json.dumps(o))  # also "{}" and "[]"
            return
        inner = indent + "  "
        if isinstance(o, dict):
            sep = "{"
            for k in sorted(o):
                out.append(sep + inner + _escape(k if isinstance(k, str) else json.dumps(k)) + ": ")
                put(o[k], inner)
                sep = ","
            out.append(indent + "}")
            return
        kinds = set(map(type, o))
        text = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            out.append("[" + inner + ("," + inner).join(map(text, o)) + indent + "]")
            return
        sep = "["
        for v in o:
            out.append(sep + inner)
            put(v, inner)
            sep = ","
        out.append(indent + "]")

    put(obj, "\n")
    return "".join(out)


def _write_file(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what}: {exc.strerror}: {shown(path)}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns its JSON body and its CSV and text views, which
# read what the command computed and are called only for the format printed

_BASE_KEYS = ("command", "group", "classes", "mode")


def _cmd_enumerate(cfg: dict):
    group, cv = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, cfg["mode"])
    data = ni.to_dict()

    def rows():
        yield ["index", *(f"g{i+1}" for i in range(cv.r))]
        yield from ([i, *t] for i, t in enumerate(data["reps"]))

    def lines():
        yield f"Ni({group.name}, {cv}) {ni.mode.value}: {ni.count} classes"
        yield from ("  " + " ".join(t) for t in data["reps"])

    return data, rows, lines


def _orbit_payload(cfg: dict, report: str | None = None):
    """The Nielsen classes and braid orbits of a command.  For genus
    and shinc, ``report`` names their geometry routine, whose reduced mode
    and r = 4 are checked on the class vector's text before any group is built."""
    mode = Mode.parse(cfg["mode"])
    if report:
        items = class_vector_items(_need(cfg, "classes", "class vector"))
        _require_reduced_four(mode, sum(mult for _item, mult in items), report)
    group, cv = _group_and_classes(cfg)
    ni = enumerate_nielsen(group, cv, mode)
    return ni, braid_orbits(ni, orbit_cap=cfg["orbit_cap"])


def _cmd_orbits(cfg: dict):
    ni, orbits = _orbit_payload(cfg)
    members_file = cfg.get("members_file")
    if members_file:
        blob = {o.label: [ni.formatted(p) for p in o.positions] for o in orbits}
        _write_file(members_file, _json_text(blob) + "\n", "members file")
    named = {"members_file": members_file} if members_file else {}
    dicts = [{"orbit_label": o.label, "size": o.size, **named,
              "cusps": [{"label": c.label, "width": c.width, "rep": ni.formatted(c.positions[0])}
                        for c in o.cusps()]}
             for o in orbits]

    def rows():
        yield ["orbit", "size", "cusp", "width", "rep"]
        for d in dicts:
            yield from ([d["orbit_label"], d["size"], c["label"], c["width"], " ".join(c["rep"])]
                        for c in d["cusps"])

    def lines():
        yield f"{len(orbits)} braid orbit(s) on {ni.count} classes"
        for d in dicts:
            yield f"{d['orbit_label']}: size {d['size']}"
            yield from (f"  {c['label']} width {c['width']}  rep {' '.join(c['rep'])}"
                        for c in d["cusps"])

    return {"orbits": dicts}, rows, lines


def _cmd_shinc(cfg: dict):
    data = sh_incidence(_orbit_payload(cfg, "sh_incidence")[1]).to_dict()
    blocks = data["blocks"]

    def rows():
        """One square matrix over every cusp: sh maps each braid orbit into
        itself, so the entries off the blocks are 0."""
        labels = [lab for b in blocks for lab in b["cusps"]]
        yield ["cusp", *labels]
        before = 0
        for b in blocks:
            after = len(labels) - before - len(b["cusps"])
            for lab, row in zip(b["cusps"], b["matrix"]):
                yield [lab, *[0] * before, *row, *[0] * after]
            before += len(b["cusps"])

    def lines():
        for n, b in enumerate(blocks):
            rep, labels, mat = b["genus_report"], b["cusps"], b["matrix"]
            if n:
                yield ""
            yield (f"orbit {b['orbit']}: degree {rep['degree']}, genus {rep['genus']}, "
                   f"ind = {tuple(rep['indices'].values())}")
            width = max(map(len, labels))
            cells = [max(len(lab), *(len(str(v)) for v in col))
                     for lab, col in zip(labels, zip(*mat))]
            yield " " * width + "  " + "  ".join(map(str.rjust, labels, cells))
            for lab, row in zip(labels, mat):
                yield lab.ljust(width) + "  " + "  ".join(map(str.rjust, map(str, row), cells))

    return data, rows, lines


def _cmd_genus(cfg: dict):
    orbits = _orbit_payload(cfg, "genus_of_component")[1]
    payload = [{**o.genus_report.to_dict(), "moduli": moduli_flags(o)._asdict()}
               for o in orbits]

    def rows():
        yield ["orbit", "degree", "genus", "ind_gamma0", "ind_gamma1",
               "ind_gammainf", "fixed_gamma0", "fixed_gamma1", "cusp_widths"]
        for e in payload:
            yield [e["orbit"], e["degree"], e["genus"], *e["indices"].values(),
                   *e["fixed_points"].values(), " ".join(map(str, e["cusp_widths"]))]

    def lines():
        for e in payload:
            ind, flags = e["indices"], e["moduli"]
            yield (f"{e['orbit']}: degree {e['degree']}, genus {e['genus']}, "
                   f"ind(gamma0,1,inf) = ({ind['gamma0']},{ind['gamma1']},"
                   f"{ind['gammainf']}), cusp widths {e['cusp_widths']}")
            yield (f"  moduli: inner_fine={flags['inner_fine']} "
                   f"b_fine_reduced={flags['b_fine_reduced']} "
                   f"fine_reduced={flags['fine_reduced']}")

    return {"orbits": payload}, rows, lines


# the forms of a cover selector: spin4 | spin5 | heis(<l>) | hom:<file>
_COVER_RE = re.compile(r"spin([45])|heis\((\d+)\)|hom:(.*)", re.S)


def _make_cover(form: re.Match, order_bound: int | None, group) -> CentralExtension:
    """The selected cover, built over ``group``, the base of every cover."""
    def mismatch(name: str) -> ValidationError:
        return ValidationError("cover base group does not match --group"
                               f" ({shown(name)} vs {shown(group.name)})")

    spin, ell, path = form.groups()
    if spin:
        return spin_cover(int(spin), group)
    if ell:
        if group.name != (name := f"V(2,{read_int(ell)})"):
            raise mismatch(name)
        return extend_action_to_heisenberg(group)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=read_int)
    except OSError as exc:
        raise ValidationError(f"cannot read cover file: {exc.strerror}: {shown(path)}") from exc
    except (ValueError, RecursionError) as exc:
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
    if target.elements != group.elements or any(
            target.mul(x, g) != group.mul(x, g) for x in group.elements for g in group.gens):
        raise mismatch(target.name)
    hom = GroupHom(source, group, [group.parse(v) for v in images])
    if not hom.is_surjective:
        raise ValidationError("central extension projection must be onto")
    return CentralExtension(source, group, hom, hom.preimage, hom.kernel(), f"hom:{path}")


def _cmd_lift(cfg: dict):
    form = _COVER_RE.fullmatch(_need(cfg, "cover", "cover selector"))
    if not form:  # refused before any group is built
        raise ValidationError(f"unknown cover {shown(cfg['cover'])};"
                              " use spin4, spin5, heis(<l>) or hom:<file>")
    group, cv = _group_and_classes(cfg)
    ext = _make_cover(form, cfg.get("order_bound"), group)
    orbits = braid_orbits(enumerate_nielsen(group, cv, cfg["mode"]), orbit_cap=cfg["orbit_cap"])
    entries = [{"orbit": o.label, "size": o.size, "invariant": inv.label,
                "trivial": inv.trivial, "obstructed": not inv.trivial}
               for o in orbits for inv in [lift_invariant(ext, o.rep)]]
    data = {"cover": ext.name, "kernel_order": ext.kernel_order,
            "kernel_exponent": ext.kernel_exponent, "orbit_invariants": entries}

    def rows():
        yield (head := ["orbit", "size", "invariant", "trivial", "obstructed"])
        yield from ([e[k] for k in head] for e in entries)

    def lines():
        yield f"cover {ext.name}: kernel order {ext.kernel_order}, exponent {ext.kernel_exponent}"
        yield from (f"{e['orbit']} (size {e['size']}): invariant {e['invariant']} -> "
                    f"{'obstructed' if e['obstructed'] else 'unobstructed'}" for e in entries)

    return data, rows, lines


def _tower_spec(cfg: dict) -> TowerSpec:
    family = _need(cfg, "family", "vector or dihedral")
    ell = _need(cfg, "ell", "tower prime")
    action = cfg.get("action")
    if isinstance(action, str):
        try:
            action = json.loads(action, parse_int=read_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"--action is not valid JSON: {exc}") from exc
    return TowerSpec(family, ell, action=action)


def _cmd_tower(cfg: dict):
    spec = _tower_spec(cfg)
    cfg["t"] = spec.t if spec.family == "vector" else None  # echo the rank that ran
    g0 = spec.level_group(0)
    g0.indexed()  # the table cap fires here, and the classes are computed on the view
    cv = parse_class_vector(g0, _need(cfg, "classes", "level-0 class vector"))
    tree = component_tree(spec, cv, cfg["k_max"], mode=Mode.parse(cfg["mode"]))
    data = tree.to_dict()
    if cfg.get("frattini"):
        data["frattini_steps"] = [s.to_dict() for s in
                                  eventually_frattini_report(spec, tree.levels[-1].k)]

    def rows():
        yield ["level", "orbit", "size", "genus", "lift_invariant", "parent"]
        parents = {tuple(edge[0]): edge[1] for edge in data["edges"]}
        for lvl in data["levels"]:
            for o in lvl["orbits"]:
                par = parents.get((lvl["k"], o["label"]))
                yield [lvl["k"], o["label"], o["size"], o["genus"], o["lift_invariant"],
                       None if par is None else f"{par[0]}:{par[1]}"]

    def lines():
        for lvl in data["levels"]:
            yield (f"level {lvl['k']}: group order {lvl['group_order']}, "
                   f"{lvl['ni_count']} classes, {len(lvl['orbits'])} orbit(s)")
            for o in lvl["orbits"]:
                genus = "-" if o["genus"] is None else o["genus"]
                yield (f"  {o['label']}: size {o['size']}, genus {genus}, "
                       f"invariant {o['lift_invariant'] or '-'}")
                for c in o["cusps"]:
                    f = c["flags"]
                    yield (f"    {c['label']} width {c['width']} {c['type']}"
                           f" hm={f['hm']} double_identity={f['double_identity']}")
        for child, par in data["edges"]:
            yield f"edge: level {child[0]} {child[1]} -> level {par[0]} {par[1]}"
        if data["truncated_at"] is not None:
            yield f"truncated at level {data['truncated_at']}"
        for s in data.get("frattini_steps", ()):
            yield (f"frattini step {s['k']}: {s['frattini']} (kernel {s['kernel_order']}, "
                   f"ell-group={s['kernel_is_ell_group']})")

    return data, rows, lines


def _cmd_bcl(cfg: dict):
    data = bcl(*_group_and_classes(cfg, view=False)).to_dict()

    def rows():
        yield ["N_C", "Q", "rational_union"]
        yield [data["N_C"], " ".join(map(str, data["Q"])), data["rational_union"]]

    def lines():
        yield f"N_C = {data['N_C']}; Q = {data['Q']}; rational union: {data['rational_union']}"

    return data, rows, lines


def _cmd_check(cfg: dict):
    group, cv = _group_and_classes(cfg)
    data = verify_braid_relations(group, cv, sample_size=cfg["sample_size"],
                                  seed=cfg["seed"]).to_dict()

    def rows():
        yield ["check", "passed", "details"]
        yield from ([c["name"], c["passed"], c["details"]] for c in data["checks"])

    def lines():
        for c in data["checks"]:
            yield f"{c['name']}: {'ok' if c['passed'] else 'FAIL ' + c['details']}"
        yield "all passed" if data["passed"] else "violations found"

    return data, rows, lines


_IO = ("--format", "--out", "--config")
_NIELSEN = ("--group", "--classes", "--mode", *_IO, "--order-bound")
# command -> (help, its flags in --help order, the inputs its report echoes,
# runner), in --help order.  Only the commands that build braid orbits take
# --orbit-cap; tower levels are gated by closed-form orders and the table cap.
_COMMANDS = {
    "enumerate": ("list Nielsen-class representatives", _NIELSEN, _BASE_KEYS, _cmd_enumerate),
    "orbits": ("braid orbits and their cusps", (*_NIELSEN, "--orbit-cap", "--members-file"),
               _BASE_KEYS, _cmd_orbits),
    "shinc": ("sh-incidence matrix with genus data", (*_NIELSEN, "--orbit-cap"), _BASE_KEYS,
              _cmd_shinc),
    "genus": ("genus reports and moduli flags per orbit", (*_NIELSEN, "--orbit-cap"),
              _BASE_KEYS, _cmd_genus),
    "lift": ("lift invariants of braid orbits under a cover",
             (*_NIELSEN, "--orbit-cap", "--cover"), (*_BASE_KEYS, "cover"), _cmd_lift),
    "tower": ("component tree of a modular-tower family",
              ("--mode", *_IO, ("--classes", str, None, "level-0 class vector, e.g. [3a,3a,3b,3b]"),
               "--family", "--ell", "--action", "--k-max", "--frattini"),
              ("command", "family", "ell", "t", "action", "k_max", "classes", "mode"), _cmd_tower),
    "bcl": ("Branch-Cycle-Lemma field data", ("--group", "--classes", *_IO, "--order-bound"),
            _BASE_KEYS[:3], _cmd_bcl),
    "check": ("property suites with witnesses",
              ("--group", "--classes", *_IO, "--order-bound", "--sample-size", "--seed"),
              (*_BASE_KEYS[:3], "seed", "sample_size"), _cmd_check),
}
# command -> {flag: (dest, type, default, help)}; a full row gives its own help
_FLAGS = {c: {row[0]: (row[0][2:].replace("-", "_"), *row[1:])
              for row in (f if isinstance(f, tuple) else (f, *_FLAG_ROWS[f]) for f in flags)}
          for c, (_help, flags, _keys, _runner) in _COMMANDS.items()}
# config key -> the type of the flag it names; --config itself is no key
_CONFIG_TYPES = {dest: kind for flags in _FLAGS.values()
                 for dest, kind, _default, _text in flags.values() if dest != "config"}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    collecting = gc.isenabled()
    gc.disable()  # for this run only; see the module docstring
    try:
        args = _parse_args(argv)
        _help, _flags, keys, runner = _COMMANDS[args["command"]]
        cfg = _resolve(args)
        data, rows, lines = runner(cfg)
        emit_report(cfg, keys, data, rows, lines)
        if args["command"] == "check" and not data["passed"]:
            raise ValidationError("property suite reported violations")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, MemoryError) as exc:  # a MemoryError carries no message
        print(f"budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
