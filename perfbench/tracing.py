"""Spans around the public entry points of every hurwitz layer, from outside.

``Tracer`` replaces each target function or method with a wrapper that
records a span ``[name, parent, start, end]`` and, for some targets, adds
counters computed from the returned object.  A function is patched in its
defining module and in every ``hurwitz`` module that bound it with
``from ... import``, so calls through any of those names are seen; methods
are patched on their class.  Leaving the ``with`` block restores every
patched name.  Spans stay in memory; the caller writes them out.

The wrappers keep one stack of open spans, so they assume one thread: the
benchmark runs the CLI without worker threads.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


def _build_level_name(args, kwargs) -> str:
    k = kwargs["k"] if "k" in kwargs else args[2]
    return f"tower.build_level.k{k}"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` is ``"func"`` or ``"Class.method"``."""

    span: str
    module: str
    attr: str
    count: Callable[[object], dict] | None = None
    namer: Callable[[tuple, dict], str] | None = None


TARGETS = (
    Target("cli.run", "hurwitz.cli", "run"),
    Target("cli.emit_report", "hurwitz.cli", "emit_report"),
    Target("groups.make_group", "hurwitz.groups", "make_group"),
    Target("groups.close", "hurwitz.groups", "FiniteGroup.close",
           count=lambda r: {"groups.order_sum": len(r)}),
    Target("groups.conjugacy_classes", "hurwitz.groups",
           "FiniteGroup.conjugacy_classes"),
    Target("groups.normalizer_in_sym", "hurwitz.groups", "normalizer_in_sym"),
    Target("nielsen.enumerate_nielsen", "hurwitz.nielsen", "enumerate_nielsen",
           count=lambda r: {"nielsen.classes": r.count}),
    Target("nielsen.canonical_tuple", "hurwitz.nielsen",
           "ConjAction.canonical_tuple"),
    Target("nielsen.reduced_canonical_tuple", "hurwitz.nielsen",
           "ConjAction.reduced_canonical_tuple"),
    Target("braid.braid_orbits", "hurwitz.braid", "braid_orbits",
           count=lambda r: {"braid.orbits": len(r),
                            "braid.members": sum(o.size for o in r)}),
    Target("braid.cusp_orbits", "hurwitz.braid", "cusp_orbits",
           count=lambda r: {"braid.cusps": len(r)}),
    Target("geometry.genus_of_component", "hurwitz.geometry",
           "genus_of_component"),
    Target("geometry.sh_incidence", "hurwitz.geometry", "sh_incidence"),
    Target("geometry.moduli_flags", "hurwitz.geometry", "moduli_flags"),
    Target("lift.extend_action_to_heisenberg", "hurwitz.lift",
           "extend_action_to_heisenberg"),
    Target("lift.lift_invariant", "hurwitz.lift", "lift_invariant"),
    Target("lift.GroupHom", "hurwitz.lift", "GroupHom.__init__"),
    Target("lift.is_frattini_cover", "hurwitz.lift", "is_frattini_cover"),
    Target("tower.component_tree", "hurwitz.tower", "component_tree"),
    Target("tower.build_level", "hurwitz.tower", "build_level",
           namer=_build_level_name),
    Target("tower.cusp_type", "hurwitz.tower", "cusp_type"),
    Target("tower.level_to_dict", "hurwitz.tower", "TowerLevel.to_dict"),
    Target("tower.eventually_frattini_report", "hurwitz.tower",
           "eventually_frattini_report"),
)


class Tracer:
    """Collects spans and counters while installed as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._install(target)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._patch(owner, meth, original, self._wrap(target, original))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(target, original)
        for name, mod in list(sys.modules.items()):
            if (name == "hurwitz" or name.startswith("hurwitz.")) and \
                    getattr(mod, target.attr, None) is original:
                self._patch(mod, target.attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        name, namer, count = target.span, target.namer, target.count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                counters.update(count(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans) -> dict:
    """Per span name: inclusive seconds ``.s`` (outermost spans of that name
    only, so recursion is not counted twice), self seconds ``.self_s``
    (duration minus the time its child spans cover) and ``.calls``.

    ``spans`` are one job's ``[name, parent, start, end]`` records, with
    ``parent`` the index of the enclosing span or -1.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        out[name + ".self_s"] += dur - child_time[i]
        out[name + ".calls"] += 1
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            out[name + ".s"] += dur
    return dict(out)
