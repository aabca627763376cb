"""The benchmark's tracer names the level maps and Frattini steps of a tower run.

``perfbench/tracing.py`` is loaded from its file and only read; the tower
command runs under its ``Tracer`` as a benchmark job would.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from hurwitz import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TOWER = ["tower", "--family", "vector", "--ell", "2", "--classes", "[3a,3a,3b,3b]",
         "--k-max", "2", "--frattini", "--format", "json"]


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tower_spans_name_the_level_maps_and_frattini_steps(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(TOWER) == 0
    spans = tracer.spans

    def parents(name):
        return [spans[parent][0] for span, parent, _, _ in spans if span == name]

    # one level map per step, built with the level it maps from
    assert {"tower.build_level.k1", "tower.build_level.k2"} <= set(parents("lift.GroupHom"))
    assert parents("lift.is_frattini_cover") == ["tower.eventually_frattini_report"] * 2


# the lattice-level0 tower job at ell = 5 for the benchmark's seed-7 action
SEEDED_TOWER = ["tower", "--family", "vector", "--ell", "5", "--action", "[[1,-3],[1,-2]]",
                "--classes", "[3a,3a,3b,3b]", "--k-max", "0", "--format", "json"]


def test_tower_spans_show_the_lift_layer_under_the_level_report(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    with tracing.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(SEEDED_TOWER) == 0
    spans = tracer.spans
    parents = {name: {spans[parent][0] for span, parent, _, _ in spans if span == name}
               for name in ("lift.extend_action_to_heisenberg", "lift.lift_invariant")}
    assert parents == {"lift.extend_action_to_heisenberg": {"tower.level_to_dict"},
                       "lift.lift_invariant": {"tower.level_to_dict"}}
