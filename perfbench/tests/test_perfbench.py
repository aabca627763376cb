"""Tests of the benchmark itself: oracles, seeds, tracing and accounting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (str(BENCH), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _report(argv) -> bytes:
    from hurwitz import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(list(argv)) == 0
    return buf.getvalue().encode()


def _job(workload: str, name: str, seed: int = 0):
    _, jobs = workloads.jobs_for(workload, seed)
    return next(j for j in jobs if j.name == name)


# -- oracles ---------------------------------------------------------------


def test_corrupted_report_fails_its_oracle():
    job = _job("modular-curves", "genus-D7")
    report = _report(job.argv)
    assert oracles.check(job, report) == []
    data = json.loads(report)
    data["orbits"][0]["genus"] += 1
    assert oracles.check(job, json.dumps(data).encode())
    assert oracles.check(job, report[: len(report) // 2])
    assert oracles.check(job, b"")


def test_corrupted_report_is_counted_as_failed(tmp_path, monkeypatch, capsys):
    """A checkout whose CLI prints a wrong report: every job fails."""
    pkg = tmp_path / "src" / "hurwitz"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(
        "import json, sys\n"
        "def run(argv):\n"
        "    sys.stdout.write(json.dumps({'orbits': []}))\n"
        "    return 0\n"
    )
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "modular-curves", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    jobs = len(workloads.modular_curves())
    assert result["attempted"] == jobs + run.SETUP_PROBES
    assert result["failed"] == jobs
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_real_job_passes_through_child():
    job = _job("modular-curves", "genus-D5")
    work = REPO / run.WORK_DIR
    work.mkdir(exist_ok=True)
    got = run.run_child(REPO, job, False, time.perf_counter() + 120,
                        work / "test-child.json")
    assert got.problems == []
    assert 0 < got.setup_s < 30 and 0 < got.job_s < 30 and got.rss_mb > 1


def test_seeds_change_inputs_not_answers():
    name = "tower-vector-l5-k0"
    a, b = _job("lattice-level0", name, 1), _job("lattice-level0", name, 2)
    assert a.argv != b.argv
    summaries = []
    for job in (a, b):
        report = _report(job.argv)
        assert oracles.check(job, report) == []
        (lvl,) = json.loads(report)["levels"]
        summaries.append((
            lvl["group_order"], lvl["ni_count"],
            sorted((o["size"], o["genus"], o["lift_invariant"] == "1")
                   for o in lvl["orbits"]),
        ))
    assert summaries[0] == summaries[1]


def test_generator_is_seeded_and_checked():
    for seed in range(50):
        m, jobs = workloads.jobs_for("lattice-level0", seed)
        assert (m, jobs) == workloads.jobs_for("lattice-level0", seed)
        assert m != workloads.COMPANION
        workloads.check_action(m)
    with pytest.raises(ValueError):
        workloads.check_action(((1, 0), (0, 1)))


# -- tracing ---------------------------------------------------------------


def _child(argv, trace: bool, result: Path) -> bytes:
    cmd = [sys.executable, str(BENCH / "child.py"), str(result),
           "1" if trace else "0", *argv]
    got = subprocess.run(cmd, cwd=REPO, env=run.child_env(REPO),
                         capture_output=True, timeout=120, check=True)
    return got.stdout


def test_traced_and_untraced_stdout_identical(tmp_path):
    argv = ["shinc", "--group", "A4", "--classes", "[3a,3a,3b,3b]",
            "--mode", "inner-reduced"]
    plain = _child(argv, False, tmp_path / "plain.json")
    traced = _child(argv, True, tmp_path / "traced.json")
    assert plain == traced and plain
    spans = json.loads((tmp_path / "traced.json").read_text())["spans"]
    names = {s[0] for s in spans}
    assert {"cli.run", "nielsen.enumerate_nielsen", "braid.braid_orbits",
            "geometry.sh_incidence", "nielsen.canonical_tuple"} <= names


def _bindings():
    """Every (owner, attr) -> object that a target could patch."""
    import hurwitz.cli  # noqa: F401  (loads every layer)

    out = {}
    for target in tracing.TARGETS:
        module = sys.modules[target.module]
        if "." in target.attr:
            cls, meth = target.attr.split(".")
            owner = getattr(module, cls)
            out[(owner, meth)] = owner.__dict__[meth]
            continue
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("hurwitz") and hasattr(mod, target.attr):
                out[(mod, target.attr)] = getattr(mod, target.attr)
    return out


def test_wrappers_restore_every_patched_name():
    before = _bindings()
    import hurwitz.cli as cli
    import hurwitz.tower as tower

    with tracing.Tracer():
        during = _bindings()
        assert cli.enumerate_nielsen is not before[(cli, "enumerate_nielsen")]
        assert tower.enumerate_nielsen is cli.enumerate_nielsen
        assert tower.genus_of_component is cli.genus_of_component
    assert sum(during[k] is not v for k, v in before.items()) >= len(tracing.TARGETS)
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_summarize_self_time_and_recursion():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["c", 0, 5.0, 7.0],
    ]
    got = tracing.summarize(spans)
    assert got["a.s"] == 10.0 and got["a.self_s"] == 5.0
    assert got["b.s"] == 3.0 and got["b.self_s"] == 3.0 and got["b.calls"] == 2
    assert got["c.self_s"] == 2.0


# -- contract --------------------------------------------------------------


def test_benchmark_json_matches_run_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_without_sources_exits_nonzero_silently(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tower-levels", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
