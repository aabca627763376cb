"""Benchmark of the hurwitz CLI on fixed, seeded job lists.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: lattice-level0, modular-curves, tower-levels (see NOTES.md).
Each job is one ``hurwitz.cli.run`` call in its own fresh interpreter, sent
in a closed loop by one client: the next job starts when the previous one
has exited.  ``HURWITZ_WORKERS`` is removed from the jobs' environment and no
``--workers`` flag is passed.  Every report is checked by ``oracles``; a job
fails when it exits non-zero, times out, or its report fails its oracle.

With ``--trace 0`` the run makes a few set-up probes (import only), one
pass over the job list, and then sends the jobs again, round after round,
as long as each is expected to end within ``--seconds`` of the first pass's
start.  A job's time is its fastest sample.  It prints the end-to-end
metrics.  With ``--trace 1`` it makes one untraced pass and one
traced pass and prints the per-layer metrics of the traced pass, together
with the tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the run record.  Exit code 0 when every job passed, 1 when some failed, 2
when the checkout has no hurwitz sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_TIMES = (
    "nielsen.enumerate_nielsen.self_s", "nielsen.canonical_tuple.s",
    "groups.make_group.s", "groups.conjugacy_classes.s",
    "groups.normalizer_in_sym.s", "braid.braid_orbits.self_s",
    "braid.cusp_orbits.s", "geometry.genus_of_component.s",
    "geometry.sh_incidence.self_s", "geometry.moduli_flags.s",
    "lift.extend_action_to_heisenberg.s", "lift.lift_invariant.s",
    "lift.GroupHom.s", "lift.is_frattini_cover.s",
    "tower.component_tree.self_s", "tower.build_level.k0.s",
    "tower.build_level.k1.s", "tower.build_level.k2.s", "tower.cusp_type.s",
    "tower.level_to_dict.self_s", "tower.eventually_frattini_report.s",
    "cli.run.self_s", "cli.emit_report.s", "trace.overhead_s",
)
_COUNTS = (
    "nielsen.enumerate_nielsen.calls", "nielsen.classes",
    "nielsen.canonical_tuple.calls", "nielsen.reduced_canonical_tuple.calls",
    "groups.make_group.calls", "groups.order_sum", "braid.orbits",
    "braid.members", "braid.cusps", "geometry.genus_of_component.calls",
    "lift.lift_invariant.calls", "tower.cusp_type.calls",
)
PER_LAYER = {
    **{name: "s" for name in _TIMES},
    **{name: "count" for name in _COUNTS},
    "cli.report_bytes": "B",
}


@dataclass
class JobRun:
    """One child process: its timings, peak RSS, report size and problems."""

    name: str
    setup_s: float | None = None
    job_s: float | None = None
    rss_mb: float | None = None
    elapsed_s: float = 0.0
    report_bytes: int = 0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("HURWITZ_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, job, trace: bool, deadline: float,
              result_file: Path) -> JobRun:
    """Launch one child; ``job`` None makes a set-up probe."""
    out = JobRun(name="setup-probe" if job is None else job.name)
    argv = () if job is None else job.argv
    cmd = [sys.executable, str(HERE / "child.py"), str(result_file),
           "1" if trace else "0", *argv]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        out.problems.append("not started: run time limit reached")
        return out
    launch = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out.problems.append(f"timed out after {timeout:.0f} s")
        return out
    finally:
        out.elapsed_s = time.perf_counter() - launch
    try:
        record = json.loads(result_file.read_text(encoding="utf-8"))
        result_file.unlink()
    except (OSError, ValueError):
        record = None
    if proc.returncode != 0 or record is None:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        out.problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
        return out
    out.setup_s = record["ready"] - launch
    out.rss_mb = record["maxrss_kb"] / 1024
    if not Path(record["module"]).resolve().is_relative_to(root / "src"):
        out.problems.append(f"imported hurwitz from {record['module']}")
    if job is not None:
        out.job_s = record["end"] - record["ready"]
        out.report_bytes = len(stdout)
        out.problems += oracles.check(job, stdout)
        out.spans = record.get("spans", [])
        out.counters = record.get("counters", {})
    return out


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.launched = 0

    def one(self, job, trace: bool) -> JobRun:
        self.launched += 1
        result_file = self.work / f"child-{os.getpid()}-{self.launched}.json"
        return run_child(self.root, job, trace, self.deadline, result_file)

    def run_pass(self, jobs, trace: bool) -> list[JobRun]:
        return [self.one(job, trace) for job in jobs]

    def repeat(self, jobs, first: list[JobRun], until: float) -> list[list[JobRun]]:
        """Send the jobs again, in order and round after round, skipping a
        job whose last run failed or would not end by ``until``; stop when a
        round sends nothing.  Short jobs so get more samples than long ones."""
        last = {r.name: r for r in first}
        rounds = []
        while True:
            sent = []
            for job in jobs:
                prev = last[job.name]
                end = min(until, self.deadline)
                if prev.problems or time.perf_counter() + prev.elapsed_s > end:
                    continue
                last[job.name] = self.one(job, trace=False)
                sent.append(last[job.name])
            if not sent:
                return rounds
            rounds.append(sent)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _pass_wall(runs: list[JobRun]) -> float:
    return sum(r.job_s or 0.0 for r in runs)


def end_to_end_metrics(probes, passes) -> tuple[dict, dict]:
    """Metric values and their sample counts for an untraced run.

    Each job's time is its fastest sample in the run, because host noise
    only ever slows a job down; ``wall_s`` sums those times and
    ``job_s.p50`` is their median.
    """
    jobs = [r for p in passes for r in p]
    by_job: dict = {}
    for r in jobs:
        if r.job_s is not None:
            by_job.setdefault(r.name, []).append(r.job_s)
    per_job = [min(v) for v in by_job.values()]
    setups = [r.setup_s for r in probes + jobs if r.setup_s is not None]
    rss = [r.rss_mb for r in jobs if r.rss_mb is not None]
    samples = sum(len(v) for v in by_job.values())
    values = {
        "wall_s": sum(per_job),
        "job_s.p50": _median(per_job),
        "setup_s": _median(setups),
        "peak_rss_mb": max(rss, default=0.0),
    }
    counts = {"wall_s": samples, "job_s.p50": samples,
              "setup_s": len(setups), "peak_rss_mb": len(rss)}
    return values, counts


def per_layer_metrics(plain, traced) -> tuple[dict, dict]:
    """Per-layer values summed over the traced pass's jobs; layers that did
    not run report 0.  ``trace.overhead_s`` is the traced pass's wall time
    minus the untraced pass's."""
    totals: dict = {}
    for r in traced:
        parts = [tracing.summarize(r.spans), r.counters,
                 {"cli.report_bytes": r.report_bytes}]
        for part in parts:
            for key, value in part.items():
                totals[key] = totals.get(key, 0) + value
    totals["trace.overhead_s"] = _pass_wall(traced) - _pass_wall(plain)
    values = {name: totals.get(name, 0) for name in PER_LAYER}
    return values, {name: len(traced) for name in PER_LAYER}


def _src_digest(root: Path) -> str:
    """Identifies the measured code where the checkout is not a git repo."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str:
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def run_record(root: Path, args, action) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "action": workloads.matrix_text(action),
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _write_spans(path: Path, passes_traced: list[JobRun]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for job_id, r in enumerate(passes_traced):
            for index, (name, parent, start, end) in enumerate(r.spans):
                fh.write(json.dumps([job_id, r.name, index, parent, name,
                                     start, end]) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd().resolve()
    if not (root / "src" / "hurwitz" / "cli.py").is_file():
        print(f"error: no hurwitz sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    action, jobs = workloads.jobs_for(args.workload, args.seed)
    record = run_record(root, args, action)
    runner = Runner(root, start + RUN_LIMIT_S)

    probes: list[JobRun] = []
    passes: list[list[JobRun]] = []
    if args.trace:
        plain = runner.run_pass(jobs, trace=False)
        traced = runner.run_pass(jobs, trace=True)
        passes = [plain, traced]
        values, counts = per_layer_metrics(plain, traced)
        units = PER_LAYER
        _write_spans(runner.work / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     traced)
    else:
        probes = [runner.one(None, trace=False) for _ in range(SETUP_PROBES)]
        until = time.perf_counter() + args.seconds
        passes = [runner.run_pass(jobs, trace=False)]
        passes += runner.repeat(jobs, passes[0], until)
        values, counts = end_to_end_metrics(probes, passes)
        units = END_TO_END

    runs = probes + [r for p in passes for r in p]
    failed = [r for r in runs if r.problems]
    attempted = len(runs)
    record.update(rounds=len(passes), attempted=attempted, failed=len(failed),
                  fail_ratio=len(failed) / attempted,
                  elapsed_s=time.perf_counter() - start)
    print("# run " + json.dumps(record, sort_keys=True))
    for r in runs:
        state = "ok" if not r.problems else "FAILED " + "; ".join(r.problems)
        print(f"# job {r.name}: setup {r.setup_s or 0:.4f} s, "
              f"job {r.job_s or 0:.4f} s, rss {r.rss_mb or 0:.1f} MiB, {state}")
    for name, unit in units.items():
        print(f"# metric {name} = {values[name]:.6g} {unit} (n={counts[name]})")
    if not args.trace:
        # in the record only: its spread over seeds exceeds any allowed
        # bound on a shared host (see NOTES.md)
        print(f"# figure job_s.p50 = {values['job_s.p50']:.6g} s "
              f"(n={counts['job_s.p50']})")
    jobs_run = [[r.name, r.setup_s, r.job_s, r.rss_mb, r.problems] for r in runs]
    (runner.work / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**record, "metrics": values, "jobs": jobs_run},
                             sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
