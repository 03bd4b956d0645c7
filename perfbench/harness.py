"""The closed loop: spawn a workload's scenario processes one at a time,
check their rows, and reduce their reports to the benchmark's metrics.

One *iteration* runs every job of the workload once (the miss pass, each
atlas job against a fresh atlas database) and re-runs each atlas job
right after it (the hit pass).  End-to-end metrics come from untraced iterations; the
per-layer metrics from one traced iteration (:func:`layer_metrics`).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench.stats import row_mismatch, rows_digest
from perfbench.workloads import WARM, Job, Workload

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
PINS = ROOT / "perfbench" / "expected.json"
GOLDEN = ROOT / "benchmarks" / "results" / "golden"
BUILD = ROOT / ".bench_build" / "perfbench"

#: A scenario process that runs longer than this is killed and failed.
PROCESS_TIMEOUT_S = 120


@dataclass
class Proc:
    """One finished scenario process."""

    job: Job
    hit_pass: bool
    wall_s: float
    report: dict  # the worker's report; {} when it died without one
    failures: list = field(default_factory=list)


def load_goldens(root: pathlib.Path = GOLDEN) -> dict:
    """spec_hash -> expected rows of each golden-pinned scenario."""
    goldens = {}
    for path in sorted(root.glob("*.json")):
        payload = json.loads(path.read_text())
        goldens[payload["spec_hash"]] = {
            "rows": len(payload["rows"]),
            "sha256": rows_digest(payload["rows"]),
        }
    return goldens


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


class Session:
    """One benchmark run's scratch space and correctness ledger."""

    def __init__(self, workload: Workload, seed: int, *, check: bool = True):
        self.workload = workload
        self.seed = seed
        self.work = BUILD / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.goldens = load_goldens() if check else {}
        self.pins = load_pins() if check else {}
        self.check = check
        self.attempted = 0
        self.failed: list[str] = []
        self.iterations = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _env(self, kernel_cache: pathlib.Path) -> dict:
        env = dict(os.environ)
        # Bytecode is cached under .bench_build whatever the caller's
        # settings, so every process imports from a warm cache.
        for name in ("REPRO_KERNEL", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            env.pop(name, None)
        env.update({
            "REPRO_KERNEL_CACHE": str(kernel_cache),
            "PYTHONHASHSEED": "0",
            "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
        })
        return env

    def spawn(self, job: Job, *, atlas, kernel_cache, trace=False,
              hit_pass=False) -> Proc:
        payload = {**job.to_json(), "trace": trace,
                   "atlas": str(atlas) if atlas is not None else None}
        env = self._env(kernel_cache)
        t0 = time.monotonic()
        env["PERFBENCH_T0"] = repr(t0)
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(payload)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = Proc(job, hit_pass, time.monotonic() - t0, {})
            proc.failures.append(f"{job.label}: killed after {PROCESS_TIMEOUT_S} s")
            self._ledger(proc)
            return proc
        wall = time.monotonic() - t0
        report = {}
        lines = done.stdout.strip().splitlines()
        if done.returncode == 0 and lines:
            report = json.loads(lines[-1])
        proc = Proc(job, hit_pass, wall, report)
        print(f"#   {job.label}{' (hit)' if hit_pass else ''}: wall {wall:.3f} s, "
              f"setup {report.get('setup_s', 0):.3f} s, "
              f"run {_run_s(proc):.3f} s", file=sys.stderr)
        if not report:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            proc.failures.append(
                f"{job.label}: exited {done.returncode} ({tail[0]})")
        self._ledger(proc)
        return proc

    def _ledger(self, proc: Proc) -> None:
        """Count the process's scenario runs and record every failure."""
        runs = proc.report.get("runs", [])
        self.attempted += max(len(proc.job.scenarios), len(runs))
        if not proc.report:
            # every scenario of a dead process failed
            self.failed.extend(proc.failures * max(1, len(proc.job.scenarios)))
            return
        for run in runs:
            why = None
            if self.check:
                why = row_mismatch(run, self.goldens, self.pins)
            if why is None and proc.hit_pass and not run.get("hit"):
                why = "expected an atlas hit, the run missed"
            if why is not None:
                self.failed.append(f"{proc.job.label}/{run['scenario']}: {why}")

    def warm(self) -> None:
        """Untimed: compile every module into the bytecode cache (a module
        a scenario imports lazily would otherwise be compiled inside the
        first iteration's ``Runner.run``), then import ``repro`` once."""
        cache = self.work / "kernel-cache-warm"
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", "perfbench"],
            cwd=ROOT, env=self._env(cache), capture_output=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        self.spawn(WARM, atlas=None, kernel_cache=cache)

    def iteration(self, *, trace: bool = False) -> list[Proc]:
        """One miss pass plus its atlas-hit pass.

        Each atlas job's hit process runs right after its miss process,
        not in a block at the end: a hit process is little more than
        interpreter start-up, and spreading the hits over the iteration
        keeps one slow stretch of the shared host from slowing them all.
        """
        self.iterations += 1
        tag = f"{self.iterations}{'-trace' if trace else ''}"
        atlas = self.work / f"atlas-{tag}.sqlite"
        cache = self.work / f"kernel-cache-{tag}"
        procs = []
        for job in self.workload.jobs(self.seed):
            procs.append(self.spawn(job, atlas=atlas if job.atlas else None,
                                    kernel_cache=cache, trace=trace))
            if job.atlas:
                procs.append(self.spawn(job, atlas=atlas, kernel_cache=cache,
                                        trace=trace, hit_pass=True))
        return procs


def _run_s(proc: Proc) -> float:
    return sum(r["run_s"] for r in proc.report.get("runs", []))


def end_to_end(iterations: list[list[Proc]]) -> dict:
    """The end-to-end metrics over untraced iterations (values only).

    Every iteration spawns the same processes, and each process is timed
    at its best over the iterations: a shared host's speed swings within
    seconds, and the fastest of a few runs of a short process is what
    stays put from run to run.  The number of iterations is capped per
    workload, so faster code gets no more tries than slower code.
    ``wall_s`` is one iteration's wall time (its miss pass and its hit
    pass) summed over those best process walls; ``scenario_p50_s`` is the
    median over the miss-pass processes of their best ``Runner.run``
    times, ``hit_p50_s`` the median over the hit-pass processes of their
    best walls, and ``setup_s`` the median over every process of its best
    set-up time.
    """
    complete = [it for it in iterations if all(p.report for p in it)]
    procs = [p for it in complete for p in it]
    walls: dict = {}
    runs: dict = {}
    setups: dict = {}
    for p in procs:
        key = (p.job.label, p.hit_pass)
        walls.setdefault(key, []).append(p.wall_s)
        runs.setdefault(key, []).append(_run_s(p))
        setups.setdefault(key, []).append(p.report["setup_s"])
    return {
        "wall_s": sum(min(v) for v in walls.values()),
        "scenario_p50_s": statistics.median(
            min(v) for k, v in runs.items() if not k[1]),
        "setup_s": statistics.median(min(v) for v in setups.values()),
        "hit_p50_s": statistics.median(
            min(v) for k, v in walls.items() if k[1]),
        "peak_rss_mb": max(p.report["maxrss_kb"] for p in procs) / 1024,
    }


#: per-layer self-time metric -> span name
_SELF_TIMES = {
    "core.memory.measure_s": "core.memory.measure",
    "sim.kernel.solve_s": "sim.kernel.solve",
    "sim.kernel.table_s": "sim.kernel.table",
    "sim.traced.trace_s": "sim.traced.trace",
    "sim.traced.run_pairs_s": "sim.traced.run_pairs",
    "sim.traced.sweep_s": "sim.traced.sweep",
    "sim.compiled.solve_s": "sim.compiled.solve",
    "sim.compiled.run_s": "sim.compiled.run",
    "sim.faults.solve_s": "sim.faults.solve",
    "sim.gathering_solver.solve_s": "sim.gathering_solver.solve",
    "sim.multi.run_s": "sim.multi.run",
    "sim.engine.run_s": "sim.engine.run",
    "agents.lowering.lowered_for_s": "agents.lowering.lowered_for",
    "scenarios.backends.run_s": "scenarios.backends.run",
    "scenarios.backends.sweep_delays_s": "scenarios.backends.sweep_delays",
    "scenarios.backends.sweep_gathering_s": "scenarios.backends.sweep_gathering",
    "scenarios.backends.run_pairs_s": "scenarios.backends.run_pairs",
    "scenarios.atlas.lookup_s": "scenarios.atlas.lookup",
    "scenarios.atlas.save_s": "scenarios.atlas.save",
    "scenarios.runner.execute_self_s": "scenarios.runner.execute",
}

#: per-layer counters copied from the telemetry the runner collects
_COUNTERS = (
    "kernel.frontier.lane_steps",
    "kernel.table.build",
    "kernel.table.disk_hit",
    "kernel.table.memo_hit",
    "lowering.memo.hit",
    "lowering.memo.miss",
    "lowering.refusal",
    "backend.dispatch.sweep_delays.exact",
    "backend.dispatch.sweep_delays.traced",
    "backend.dispatch.sweep_delays.per_run",
    "backend.dispatch.sweep_gathering.exact",
    "backend.dispatch.sweep_gathering.traced",
    "backend.dispatch.sweep_gathering.per_run",
    "backend.dispatch.run_pairs.kernel",
    "backend.dispatch.run_pairs.traced",
    "backend.dispatch.run_pairs.per_pair",
)

#: Largest share of the traced execute time the unattributed bucket may
#: take, and how far below zero it may read from clock granularity.
UNATTRIBUTED_TOLERANCE = (-0.01, 0.10)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[Proc], untraced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and its accounting.

    The accounting identity is: the self times of every span inside
    ``Runner.run``, plus the runner's resolve phase, plus ``unattributed``
    equal the traced execute time (the summed ``Runner.run`` times).
    ``scenarios.runner.execute`` wraps the executor, so whatever the
    executors and ``analysis/`` drivers do outside a wrapped layer is
    their self time; ``unattributed`` is what ``Runner.run`` spends
    outside both (spec hashing, result assembly, atlas bookkeeping).
    """
    procs = [p for p in traced if p.report]
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    counters: dict = {}
    phases: dict = {}
    rounds = 0
    for p in procs:
        layers = p.report["layers"]
        for src, dst in ((layers["self_s"], self_s), (layers["total_s"], total_s),
                         (layers["calls"], calls),
                         (p.report["telemetry"]["counters"], counters),
                         (p.report["telemetry"]["phases"], phases)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        rounds += layers["rounds"]

    m = {metric: self_s.get(span, 0.0) for metric, span in _SELF_TIMES.items()}
    m["setup.import_s"] = sum(p.report["import_s"] for p in procs)
    m["setup.registry_s"] = sum(p.report["registry_s"] for p in procs)
    m["scenarios.atlas.open_s"] = sum(p.report["atlas_open_s"] for p in procs)
    m["scenarios.runner.resolve_s"] = phases.get("resolve", 0.0)
    m["core.memory.calls"] = calls.get("core.memory.measure", 0)
    m["core.memory.rounds"] = rounds
    m["core.memory.rounds_per_s"] = _ratio(
        rounds, total_s.get("core.memory.measure", 0.0))
    m["sim.engine.calls"] = calls.get("sim.engine.run", 0)
    for name in _COUNTERS:
        m[name] = counters.get(name, 0)
    m["backend.fallback"] = sum(
        v for k, v in counters.items() if k.startswith("backend.fallback."))
    m["sim.kernel.lane_steps_per_s"] = _ratio(
        counters.get("kernel.frontier.lane_steps", 0),
        total_s.get("sim.kernel.solve", 0.0))
    m["sim.traced.cache_hit_ratio"] = _ratio(
        counters.get("trace.cache.hit", 0) + counters.get("trace.cache.mirror", 0),
        sum(counters.get(f"trace.cache.{k}", 0)
            for k in ("hit", "mirror", "miss", "uncacheable")))
    m["scenarios.atlas.hit_ratio"] = _ratio(
        sum(bool(r.get("hit")) for p in procs for r in p.report["runs"]),
        sum(len(p.report["runs"]) for p in procs if p.job.atlas))

    execute = sum(_run_s(p) for p in procs)
    attributed = sum(self_s.values()) + m["scenarios.runner.resolve_s"]
    m["trace.execute_s"] = execute
    m["trace.unattributed_s"] = execute - attributed
    m["trace.wall_s"] = sum(p.wall_s for p in traced)
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_ratio"] = _ratio(m["trace.wall_s"], untraced_wall_s)
    share = _ratio(m["trace.unattributed_s"], execute)
    low, high = UNATTRIBUTED_TOLERANCE
    accounting = {
        "execute_s": execute,
        "attributed_s": attributed,
        "unattributed_share": share,
        "within_tolerance": low <= share <= high,
        "largest_self_time": max(
            ((k, v) for k, v in m.items() if k in _SELF_TIMES), key=lambda kv: kv[1]),
        "missing_targets": sorted({t for p in procs
                                   for t in p.report["layers"]["missing"]}),
    }
    return m, accounting


def accounting_problems(accounting: dict) -> list[str]:
    """Why a traced pass's accounting fails, or ``[]`` when it holds.

    It fails when the unattributed share leaves
    :data:`UNATTRIBUTED_TOLERANCE`, or when a layer target is missing
    from the library (its metrics would silently read 0).
    """
    problems = []
    if not accounting["within_tolerance"]:
        low, high = UNATTRIBUTED_TOLERANCE
        problems.append(
            f"unattributed share {accounting['unattributed_share']:+.2%} of the "
            f"traced execute time is outside {low:+.0%}..{high:+.0%}")
    for target in accounting["missing_targets"]:
        problems.append(f"layer target {target} not found")
    return problems
