"""One scenario process: set up, run a job's scenarios, report as JSON.

Spawned by :mod:`perfbench.harness` as ``python3 perfbench/worker.py
JOB_JSON`` with ``PERFBENCH_T0`` holding the parent's
``time.monotonic()`` just before the spawn (one system-wide clock on
Linux), so ``setup_s`` covers interpreter start, ``import repro``,
registry build, atlas open and runner construction — everything up to
the first ``Runner.run`` call.  The last stdout line is the report.
"""

import json
import os
import pathlib
import resource
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_one(runner, name: str, overrides: dict) -> dict:
    from perfbench.stats import rows_digest

    start = time.perf_counter()
    try:
        result = runner.run(name, **overrides)
    # The job must report every scenario, so a raising one is recorded
    # with its traceback and counted as failed by the parent.
    except Exception as exc:
        traceback.print_exc()
        return {"scenario": name, "error": f"{type(exc).__name__}: {exc}",
                "run_s": time.perf_counter() - start}
    run_s = time.perf_counter() - start
    return {
        "scenario": name,
        "spec_hash": result.spec_hash(),
        "ok": result.ok,
        "hit": result.cached_payload is not None,
        "rows": len(result.rows),
        "digest": rows_digest(result.rows),
        "run_s": run_s,
    }


def main(job: dict) -> dict:
    t0 = float(os.environ["PERFBENCH_T0"])
    # replaces the script's own directory, whose module names would
    # otherwise shadow top-level imports
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    start = time.monotonic()
    import repro  # noqa: F401  (the measured import)
    import_s = time.monotonic() - start

    start = time.monotonic()
    from repro.scenarios import Runner
    from repro.scenarios.registry import get_scenario

    for name, _ in job["scenarios"]:
        get_scenario(name)
    registry_s = time.monotonic() - start

    layers = telemetry = None
    if job["trace"]:
        from repro.telemetry import Telemetry

        from perfbench.layers import install

        layers = install()
        telemetry = Telemetry()

    atlas = None
    open_s = 0.0
    if job.get("atlas"):
        from repro.scenarios.atlas import AtlasStore

        start = time.monotonic()
        atlas = AtlasStore(job["atlas"])
        open_s = time.monotonic() - start

    runner = Runner(atlas=atlas, telemetry=telemetry)
    setup_s = time.monotonic() - t0
    runs = [_run_one(runner, name, overrides)
            for name, overrides in job["scenarios"]]
    if atlas is not None:
        atlas.close()

    report = {
        "setup_s": setup_s,
        "import_s": import_s,
        "registry_s": registry_s,
        "atlas_open_s": open_s,
        "runs": runs,
    }
    if layers is not None:
        report["layers"] = layers.report()
        report["telemetry"] = telemetry.snapshot()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
