"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload memory-replay --seed 1 --seconds 60 --trace 0

``--trace 0`` runs untraced iterations (each one a miss pass plus an
atlas-hit pass of fresh scenario processes), as many as the workload
allows unless the next one would overrun ``--seconds``, and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs one untraced and one traced
iteration and reports the per-layer metrics.  Either way an untimed
warm-up comes first.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every scenario run returned its expected rows and, under
``--trace 1``, the traced pass's accounting holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import (  # noqa: E402
    Session,
    accounting_problems,
    end_to_end,
    layer_metrics,
)
from perfbench.workloads import WORKLOADS  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(session: Session, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run the workload; return ``{metric: value}`` (every metric the mode
    reports, before selection by ``BENCHMARK.json``) and the traced
    pass's accounting problems."""
    session.warm()
    if trace:
        untraced = session.iteration()
        traced = session.iteration(trace=True)
        metrics, accounting = layer_metrics(
            traced, sum(p.wall_s for p in untraced))
        name, value = accounting["largest_self_time"]
        print(f"# traced execute {accounting['execute_s']:.4f} s = "
              f"layer self times + resolve {accounting['attributed_s']:.4f} s "
              f"+ unattributed ({accounting['unattributed_share']:+.2%}, "
              f"within tolerance: {accounting['within_tolerance']})")
        print(f"# largest self time: {name} {value:.4f} s")
        return metrics, accounting_problems(accounting)
    iterations = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        iterations.append(session.iteration())
        now = time.monotonic()
        if (len(iterations) == session.workload.iterations
                or now - start + (now - began) > seconds):
            break
    print(f"# {len(iterations)} iteration(s) in {now - start:.1f} s")
    return end_to_end(iterations), []


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    session = Session(WORKLOADS[args.workload], args.seed)
    problems: list = []
    try:
        measured, problems = measure(session, args.seconds, bool(args.trace))
    except (statistics.StatisticsError, KeyError):
        if not session.failed:
            raise
        measured = None  # failed processes left too little to measure
    finally:
        session.close()

    for why in session.failed:
        print(f"# FAILED {why}")
    for why in problems:
        print(f"# ACCOUNTING FAILED {why}")
    failed = len(session.failed)
    correct = failed == 0 and not problems
    print(f"# failed_frac {failed}/{session.attempted} = "
          f"{failed / max(1, session.attempted):.4f}")
    metrics = {}
    for m in wanted if measured is not None else ():
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"# {args.workload} {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
