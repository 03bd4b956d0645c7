"""Steadiness mode: run each workload repeatedly and summarize.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 10 --record-baseline COMMIT

Each run is ``perfbench/run.py --trace 0`` with its own seed
(``first-seed``, ``first-seed + 1``, ...).  For every workload and
end-to-end metric this prints the median, the quartiles, the sample
count, the spread (interquartile distance over median) and whether the
spread fits the metric's bound in ``BENCHMARK.json``; then the failed
fraction over every scenario run attempted.  ``--record-baseline``
writes the summary, with the machine's provenance, to
``perfbench/baseline.json``.  Exits non-zero when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402

BASELINE = ROOT / "perfbench" / "baseline.json"


def provenance() -> dict:
    """nproc, Python, numpy and whether the repro kernel is enabled."""
    probe = ("import sys, json; sys.path.insert(0, 'src'); import numpy; "
             "from repro.sim.kernel import kernel_available; "
             "print(json.dumps([numpy.__version__, kernel_available()]))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    numpy_version, kernel = json.loads(out.stdout)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "kernel_enabled": kernel,
            "platform": platform.platform()}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=declared["run_seconds"])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in declared["workloads"]])
    p.add_argument("--record-baseline", metavar="COMMIT")
    args = p.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    attempted = failed = 0
    broken = []
    summary = {}
    for workload in args.workloads:
        samples = {m["name"]: [] for m in declared["end_to_end"]}
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                broken.append(f"{workload} seed {seed}: exit {done.returncode}")
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if done.returncode or not result["correct"]:
                broken.append(f"{workload} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                samples[name].append(metric["value"])
        summary[workload] = {}
        print(f"\n{workload} ({len(seeds)} seeds from {seeds[0]})")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"
              f"{'spread':>9}{'bound':>7}  fits")
        for m in declared["end_to_end"]:
            vals = samples[m["name"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "unit": m["unit"], "spread": sp, "values": vals,
            }
            print(f"  {m['name']:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{len(vals):>4}{sp:>9.2%}{m['bound']:>7.0%}  "
                  f"{'yes' if sp <= m['bound'] else 'NO'} {m['unit']}")
        for name, vals in samples.items():
            print(f"  {name} by seed: {' '.join(f'{v:.5g}' for v in vals)}")
    print(f"\nfailed_frac {failed}/{attempted} = {failed / max(1, attempted):.4f}")
    for line in broken:
        print(f"  FAILED {line}")

    if args.record_baseline:
        BASELINE.write_text(json.dumps({
            "commit": args.record_baseline,
            "seeds": seeds,
            "run_seconds": args.seconds,
            "provenance": provenance(),
            "failed_frac": failed / max(1, attempted),
            "workloads": summary,
        }, indent=2) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
