"""Pin the expected rows of every workload input variant.

Usage, from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/pin.py

Runs each distinct job of every workload variant once in a fresh process
(no atlas) and writes ``perfbench/expected.json``: spec_hash -> scenario,
row count and the SHA-256 of the canonical rows.  Specs that a golden in
``benchmarks/results/golden/`` already pins are left to the golden.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import PINS, Session, load_goldens  # noqa: E402
from perfbench.workloads import VARIANTS, WORKLOADS  # noqa: E402


def main() -> int:
    goldens = load_goldens()
    pins: dict = {}
    seen: set = set()
    bad = []
    for workload in WORKLOADS.values():
        session = Session(workload, 0, check=False)
        try:
            for variant in range(VARIANTS):
                for job in workload.jobs(variant):
                    key = json.dumps(job.to_json()["scenarios"], sort_keys=True)
                    if key in seen:
                        continue
                    seen.add(key)
                    proc = session.spawn(
                        job, atlas=None, kernel_cache=session.work / "kernel-cache")
                    if not proc.report:
                        bad.append(f"{job.label}: {proc.failures}")
                    for run in proc.report.get("runs", []):
                        if run.get("error") or not run.get("ok"):
                            bad.append(f"{job.label}/{run['scenario']}: {run}")
                        elif run["spec_hash"] not in goldens:
                            pins[run["spec_hash"]] = {
                                "scenario": run["scenario"],
                                "rows": run["rows"],
                                "sha256": run["digest"],
                            }
        finally:
            session.close()
    if bad:
        print("not pinning; these runs failed:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")
    print(f"pinned {len(pins)} specs to {PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
