"""Bench regression gate: compare a refreshed BENCH_engine.json to a baseline.

``make bench-smoke`` rewrites ``BENCH_engine.json`` with freshly measured
sections; this script walks both the refreshed file and a committed
baseline, collects every recorded timing (keys ending in ``_seconds``,
matched by dotted path), and fails when any timing slowed down by more
than the tolerance factor:

    current > tolerance * max(baseline, floor)

The floor guards the sub-hundredth-second micro-timings (the batch-solver
best-of runs take a few milliseconds; scheduler jitter alone can triple
them) — a timing only gates at its own scale once its baseline is
measurable.  A timing whose baseline is under the floor is reported as
``under floor, gated at <limit> s``: it fails only past that absolute
limit, so a slowdown of its own size never trips the gate.  Paths
present on one side only are reported but never fail the gate: quick-mode
refreshes legitimately carry different instance sizes than a full run,
but their section structure is identical.

Exact work counters are gated apart from the timings.  The sections in
``EXACT_SECTIONS`` (the solo replay's ``drive.*`` counters and the
traced tier's stored rounds, suffix-merge keys and intern-table entries
on ``verify-small``) count work, not time: they repeat exactly from run
to run, so any difference from the baseline fails and names the counter (a counter missing on one
side counts 0).  A change that moves them on purpose re-records the
baseline and says why.  A section missing from the baseline is skipped.

``--require <section>`` (repeatable) registers a top-level section that
must exist non-empty in the current file — a benchmark silently dropping
out of ``bench-smoke`` would otherwise read as "no regression" (its
timings land on the never-fatal "only in baseline" path).  The Makefile
requires every recorded section (throughput, delay_sweep, lowering,
kernel, telemetry_overhead, solo_replay, traced_memory).

Usage (what ``make check-regression`` and the CI job run)::

    python benchmarks/check_regression.py \
        --baseline /tmp/BENCH_engine.baseline.json --current BENCH_engine.json \
        --require kernel --require lowering

Exit status: 0 = within tolerance, 1 = regression, changed exact counter
or missing required section, 2 = unusable inputs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_TOLERANCE = 2.5
DEFAULT_FLOOR = 0.02  # seconds: baselines below this are jitter-dominated
#: Dotted paths of ``{counter: count}`` sections gated for equality.
EXACT_SECTIONS = ("solo_replay.drive", "traced_memory.counts")


def collect_timings(payload, prefix: str = "") -> dict[str, float]:
    """Every ``*_seconds`` number in the document, keyed by dotted path."""
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and str(key).endswith("_seconds")
            ):
                out[path] = float(value)
            else:
                out.update(collect_timings(value, path))
    elif isinstance(payload, list):
        for idx, value in enumerate(payload):
            out.update(collect_timings(value, f"{prefix}[{idx}]"))
    return out


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    floor: float = DEFAULT_FLOOR,
) -> tuple[list[str], list[str]]:
    """(regressions, notes) — human-readable lines."""
    regressions: list[str] = []
    notes: list[str] = []
    for path in sorted(set(baseline) | set(current)):
        if path not in current:
            notes.append(f"  - {path}: only in baseline (skipped)")
            continue
        if path not in baseline:
            notes.append(f"  - {path}: only in current (skipped)")
            continue
        base = baseline[path]
        cur = current[path]
        limit = tolerance * max(base, floor)
        ratio = cur / base if base > 0 else float("inf")
        line = f"{path}: {base:.4f}s -> {cur:.4f}s ({ratio:.2f}x)"
        if base < floor:
            line += f", under floor, gated at {limit:.4f} s"
        if cur > limit:
            regressions.append(f"  ! {line} exceeds {tolerance}x tolerance")
        else:
            notes.append(f"  . {line}")
    return regressions, notes


def _section(payload, dotted: str):
    """The dict at ``dotted`` in ``payload``, or ``None``."""
    for key in dotted.split("."):
        if not isinstance(payload, dict):
            return None
        payload = payload.get(key)
    return payload if isinstance(payload, dict) else None


def compare_counters(baseline_payload, current_payload) -> tuple[list[str], list[str]]:
    """(changed, notes) over ``EXACT_SECTIONS`` — human-readable lines."""
    changed: list[str] = []
    notes: list[str] = []
    for dotted in EXACT_SECTIONS:
        base = _section(baseline_payload, dotted)
        if base is None:
            notes.append(f"  - {dotted}: not in baseline (skipped)")
            continue
        cur = _section(current_payload, dotted) or {}
        for name in sorted(set(base) | set(cur)):
            line = f"{dotted}.{name}: {base.get(name, 0)} -> {cur.get(name, 0)}"
            if base.get(name, 0) != cur.get(name, 0):
                changed.append(f"  ! {line}")
            else:
                notes.append(f"  = {line}")
    return changed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=pathlib.Path,
                        help="committed BENCH_engine.json snapshot")
    parser.add_argument("--current", required=True, type=pathlib.Path,
                        help="freshly refreshed BENCH_engine.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="fail on current > tolerance * baseline "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                        help="baseline floor in seconds for jitter-dominated "
                             f"micro-timings (default {DEFAULT_FLOOR})")
    parser.add_argument("--require", action="append", default=[],
                        metavar="SECTION",
                        help="top-level section that must exist non-empty "
                             "in the current file (repeatable)")
    args = parser.parse_args(argv)

    try:
        baseline_payload = json.loads(args.baseline.read_text())
        baseline = collect_timings(baseline_payload)
        current_payload = json.loads(args.current.read_text())
        current = collect_timings(current_payload)
    except (OSError, ValueError) as exc:
        print(f"check_regression: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"check_regression: no *_seconds timings in {args.baseline}",
              file=sys.stderr)
        return 2

    missing = [
        section for section in args.require
        if not current_payload.get(section)
    ]
    if missing:
        print("required section(s) missing from "
              f"{args.current}: {', '.join(missing)}")
        return 1

    regressions, notes = compare(
        baseline, current, tolerance=args.tolerance, floor=args.floor
    )
    changed, counter_notes = compare_counters(baseline_payload, current_payload)
    print(f"bench regression gate: {len(baseline)} baseline timings, "
          f"tolerance {args.tolerance}x, floor {args.floor}s")
    for line in notes + counter_notes:
        print(line)
    if regressions:
        print(f"\n{len(regressions)} timing(s) regressed:")
        for line in regressions:
            print(line)
    if changed:
        print(f"\n{len(changed)} exact counter(s) changed:")
        for line in changed:
            print(line)
    if regressions or changed:
        return 1
    print("\nall recorded timings within tolerance, exact counters unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
