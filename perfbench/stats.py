"""The harness's own arithmetic: order statistics, self-time accounting
over nested spans, and the expected-row comparison.

Kept free of ``repro`` imports so the unit tests in
``perfbench/test_perfbench.py`` exercise it without the library.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from typing import Callable, Iterable, Mapping, Optional

__all__ = [
    "quartiles",
    "spread",
    "Spans",
    "rows_digest",
    "row_mismatch",
]


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; the quartiles are the cut points
    ``statistics.quantiles(values, n=4)`` gives (a single sample is its
    own quartiles)."""
    vals = list(values)
    if not vals:
        raise ValueError("quartiles of an empty sample")
    med = statistics.median(vals)
    if len(vals) == 1:
        return vals[0], med, vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


class Spans:
    """Named wall-clock spans that nest; each keeps its self time.

    A span's self time is its duration minus the durations of the spans
    opened inside it, so the self times of a tree of spans add up to the
    duration of its root.  ``total_s`` counts a name once per outermost
    entry (a recursive call is not counted twice); ``calls`` counts
    every entry.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, seconds in children]
        self._depth: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return spanned


def rows_digest(rows: list) -> str:
    """SHA-256 of a result's rows in canonical JSON (sorted keys, no
    whitespace) — what the expected-row pins store."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def row_mismatch(
    run: Mapping, goldens: Mapping[str, Mapping], pins: Mapping[str, Mapping]
) -> Optional[str]:
    """Why one scenario run is wrong, or ``None`` when it is right.

    ``run`` holds the worker's report of one ``Runner.run``: ``ok``,
    ``spec_hash``, ``rows`` (count) and ``digest``, or ``error``.  The
    expected rows come from the golden with the same spec hash where one
    exists, else from the benchmark's pins; a spec with neither is a
    failure too, so an unpinned input can never pass silently.
    """
    if run.get("error"):
        return f"raised {run['error']}"
    if not run.get("ok"):
        return "returned ok=false"
    spec_hash = run["spec_hash"]
    source, expected = "golden", goldens.get(spec_hash)
    if expected is None:
        source, expected = "pin", pins.get(spec_hash)
    if expected is None:
        return f"no golden or pinned rows for spec_hash {spec_hash}"
    if (run["rows"], run["digest"]) != (expected["rows"], expected["sha256"]):
        return (
            f"rows differ from the {source} for spec_hash {spec_hash} "
            f"({run['rows']} rows, sha256 {run['digest'][:12]} != "
            f"{expected['rows']} rows, sha256 {expected['sha256'][:12]})"
        )
    return None
