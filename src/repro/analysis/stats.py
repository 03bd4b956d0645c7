"""Small series/statistics helpers for the experiment harness.

The benchmarks print the paper's curves as rows; these helpers compute the
summaries (means, growth ratios, log fits) used to check each curve's
*shape* against the paper's bound — the reproduction target is who-wins and
the asymptotic form, not absolute constants.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..records import Record

__all__ = ["Series", "growth_ratios", "fit_loglog_slope", "geometric_mean"]


class Series(Record, frozen=True):
    """A named (x, y) series with convenience statistics."""

    __slots__ = ("name", "xs", "ys")

    def __init__(self, name: str, xs: tuple[float, ...], ys: tuple[float, ...]) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must align")
        set_ = object.__setattr__
        set_(self, "name", name)
        set_(self, "xs", xs)
        set_(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    def rows(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.ys))

    def table(self, x_label: str = "x", y_label: str = "y") -> str:
        lines = [f"{x_label:>12} {y_label:>14}"]
        for x, y in self.rows():
            lines.append(f"{x:>12g} {y:>14g}")
        return "\n".join(lines)


def growth_ratios(ys: Sequence[float]) -> list[float]:
    """Consecutive ratios y[i+1]/y[i]; the eyeball test for exponential vs
    polynomial vs flat growth."""
    out = []
    for a, b in zip(ys, ys[1:]):
        if a == 0:
            out.append(math.inf if b > 0 else 1.0)
        else:
            out.append(b / a)
    return out


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x (power-law exponent).

    Slope ~1 means linear, ~0 means flat; the memory-vs-n curve of the
    Thm 4.1 agent should fit far below 1 against log n (it is ~log log n).
    """
    pts = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    denom = sum((p[0] - mx) ** 2 for p in pts)
    if denom == 0:
        raise ValueError("degenerate xs")
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / denom


def geometric_mean(ys: Sequence[float]) -> float:
    vals = [y for y in ys if y > 0]
    if not vals:
        raise ValueError("no positive values")
    return math.exp(sum(math.log(y) for y in vals) / len(vals))
