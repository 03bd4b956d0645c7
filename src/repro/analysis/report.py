"""One-shot experiment report: regenerate the EXPERIMENTS.md numbers.

``python -m repro report`` (or :func:`generate_report`) runs the main
sweeps at configurable scale and emits a self-contained markdown report —
the quickest way to re-check the reproduction on new hardware or after a
code change, without the pytest-benchmark harness.
"""

from __future__ import annotations

from typing import NamedTuple

from .gap import format_gap_table, gap_table
from .program_atlas import DEFAULT_ATLAS_GRID, program_atlas_rows
from .stats import fit_loglog_slope, growth_ratios
from .sweep import (
    memory_vs_leaves,
    memory_vs_n_fixed_leaves,
    prime_rounds_vs_path_length,
    thm31_size_vs_bits,
)

__all__ = ["ReportScale", "generate_report"]


class ReportScale(NamedTuple):
    """Knobs for report size vs runtime.

    ``quick`` keeps everything under ~half a minute; ``full`` matches the
    recorded EXPERIMENTS.md run.
    """

    subdivisions: tuple[int, ...]
    leaf_counts: tuple[int, ...]
    leaf_total_nodes: int
    prime_lengths: tuple[int, ...]
    thm31_ks: tuple[int, ...]
    atlas_programs: int = 2  # how many atlas grid programs to include

    @classmethod
    def quick(cls) -> "ReportScale":
        return cls((0, 1, 3), (4, 8, 16), 60, (5, 9, 17), (1, 2, 3), 2)

    @classmethod
    def full(cls) -> "ReportScale":
        return cls(
            (0, 1, 3, 7, 15), (4, 8, 16, 32), 120, (5, 9, 17, 33, 65),
            (1, 2, 3, 4, 5), len(DEFAULT_ATLAS_GRID),
        )


def generate_report(scale: ReportScale | None = None) -> str:
    """Run the sweeps and return the markdown report."""
    scale = scale or ReportScale.quick()
    parts: list[str] = ["# Reproduction report (generated)\n"]

    parts.append("## E1 — Thm 3.1: defeating-line size vs memory bits\n")
    series = thm31_size_vs_bits(scale.thm31_ks)
    parts.append("```\n" + series.table("bits", "edges") + "\n```")
    ratios = [round(r, 2) for r in growth_ratios(series.ys)]
    parts.append(f"growth ratios {ratios} — exponential in bits.\n")

    parts.append("## E3a — Thm 4.1 memory vs n (fixed ℓ = 4)\n")
    series, points = memory_vs_n_fixed_leaves(scale.subdivisions)
    parts.append("```\n" + series.table("n", "bits") + "\n```")
    spread = max(series.ys) - min(series.ys)
    met = all(p.met for p in points)
    parts.append(f"spread {spread:g} bits across the sweep; all met: {met}.\n")

    parts.append("## E3b — Thm 4.1 memory vs leaves\n")
    series, points = memory_vs_leaves(scale.leaf_counts, scale.leaf_total_nodes)
    parts.append("```\n" + series.table("leaves", "bits") + "\n```")
    diffs = [b - a for a, b in zip(series.ys, series.ys[1:])]
    parts.append(f"increments per ℓ-doubling: {diffs} (log ℓ shape).\n")

    parts.append("## E4 — Lemma 4.1 rounds vs path length\n")
    series = prime_rounds_vs_path_length(scale.prime_lengths)
    parts.append("```\n" + series.table("m", "rounds") + "\n```")
    slope = fit_loglog_slope(series.xs, series.ys)
    parts.append(f"log-log slope {slope:.2f} (polynomial).\n")

    parts.append("## E7 — the exponential gap\n")
    rows = gap_table(subdivisions=scale.subdivisions)
    parts.append("```\n" + format_gap_table(rows) + "\n```")
    delay0 = [r.delay0_bits for r in rows]
    arb = [r.arbitrary_bits for r in rows]
    parts.append(
        f"delay-0 bits flat ({min(delay0)}..{max(delay0)}); "
        f"arbitrary-delay bits grow {arb[0]} -> {arb[-1]} (~2 log n).\n"
    )

    parts.append("## Program memory atlas — minimized lowered machines\n")
    atlas = program_atlas_rows(dict(list(DEFAULT_ATLAS_GRID.items())[: scale.atlas_programs]))
    header = (
        f"{'program':>20} {'tree':>14} {'route':>5} {'raw':>7} {'min':>7} "
        f"{'bits':>4} {'lb':>3} {'gamma':>5} {'defeat':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in atlas:
        lines.append(
            f"{r.program:>20} {r.tree:>14} {r.route:>5} {r.raw_states:>7} "
            f"{r.min_states:>7} {r.bits_min:>4} {r.lb_bits:>3} {r.gamma:>5} "
            f"{r.defeat_edges if r.defeat_edges is not None else '-':>6}"
        )
    parts.append("```\n" + "\n".join(lines) + "\n```")
    dropped = sum(r.raw_states - r.min_states for r in atlas)
    parts.append(
        f"{len(atlas)} cells; {dropped} lowered states were behavioral "
        "padding (merged by minimization).\n"
    )

    return "\n".join(parts)
