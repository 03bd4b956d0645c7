"""The experiment report: the paper's headline tables, from the registry.

``repro report`` and ``repro experiments`` run one plan of registry
scenarios, :data:`SECTIONS`, through a :class:`~repro.scenarios.Runner`,
so every number in the report is a scenario's own row.  At full scale
(``repro report --full``) each scenario runs at its registered params and
its rows are its golden's; quick scale shrinks the grids.  Each markdown
section is the scenario's table and one line read off its summary.
"""

from __future__ import annotations

from .program_atlas import DEFAULT_ATLAS_GRID

__all__ = ["SECTIONS", "generate_report", "run_sections"]


def _gap_reading(result) -> str:
    delay0 = [r["delay0_bits"] for r in result.rows]
    arb = [r["arbitrary_bits"] for r in result.rows]
    return (
        f"delay-0 bits flat ({min(delay0)}..{max(delay0)}); "
        f"arbitrary-delay bits grow {arb[0]} -> {arb[-1]} (~2 log n)."
    )


#: ``(heading, scenario, quick-scale param overrides, reading)``; the
#: reading turns the scenario's result into the section's closing line.
SECTIONS = (
    ("E1 — Thm 3.1: defeating-line size vs memory bits", "thm31-sweep",
     {"ks": [1, 2]},
     lambda r: f"growth ratios {r.summary['growth_ratios']} — "
               "exponential in bits."),
    ("E3a — Thm 4.1 memory vs n (fixed ℓ = 4)", "memory-vs-n",
     {"subdivisions": [0, 1]},
     lambda r: f"spread {r.summary['bits_spread']:g} bits across the "
               f"sweep; all met: {r.ok}."),
    ("E3b — Thm 4.1 memory vs leaves", "memory-vs-leaves",
     {"leaf_counts": [4, 8], "total_nodes": 40},
     lambda r: f"increments per ℓ-doubling: {r.summary['increments']} "
               "(log ℓ shape)."),
    ("E4 — Lemma 4.1 rounds vs path length", "prime-rounds",
     {"lengths": [5, 9, 17]},
     lambda r: f"log-log slope {r.summary['loglog_slope']:.2f} (polynomial)."),
    ("E7 — the exponential gap", "gap-table",
     {"subdivisions": [0, 1]},
     _gap_reading),
    ("Program memory atlas — minimized lowered machines", "atlas-programs",
     {"programs": {name: list(trees)
                   for name, trees in list(DEFAULT_ATLAS_GRID.items())[:2]}},
     lambda r: f"{r.summary['cells']} cells; {r.summary['states_dropped']} "
               "lowered states were behavioral padding (merged by "
               "minimization)."),
)


def run_sections(runner, quick: bool) -> list:
    """Run every section's scenario on ``runner``; return
    ``(heading, result, reading)`` triples in plan order."""
    return [
        (heading, runner.run(name, params=overrides if quick else None),
         reading)
        for heading, name, overrides, reading in SECTIONS
    ]


def generate_report(sections) -> str:
    """The markdown report of :func:`run_sections`' output."""
    parts = ["# Reproduction report (generated)\n"]
    for heading, result, reading in sections:
        parts.append(f"## {heading}\n")
        parts.append(f"```\n{result.table()}\n```")
        parts.append(reading(result) + "\n")
    return "\n".join(parts)
