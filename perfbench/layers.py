"""Per-layer spans for the traced pass.

:func:`install` wraps each layer's public functions in a
:class:`~perfbench.stats.Spans` span.  A function is replaced wherever a
``repro`` module has bound it, not only in its defining module:
``scenarios/backends.py`` binds ``run_pairs_traced`` at import time, so
patching ``repro.sim.traced`` alone would miss every backend call.
Methods are patched on every class of the module that defines them.

A target missing from the library (a later refactor may delete a solver)
is skipped and listed in :attr:`Layers.missing`; its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from perfbench.stats import Spans

__all__ = ["FUNCTIONS", "METHODS", "Layers", "install"]

#: span name -> (module, function) targets
FUNCTIONS = {
    "core.memory.measure": [("repro.core.memory", "measure_memory")],
    "sim.kernel.solve": [
        ("repro.sim.kernel", "solve_delay_grid_kernel"),
        ("repro.sim.kernel", "solve_all_delays_kernel"),
        ("repro.sim.kernel", "solve_gathering_kernel"),
        ("repro.sim.kernel", "run_pairs_kernel"),
    ],
    "sim.kernel.table": [("repro.sim.kernel", "agent_table")],
    "sim.traced.run_pairs": [("repro.sim.traced", "run_pairs_traced")],
    "sim.traced.sweep": [
        ("repro.sim.traced", "sweep_delays_traced"),
        ("repro.sim.traced", "sweep_gathering_traced"),
    ],
    "sim.compiled.solve": [("repro.sim.compiled", "solve_all_delays")],
    "sim.compiled.run": [
        ("repro.sim.compiled", "run_rendezvous_compiled"),
        ("repro.sim.compiled", "run_rendezvous_fast"),
    ],
    "sim.faults.solve": [
        ("repro.sim.faults", "solve_all_delays_faulted"),
        ("repro.sim.faults", "solve_gathering_faulted"),
    ],
    "sim.gathering_solver.solve": [
        ("repro.sim.gathering_solver", "solve_gathering"),
    ],
    "sim.multi.run": [
        ("repro.sim.multi", "run_gathering"),
        ("repro.sim.multi", "run_gathering_reference"),
        ("repro.sim.multi", "run_gathering_compiled"),
    ],
    "sim.engine.run": [("repro.sim.engine", "run_rendezvous")],
    "agents.lowering.lowered_for": [("repro.agents.lowering", "lowered_for")],
    # executors + analysis/ drivers: whatever execute() does itself
    "scenarios.runner.execute": [("repro.scenarios.executors", "execute")],
}

#: span name -> (module, base class, method) targets
METHODS = {
    "sim.traced.trace": [("repro.sim.traced", "SoloTrace", "extend")],
    "scenarios.backends.run": [("repro.scenarios.backends", "Backend", "run")],
    "scenarios.backends.sweep_delays": [
        ("repro.scenarios.backends", "Backend", "sweep_delays"),
    ],
    "scenarios.backends.sweep_gathering": [
        ("repro.scenarios.backends", "Backend", "sweep_gathering"),
    ],
    "scenarios.backends.run_pairs": [
        ("repro.scenarios.backends", "Backend", "run_pairs"),
    ],
    "scenarios.atlas.lookup": [("repro.scenarios.atlas", "AtlasStore", "lookup")],
    "scenarios.atlas.save": [("repro.scenarios.atlas", "AtlasStore", "save")],
}


class Layers:
    """The installed spans plus the solo-replay round counter."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.rounds = 0
        self.missing: list[str] = []

    def report(self) -> dict:
        return {
            "self_s": self.spans.self_s,
            "total_s": self.spans.total_s,
            "calls": self.spans.calls,
            "rounds": self.rounds,
            "missing": self.missing,
        }


def _rebind(orig, replacement) -> None:
    """Point every ``repro`` module global bound to ``orig`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def _counting_rounds(layers: Layers, measure):
    """``measure_memory`` with its per-round ``resolve_action`` calls
    counted: the function imports ``resolve_action`` from
    ``repro.agents.observations`` when called, so a counting stand-in is
    bound there for the call's duration only."""
    observations = importlib.import_module("repro.agents.observations")

    def measure_counted(*args, **kwargs):
        resolve = observations.resolve_action

        def counted(*a, **k):
            layers.rounds += 1
            return resolve(*a, **k)

        observations.resolve_action = counted
        try:
            return measure(*args, **kwargs)
        finally:
            observations.resolve_action = resolve

    return measure_counted


def install() -> Layers:
    """Wrap every layer target; call after ``repro.scenarios`` is imported."""
    layers = Layers()
    for span, targets in FUNCTIONS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr, None)
            if orig is None:
                layers.missing.append(f"{module_name}.{attr}")
                continue
            fn = orig
            if span == "core.memory.measure":
                fn = _counting_rounds(layers, orig)
            _rebind(orig, layers.spans.wrap(span, fn))
    for span, targets in METHODS.items():
        for module_name, base_name, attr in targets:
            module = importlib.import_module(module_name)
            base = getattr(module, base_name, None)
            classes = [
                cls for cls in vars(module).values()
                if inspect.isclass(cls) and base is not None
                and issubclass(cls, base) and attr in vars(cls)
            ]
            if not classes:
                layers.missing.append(f"{module_name}.{base_name}.{attr}")
            for cls in classes:
                setattr(cls, attr, layers.spans.wrap(span, vars(cls)[attr]))
    return layers
