"""Fresh-process guards on what a scenario run imports.

numpy is loaded only where the kernel runs (sweeps above the auto lane
gate; the traced tier's pair grids stay pure Python), networkx is never
loaded by a scenario (it is optional interop only), the result
provenance never spawns a process, neither setup nor an atlas round
trip imports ``dataclasses``, ``platform`` or the process pool, no
record type is a ``collections.namedtuple`` product, setup loads no
``repro`` module outside a fixed budget, and setup, not a run, pays for
every ``repro`` import.  ``sys.modules`` is process-wide,
so each case runs in its own interpreter.
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's sources;
    it prints one JSON object, returned decoded."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KERNEL", "REPRO_KERNEL_CACHE")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# The perfbench worker's setup sequence, then a thm43 atlas miss and hit.
ATLAS_MISS_THEN_HIT = """
import json, sys
import repro
from repro.scenarios import Runner
from repro.scenarios.registry import get_scenario
from repro.scenarios.atlas import AtlasStore

get_scenario("thm43")
atlas = AtlasStore(sys.argv[1])
runner = Runner(atlas=atlas)
setup_modules = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
miss = runner.run("thm43")
payload = miss.to_payload()
hit = runner.run("thm43")
hit.to_payload()
atlas.close()
after_thm43 = "numpy" in sys.modules
codegen = [m for m in ("dataclasses", "inspect") if m in sys.modules]
unused = [m for m in ("platform", "pickle", "repro.sim.supervise", "array")
          if m in sys.modules]
namedtuples = sorted(
    f"{module.__name__}.{name}"
    for module in list(sys.modules.values())
    if module is not None and module.__name__.split(".")[0] == "repro"
    for name, cls in vars(module).items()
    if isinstance(cls, type) and "_field_defaults" in vars(cls)
)
Runner(backend="auto").run("delays-line").to_payload()  # below the lane gate
print(json.dumps({
    "setup_modules": setup_modules,
    "miss": miss.cached_payload is None,
    "hit": hit.cached_payload is not None,
    "numpy_after_thm43": after_thm43,
    "codegen_after_thm43": codegen,
    "unused_after_thm43": unused,
    "namedtuple_classes": namedtuples,
    "numpy": "numpy" in sys.modules,
    "subprocess": "subprocess" in sys.modules,
    "environment": payload["environment"],
}))
"""


@pytest.fixture(scope="module")
def atlas_round_trip(tmp_path_factory):
    atlas = tmp_path_factory.mktemp("atlas") / "atlas.sqlite"
    out = run_fresh(ATLAS_MISS_THEN_HIT, str(atlas))
    assert out["miss"] and out["hit"]
    return out


def test_scalar_scenario_loads_neither_numpy_nor_subprocess(atlas_round_trip):
    out = atlas_round_trip
    assert not out["numpy_after_thm43"]
    assert not out["numpy"]  # a sweep under the kernel lane gate neither
    assert not out["subprocess"]
    env = out["environment"]
    assert env["numpy"] is None  # this process never loaded it
    # built from os.uname() and sys.version, the strings platform returns
    assert env["platform"] == "-".join(
        (platform.system(), platform.release(), platform.machine())
    )
    assert env["python"] == platform.python_version()


def test_setup_and_atlas_round_trip_import_no_dataclasses(atlas_round_trip):
    # record types are tuple records and __slots__ classes: nothing on this
    # path imports dataclasses, nor inspect, which dataclasses pulls in
    assert atlas_round_trip["codegen_after_thm43"] == []


def test_setup_and_atlas_round_trip_load_neither_platform_nor_the_pool(
    atlas_round_trip,
):
    # the provenance reads os.uname(); the pool loads where a pool starts;
    # the array module behind solo-trace buffers loads with the first trace
    assert atlas_round_trip["unused_after_thm43"] == []


# Every repro module the worker's setup loads.  Setup may load fewer; a
# module it starts to load must be added here on purpose.
SETUP_MODULE_BUDGET = frozenset({"repro"}) | {
    f"repro.{name}" for name in """
    agents agents.automaton agents.digraph agents.dsl agents.library
    agents.lowering agents.minimize agents.observations agents.program
    analysis analysis.exhaustive analysis.feasibility analysis.gap
    analysis.phases analysis.program_atlas analysis.stats analysis.sweep
    analysis.tradeoff
    core core.algorithm core.baseline core.explo core.gathering core.memory
    core.prime_walk core.rendezvous core.rendezvous_path core.synchro
    durable errors records
    lowerbounds lowerbounds.arbitrary_delay lowerbounds.common
    lowerbounds.infinite_line lowerbounds.leaves lowerbounds.loglog_line
    scenarios scenarios.atlas scenarios.backends scenarios.executors
    scenarios.registry scenarios.runner scenarios.spec scenarios.store
    sim sim.adversary sim.batch sim.certificates sim.compiled sim.delays
    sim.engine sim.faults sim.gathering_solver sim.instrument sim.kernel
    sim.multi sim.numpy_probe sim.trace sim.traced
    telemetry telemetry.core telemetry.sinks
    trees trees.automorphism trees.basic_walk trees.builders trees.center
    trees.contraction trees.isomorphism trees.labelings trees.serialize
    trees.sidetrees trees.tree trees.viz
    """.split()
}


def test_setup_loads_no_module_outside_its_budget(atlas_round_trip):
    # the report renders registry results and loads with its command only
    loaded = set(atlas_round_trip["setup_modules"])
    assert "repro.analysis.report" not in loaded
    assert sorted(loaded - SETUP_MODULE_BUDGET) == []


def test_no_record_type_is_a_namedtuple_product(atlas_round_trip):
    # tuple records are repro.records.TupleRecord: their __new__ is source
    # text, not a namedtuple's generated-and-eval'd one
    assert atlas_round_trip["namedtuple_classes"] == []


# The worker's setup, then every registry scenario against a fresh atlas,
# noting what each Runner.run call imports for the first time.
EVERY_SCENARIO = """
import json, sys
import repro
from repro.scenarios import Runner
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.atlas import AtlasStore

names = scenario_names()
for name in names:
    get_scenario(name)
atlas = AtlasStore(sys.argv[1])
runner = Runner(atlas=atlas)
first_imports = {}
for name in names:
    before = set(sys.modules)
    runner.run(name)
    first_imports[name] = sorted(set(sys.modules) - before)
atlas.close()
print(json.dumps(first_imports))
"""

RUN_MUST_NOT_IMPORT = ("platform", "pickle", "sqlite3")

NUMPY_IMPORTS = """
import json, sys
before = set(sys.modules)
import numpy
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_no_run_imports_a_repro_module(tmp_path):
    # setup pays for imports and a run does not; the one exception is
    # numpy, which a run loads behind the kernel's lane gate, together
    # with what numpy itself imports (pickle and platform among them)
    first_imports = run_fresh(EVERY_SCENARIO, str(tmp_path / "atlas.sqlite"))
    assert len(first_imports) >= 29
    numpy_brings = set()
    if any("numpy" in modules for modules in first_imports.values()):
        numpy_brings = set(run_fresh(NUMPY_IMPORTS))
    late = {
        name: [m for m in modules
               if (m.split(".")[0] == "repro" or m in RUN_MUST_NOT_IMPORT)
               and not ("numpy" in modules and m in numpy_brings)]
        for name, modules in first_imports.items()
    }
    assert {name: m for name, m in late.items() if m} == {}


ABOVE_GATE_SWEEP = """
import json, sys
from repro.scenarios import Runner
from repro.sim import kernel
from repro.sim.delays import sweep_choices
from repro.telemetry import Telemetry

loaded_before = "numpy" in sys.modules
telem = Telemetry()
result = Runner(backend="auto").run("delays-line-long", telemetry=telem)
import numpy
print(json.dumps({
    "loaded_before": loaded_before,
    "lanes": len(sweep_choices(512, (1, 2))),
    "gate": kernel._MIN_KERNEL_LANES,
    "counters": telem.counters,
    "environment": result.to_payload()["environment"],
    "numpy_version": numpy.__version__,
}))
"""


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="numpy is not installed")
def test_sweep_above_the_gate_loads_numpy_and_rides_the_kernel():
    out = run_fresh(ABOVE_GATE_SWEEP)
    assert not out["loaded_before"]
    assert out["lanes"] >= 2 * out["gate"]
    assert out["counters"]["kernel.dispatch.delays.kernel"] == 1
    assert out["environment"]["numpy"] == out["numpy_version"]
    assert out["environment"]["kernel"]["enabled"] is True


NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # `import numpy` now raises ImportError
from repro.scenarios import Runner
from repro.sim import kernel
from repro.sim.compiled import solve_all_delays
from repro.agents.library import pausing_walker
from repro.telemetry import Telemetry, use
from repro.trees import edge_colored_line

tree, agent = edge_colored_line(9), pausing_walker(2)
max_delay = kernel._MIN_KERNEL_LANES  # above the gate
telem = Telemetry()
with use(telem):
    auto = kernel.solve_all_delays_auto(tree, agent, 0, 5, max_delay=max_delay)
result = Runner(backend="auto").run("delays-line-long", telemetry=telem)
print(json.dumps({
    "available": kernel.kernel_available(),
    "enabled": kernel.kernel_enabled(),
    "auto_equals_dict": auto == solve_all_delays(
        tree, agent, 0, 5, max_delay=max_delay),
    "counters": telem.counters,
    "rows": len(result.rows),
    "environment": result.to_payload()["environment"],
}))
"""


def test_missing_numpy_degrades_to_the_dict_solver():
    out = run_fresh(NUMPY_BLOCKED)
    assert out["available"] is False
    assert out["enabled"] is False
    assert out["auto_equals_dict"]
    assert out["counters"]["kernel.dispatch.delays.dict"] == 2
    assert "kernel.dispatch.delays.kernel" not in out["counters"]
    assert out["rows"] == 1025
    assert out["environment"]["numpy"] is None
    assert out["environment"]["kernel"]["enabled"] is False


PAIR_GRID_SCENARIOS = """
import json, sys
from repro.scenarios import Runner
from repro.telemetry import Telemetry

telem = Telemetry()
rows = {
    name: len(Runner().run(name, telemetry=telem).rows)
    for name in ("success-families", "verify-small")
}
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "rows": rows,
    "counters": telem.counters,
}))
"""


def test_traced_pair_grids_do_not_load_numpy():
    # the Theorem 4.1 pair grids ride the traced tier, which is pure Python
    out = run_fresh(PAIR_GRID_SCENARIOS)
    assert out["counters"]["backend.dispatch.run_pairs.traced"] > 0
    assert all(out["rows"].values())
    assert not out["numpy"]


EXHAUSTIVE_SCENARIOS = """
import json, sys
from repro.scenarios import Runner

rows = {name: Runner().run(name).rows for name in ("verify-small", "atlas")}
print(json.dumps({
    "networkx": "networkx" in sys.modules,
    "fact11": rows["verify-small"][1],
    "atlas_trees": len(rows["atlas"]),
}))
"""


def test_exhaustive_scenarios_do_not_load_networkx():
    # all_trees enumerates with an in-repo generator; networkx is only an
    # optional interop dependency of Tree.to_networkx/from_networkx
    out = run_fresh(EXHAUSTIVE_SCENARIOS)
    assert not out["networkx"]
    assert out["fact11"] == {
        "check": "fact11", "trees": 13, "instances": 11, "failures": 0,
    }
    assert out["atlas_trees"] == 11


def test_only_tree_interop_imports_networkx():
    import ast

    importers = []

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "networkx" for m in modules):
                importers.append((path, where))
            visit(child, path, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(),
              "<module>")
    assert importers == [("repro/trees/tree.py", "to_networkx")]
