"""The gate applied to the gate: the shipped tree must analyze clean,
and un-threading a real fault plan must make it dirty again (the PR's
acceptance criterion, exercised on the actual sim sources)."""

import shutil
from pathlib import Path

from repro.lint import Analyzer
from repro.lint.rules import default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def run_on(path):
    findings, files = Analyzer(default_rules()).run([str(path)])
    return findings, files


def test_src_tree_is_clean():
    findings, files = run_on(SRC)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert len(files) > 50  # sanity: the whole package was actually loaded


def test_unthreading_a_real_fault_plan_fails_the_gate(tmp_path):
    # Copy the real gathering dispatcher plus the fault-plan module,
    # then delete ONE `faults=faults,` at a call site: RPR001 must fire.
    sim = tmp_path / "sim"
    sim.mkdir()
    for name in ("multi.py", "faults.py"):
        shutil.copy(SRC / "repro" / "sim" / name, sim / name)

    findings, _ = run_on(tmp_path)
    assert [f for f in findings if f.code == "RPR001"] == []

    text = (sim / "multi.py").read_text()
    assert "faults=faults," in text
    (sim / "multi.py").write_text(text.replace("faults=faults,", "", 1))

    findings, _ = run_on(tmp_path)
    dropped = [f for f in findings if f.code == "RPR001"]
    assert len(dropped) == 1
    assert dropped[0].path.endswith("sim/multi.py")
    assert "run_gathering_compiled" in dropped[0].message


def test_unthreading_in_the_kernel_layer_fails_the_gate(tmp_path):
    # Same criterion at the kernel seam: sim/kernel.py's exact-sweep
    # entry points thread `faults=` into the reference fallbacks.
    sim = tmp_path / "sim"
    sim.mkdir()
    for name in ("kernel.py", "compiled.py", "gathering_solver.py"):
        shutil.copy(SRC / "repro" / "sim" / name, sim / name)

    findings, _ = run_on(tmp_path)
    assert [f for f in findings if f.code == "RPR001"] == []

    text = (sim / "kernel.py").read_text()
    assert "faults=faults" in text
    (sim / "kernel.py").write_text(text.replace("faults=faults,", "", 1))

    findings, _ = run_on(tmp_path)
    assert [f for f in findings if f.code == "RPR001"], (
        "removing faults= threading from sim/kernel.py must trip RPR001"
    )


def test_dropping_a_kernel_dtype_fails_the_gate(tmp_path):
    # The kernel binds numpy through the lazy probe
    # (`_np = load_numpy()`), not a module-level import; RPR005 must
    # still see its allocations.  Drop ONE `dtype=` in kernel.py.
    sim = tmp_path / "sim"
    sim.mkdir()
    shutil.copy(SRC / "repro" / "sim" / "kernel.py", sim / "kernel.py")

    findings, _ = run_on(tmp_path)
    assert [f for f in findings if f.code == "RPR005"] == []

    text = (sim / "kernel.py").read_text()
    needle = "lanes = _np.arange(m, dtype=_np.int64)"
    assert text.count(needle) == 1
    (sim / "kernel.py").write_text(
        text.replace(needle, "lanes = _np.arange(m)", 1)
    )

    findings, _ = run_on(tmp_path)
    dropped = [f for f in findings if f.code == "RPR005"]
    assert len(dropped) == 1
    assert dropped[0].path.endswith("sim/kernel.py")
    assert "np.arange" in dropped[0].message
