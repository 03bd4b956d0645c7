"""Where a fresh scenario process spends its import time.

Runs the perfbench worker's setup imports (``import repro``, the
``Runner``, the scenario registry and the atlas store) in a fresh
interpreter under ``python -X importtime`` and prints the costliest
modules by self time, then the total.  The bytecode cache is warm: an
untimed run fills ``--cache`` first, and ``PYTHONDONTWRITEBYTECODE`` is
unset for both runs, because compiling from source would roughly double
every figure.  ``make import-time`` runs it; the numbers are
informational and gate nothing.

    python benchmarks/import_time.py [--cache DIR]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: How many of the costliest modules to print.
TOP = 20

SETUP = (
    "import repro\n"
    "from repro.scenarios import Runner\n"
    "from repro.scenarios.registry import get_scenario\n"
    "from repro.scenarios.atlas import AtlasStore\n"
)


def _run(args: list[str], cache: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, *args, "-c", SETUP],
        env=env, capture_output=True, text=True, check=True,
    )


def parse(stderr: str) -> list[tuple[int, int, str]]:
    """``(self_us, cumulative_us, module)`` per ``-X importtime`` line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        rows.append((int(self_us), int(cumulative_us), name.strip()))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cache", type=pathlib.Path,
                   default=pathlib.Path(tempfile.gettempdir()) / "repro-import-time-pycache")
    args = p.parse_args(argv)

    _run([], args.cache)  # warm the bytecode cache
    rows = parse(_run(["-X", "importtime"], args.cache).stderr)
    total = sum(r[0] for r in rows)
    print(f"{'self ms':>8} {'cumul ms':>9}  module")
    for self_us, cumulative_us, name in sorted(rows, reverse=True)[:TOP]:
        print(f"{self_us / 1000:8.2f} {cumulative_us / 1000:9.2f}  {name}")
    print(f"{total / 1000:8.2f} {'':>9}  total over {len(rows)} modules")
    for self_us, cumulative_us, name in rows:
        if name == "repro":
            print(f"{'':>8} {cumulative_us / 1000:9.2f}  import repro")
    return 0


if __name__ == "__main__":
    sys.exit(main())
