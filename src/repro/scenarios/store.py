"""Structured persistence for scenario results.

Results are JSON documents under ``benchmarks/results/`` with a
versioned schema (``repro.scenario-result/v1``):

.. code-block:: text

    {
      "schema":      "repro.scenario-result/v1",
      "scenario":    registry name,
      "kind":        executor kind,
      "spec":        the full ScenarioSpec (canonical JSON),
      "spec_hash":   16-hex content hash of the spec,
      "backend":     backend that executed the run,
      "rows":        the outcome table (list of flat dicts),
      "summary":     scenario-level aggregates incl. boolean "ok",
      "timings":     {"elapsed_seconds": float},
      "environment": {"python":         interpreter version,
                      "implementation": e.g. "cpython",
                      "platform":       "system-release-machine",
                      "numpy":          version this process loaded, or null
                                        (no vector path ran / not installed),
                      "kernel":         {"enabled": REPRO_KERNEL != "0" and
                                                    numpy importable,
                                         "cache_dir_set": bool}},
      "telemetry":   optional repro.telemetry/v1 snapshot
    }

``rows`` + ``spec_hash`` are the *comparable* part; ``timings``,
``environment`` and ``telemetry`` are provenance and excluded from
diffs.  Validation is hand-rolled (no jsonschema dependency in the
image).
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from ..durable import atomic_writer, quarantine
from .runner import SCHEMA, ScenarioResult
from .spec import ScenarioError

__all__ = ["ResultStore", "validate_payload", "diff_payloads", "comparable"]

_SCALAR = (str, int, float, bool, type(None))


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(f"invalid scenario result: {message}")


def validate_payload(payload: dict) -> None:
    """Raise :class:`ScenarioError` unless ``payload`` matches the schema."""
    _check(isinstance(payload, dict), "payload is not an object")
    _check(payload.get("schema") == SCHEMA,
           f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}")
    for key, typ in (
        ("scenario", str),
        ("kind", str),
        ("spec", dict),
        ("spec_hash", str),
        ("backend", str),
        ("rows", list),
        ("summary", dict),
        ("timings", dict),
        ("environment", dict),
    ):
        _check(isinstance(payload.get(key), typ),
               f"field {key!r} missing or not a {typ.__name__}")
    _check(len(payload["spec_hash"]) == 16, "spec_hash is not 16 hex chars")
    telemetry = payload.get("telemetry")
    if telemetry is not None:  # optional provenance, schema-checked when present
        from ..telemetry import SCHEMA as TELEMETRY_SCHEMA

        _check(isinstance(telemetry, dict), "telemetry is not an object")
        _check(telemetry.get("schema") == TELEMETRY_SCHEMA,
               f"telemetry schema is {telemetry.get('schema')!r}, "
               f"expected {TELEMETRY_SCHEMA!r}")
        for key in ("counters", "spans", "phases", "events"):
            _check(isinstance(telemetry.get(key), dict),
                   f"telemetry field {key!r} missing or not an object")
    _check("ok" in payload["summary"] and isinstance(payload["summary"]["ok"], bool),
           "summary lacks a boolean 'ok'")
    for idx, row in enumerate(payload["rows"]):
        _check(isinstance(row, dict), f"row {idx} is not an object")
        for key, value in row.items():
            ok = isinstance(value, _SCALAR) or (
                isinstance(value, list) and all(isinstance(v, _SCALAR) for v in value)
            )
            _check(ok, f"row {idx} field {key!r} is not a scalar or scalar list")


def comparable(payload: dict) -> dict:
    """The part of a payload two runs must agree on (no timings/env)."""
    return {
        "scenario": payload["scenario"],
        "kind": payload["kind"],
        "spec_hash": payload["spec_hash"],
        "rows": payload["rows"],
    }


def diff_payloads(a: dict, b: dict) -> list[str]:
    """Human-readable outcome differences between two result payloads.

    Empty list == equivalent results.  Backend, timings and environment
    are provenance, not outcome, and are never reported.
    """
    diffs: list[str] = []
    if a["scenario"] != b["scenario"]:
        diffs.append(f"scenario: {a['scenario']} != {b['scenario']}")
        return diffs
    if a["spec_hash"] != b["spec_hash"]:
        diffs.append(f"spec_hash: {a['spec_hash']} != {b['spec_hash']} "
                     "(the runs had different inputs)")
    ra, rb = a["rows"], b["rows"]
    if len(ra) != len(rb):
        diffs.append(f"row count: {len(ra)} != {len(rb)}")
    for idx, (x, y) in enumerate(zip(ra, rb)):
        if x == y:
            continue
        keys = [k for k in {**x, **y} if x.get(k) != y.get(k)]
        diffs.append(
            f"row {idx}: " + ", ".join(
                f"{k}: {x.get(k)!r} != {y.get(k)!r}" for k in sorted(keys)
            )
        )
    return diffs


class ResultStore:
    """Reads and writes scenario-result JSON under one directory."""

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)

    def path_for(self, name: str) -> pathlib.Path:
        """The store file for ``name``; the name must be a bare result
        name, never a path (dots are fine — ``thm31.v2`` is a name,
        but a ``.json`` suffix or a path separator is not)."""
        if "/" in name or "\\" in name or name in ("", ".", ".."):
            raise ScenarioError(
                f"result name {name!r} must not contain path separators; "
                f"pass a path to load()/diff() instead"
            )
        if name.endswith(".json"):
            # A name like "runA.json" would save as runA.json.json and
            # then be irretrievable by name (load() strips the suffix).
            raise ScenarioError(
                f"result name {name!r} must not end with '.json'"
            )
        return self.root / f"{name}.json"

    def save(self, result: ScenarioResult) -> pathlib.Path:
        """Write atomically (:func:`repro.durable.atomic_writer`): a
        reader (or a kill) mid-save must see either the old complete
        file or the new complete file, never a torn one."""
        payload = result.to_payload()
        validate_payload(payload)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(result.name)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        with atomic_writer(path) as fh:
            fh.write(text.encode())
        return path

    def load(self, name_or_path: Union[str, pathlib.Path]) -> dict:
        """Load a result by store name or by explicit JSON path.

        A string argument is a *name* unless it is a path: it contains a
        path separator, or it ends in ``.json``.  (The old
        ``suffix == ".json"`` test misrouted dotted names to the
        filesystem.)  Path-like strings resolve to an existing file
        first (the README's ``scenarios diff a.json b.json`` flow) and
        fall back to the store root (so ``golden/thm31-sweep`` finds
        ``<root>/golden/thm31-sweep.json`` from any CWD) — never to the
        CWD-dependent double-suffix path ``<root>/<name>.json.json``.
        """
        if isinstance(name_or_path, pathlib.Path):
            path = name_or_path
        elif "/" in (text := str(name_or_path)) or "\\" in text:
            path = pathlib.Path(text)
            if not path.exists():
                rel = text if text.endswith(".json") else f"{text}.json"
                in_store = self.root / rel
                if in_store.exists():
                    path = in_store
        elif text.endswith(".json"):
            explicit = pathlib.Path(text)
            path = explicit if explicit.exists() else self.path_for(text[: -len(".json")])
        else:
            path = self.path_for(text)
        if not path.exists():
            raise ScenarioError(f"no stored result at {path}")
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            # Corrupt JSON (torn write from a pre-atomic saver, disk
            # trouble, manual edit): quarantine the file so the next
            # save/run is not poisoned by it, and say exactly where it
            # went.  Saves are atomic, so this should never be ours.
            moved = quarantine(path)
            where = f"; quarantined to {moved}" if moved else ""
            raise ScenarioError(
                f"stored result at {path} is not valid JSON ({exc}){where}"
            ) from None
        validate_payload(payload)
        return payload

    def names(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def diff(
        self,
        a: Union[str, pathlib.Path],
        b: Union[str, pathlib.Path],
    ) -> list[str]:
        return diff_payloads(self.load(a), self.load(b))
