"""The scenario runner: spec in, structured result out.

``Runner.run`` resolves a name through the registry (or takes a spec
directly), applies overrides, selects the backend, seeds the RNG from the
spec, executes, and wraps the outcome table in a :class:`ScenarioResult`
that knows how to render itself as a text table and serialize itself as
a schema-versioned JSON payload (:mod:`repro.scenarios.store`).

The payload's ``environment`` block is provenance read from the running
process: it never imports numpy or spawns a process, so a run that takes
no vector path never loads numpy at all (see
:func:`_environment_provenance`).
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Any, Mapping, Optional, Union

from ..records import Record
from ..telemetry import use as use_telemetry
from .backends import Backend, select_backend
from .executors import BACKEND_AGNOSTIC_KINDS, execute
from .spec import ScenarioError, ScenarioSpec

__all__ = ["Runner", "ScenarioResult", "format_rows"]

SCHEMA = "repro.scenario-result/v1"


def format_rows(rows: list[dict]) -> str:
    """Render an outcome table as aligned text: one header line, one line
    per row, nothing else (CLI commands print this verbatim)."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def cell(row: dict, col: str) -> str:
        value = row.get(col)
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    widths = {
        c: max(len(c), *(len(cell(r, c)) for r in rows)) for c in columns
    }
    lines = [" ".join(f"{c:>{widths[c]}}" for c in columns)]
    for row in rows:
        lines.append(" ".join(f"{cell(row, c):>{widths[c]}}" for c in columns))
    return "\n".join(lines)


def _environment_provenance() -> dict:
    """Interpreter, platform, numpy and kernel-cache provenance — the
    columns the service-shaped result store will key on.

    Cheap by design (every miss run pays it): it neither imports numpy
    nor spawns a process.  ``numpy`` is the version of the numpy this process
    loaded — ``None`` when no vector path ran (or numpy is absent), so a
    reader can tell which tier even could have run.
    ``kernel.enabled`` is "not disabled and numpy importable", from a
    spec lookup; ``platform`` is ``system-release-machine`` from
    :func:`os.uname` and ``python`` the first word of :data:`sys.version`,
    the strings :mod:`platform` returns on POSIX without the cost of
    importing it.
    """
    from ..sim.numpy_probe import kernel_cache_dir, kernel_enabled

    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}",
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "kernel": {
            "enabled": kernel_enabled(),
            "cache_dir_set": kernel_cache_dir() is not None,
        },
    }


class ScenarioResult(Record):
    """A completed scenario run: the spec, its outcome table, aggregates.

    ``telemetry`` is the optional :mod:`repro.telemetry` snapshot of the
    run (``repro.telemetry/v1``); ``None`` — the default — keeps the
    payload byte-identical to a pre-telemetry run, so goldens and diffs
    are untouched unless a caller opts in.

    ``created_unix`` is wall-clock provenance stamped by the runner (its
    one annotated RPR003 seam); ``cached_payload`` marks a result served
    from the atlas (:mod:`repro.scenarios.atlas`) — ``to_payload``
    returns that stored document verbatim, so an atlas hit re-saved
    through any store is byte-identical to the original export.
    """

    __slots__ = (
        "spec", "backend", "rows", "summary", "elapsed_seconds", "telemetry",
        "created_unix", "cached_payload",
    )

    def __init__(
        self,
        spec: ScenarioSpec,
        backend: str,
        rows: list[dict],
        summary: dict,
        elapsed_seconds: float,
        telemetry: Optional[dict] = None,
        created_unix: Optional[float] = None,
        cached_payload: Optional[dict] = None,
    ) -> None:
        self.spec = spec
        self.backend = backend
        self.rows = rows
        self.summary = summary
        self.elapsed_seconds = elapsed_seconds
        self.telemetry = telemetry
        self.created_unix = created_unix
        self.cached_payload = cached_payload

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def ok(self) -> bool:
        return bool(self.summary.get("ok", True))

    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def table(self) -> str:
        return format_rows(self.rows)

    def to_payload(self) -> dict:
        """The persistence schema (validated by ``store.validate_payload``).

        ``telemetry`` joins ``timings``/``environment`` as provenance:
        present only when the run collected it, excluded from diffs
        either way (``store.comparable`` picks rows + spec_hash only).
        """
        if self.cached_payload is not None:
            return self.cached_payload
        timings: dict = {"elapsed_seconds": round(self.elapsed_seconds, 4)}
        if self.created_unix is not None:
            timings["created_unix"] = round(self.created_unix, 3)
        payload = {
            "schema": SCHEMA,
            "scenario": self.spec.name,
            "kind": self.spec.kind,
            "spec": self.spec.to_json(),
            "spec_hash": self.spec_hash(),
            "backend": self.backend,
            "rows": self.rows,
            "summary": self.summary,
            "timings": timings,
            "environment": _environment_provenance(),
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioResult":
        """Rehydrate a stored payload (the atlas-hit path).  The payload
        is kept verbatim, so ``to_payload`` round-trips byte-identically."""
        timings = payload.get("timings", {})
        return cls(
            spec=ScenarioSpec.from_json(payload["spec"]),
            backend=payload["backend"],
            rows=payload["rows"],
            summary=payload["summary"],
            elapsed_seconds=float(timings.get("elapsed_seconds", 0.0)),
            telemetry=payload.get("telemetry"),
            created_unix=timings.get("created_unix"),
            cached_payload=payload,
        )


class Runner:
    """Executes :class:`ScenarioSpec` objects through a chosen backend.

    ``backend=None`` honours each spec's own hint; passing a hint string
    (or a :class:`Backend` instance) overrides it for every run —
    ``Runner(backend="reference")`` replays a whole scenario on the
    oracle engine for parity checks.

    ``telemetry=`` (a :class:`repro.telemetry.Telemetry`) collects the
    run's dispatch decisions, cache traffic and phase durations; the
    default inherits the ambient context (:func:`repro.telemetry.
    current`), which is the no-op :data:`~repro.telemetry.NULL_TELEMETRY`
    unless a caller activated one — telemetry is observationally inert
    and off by default.

    ``atlas=`` (an :class:`~repro.scenarios.atlas.AtlasStore`, or a path
    to one) memoizes runs by ``spec_hash``: ``run`` consults the atlas
    before dispatching any backend, returns the stored result on a hit
    (telemetry event ``atlas.hit``, zero backend dispatch), and records
    the computed result after a miss (``atlas.miss`` then
    ``atlas.store``).
    """

    def __init__(
        self,
        backend: Union[str, Backend, None] = None,
        *,
        processes: Optional[int] = None,
        telemetry=None,
        atlas=None,
    ):
        self._backend = backend
        self._processes = processes
        self._telemetry = telemetry
        self._atlas = atlas

    def _resolve_atlas(self, override):
        from .atlas import resolve_atlas

        if override is not None:
            return resolve_atlas(override)
        resolved = resolve_atlas(self._atlas)
        if resolved is not self._atlas:
            self._atlas = resolved  # open a path-configured atlas once
        return resolved

    def resolve(self, scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
        if isinstance(scenario, ScenarioSpec):
            return scenario
        from .registry import get_scenario

        return get_scenario(scenario)

    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        *,
        backend: Union[str, Backend, None] = None,
        seed: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
        telemetry=None,
        atlas=None,
        **overrides: Any,
    ) -> ScenarioResult:
        from ..telemetry import current as telemetry_current

        telem = telemetry if telemetry is not None else self._telemetry
        if telem is None:
            telem = telemetry_current()
        with use_telemetry(telem):
            with telem.phase("resolve"):
                spec = self.resolve(scenario)
                chosen = backend if backend is not None else self._backend
                if isinstance(chosen, Backend):
                    spec = spec.with_overrides(
                        seed=seed, params=params, **overrides
                    )
                    resolved = chosen
                else:
                    spec = spec.with_overrides(
                        backend=chosen, seed=seed, params=params, **overrides
                    )
                    resolved = select_backend(
                        spec.backend, processes=self._processes
                    )
            if spec.kind in BACKEND_AGNOSTIC_KINDS and resolved.name != "auto":
                raise ScenarioError(
                    f"scenario kind {spec.kind!r} does not consult a backend "
                    f"(its drivers pick their own engines); drop the "
                    f"{resolved.name!r} backend selection"
                )
            atlas_store = self._resolve_atlas(atlas)
            if atlas_store is not None:
                spec_hash = spec.spec_hash()
                with telem.phase("atlas"):
                    cached = atlas_store.lookup(spec_hash)
                if cached is not None:
                    if telem.enabled:
                        telem.event("atlas.hit", spec_hash=spec_hash,
                                    scenario=spec.name, db=str(atlas_store.path))
                    return ScenarioResult.from_payload(cached)
                if telem.enabled:
                    telem.event("atlas.miss", spec_hash=spec_hash,
                                scenario=spec.name, db=str(atlas_store.path))
            rng = random.Random(spec.seed)
            created = time.time()  # repro-lint: disable=RPR003 -- provenance timestamp only: created_unix is the atlas store's created-at column, recorded in the result envelope and excluded from scenario diffs; no verdict reads it
            start = time.perf_counter()  # repro-lint: disable=RPR003 -- provenance timing only: elapsed_seconds is recorded in the result envelope and excluded from scenario diffs; no verdict reads it
            with telem.phase("execute"):
                rows, summary = execute(spec, resolved, rng)
            elapsed = time.perf_counter() - start  # repro-lint: disable=RPR003 -- provenance timing only: see above
        if "ok" not in summary:
            raise ScenarioError(
                f"executor for kind {spec.kind!r} returned no 'ok' verdict"
            )
        result = ScenarioResult(
            spec=spec,
            backend=resolved.name,
            rows=rows,
            summary=summary,
            elapsed_seconds=elapsed,
            telemetry=telem.snapshot() if telem.enabled else None,
            created_unix=created,
        )
        if atlas_store is not None:
            atlas_store.save(result)
            if telem.enabled:
                telem.event("atlas.store", spec_hash=result.spec_hash(),
                            scenario=result.name, db=str(atlas_store.path))
        return result
