"""Durable atlas store: SQLite-backed, spec_hash-memoized results.

The :class:`AtlasStore` is the service-shaped sibling of
:class:`~repro.scenarios.store.ResultStore`: one SQLite database (WAL
mode, versioned schema with forward migrations) whose primary key is the
``(spec_hash, name)`` pair — ``spec_hash`` is already a stable content
address of everything that affects a scenario's outcome, so it is
exactly the key a memoizing result cache needs.  Rows carry the full
result payload *verbatim* (the canonical ``ResultStore`` serialization,
so export is byte-identical to a loose-JSON save) plus provenance
columns lifted out of it: the spec JSON, backend, environment block,
timings, telemetry summary and a created-at stamp.

Timestamps never come from this module (RPR003: no wall clock outside
the timing allowlist) — ``created_unix`` is read from the payload's
``timings`` block, where :class:`~repro.scenarios.runner.Runner` records
it at its annotated provenance seam; legacy payloads simply have NULL.

Concurrency contract (two writers, one database):

- WAL journal mode + a busy timeout, so readers never block writers;
- every upsert runs inside ``BEGIN IMMEDIATE`` — the write lock is
  taken before the conflict check, so check-then-write is atomic;
- upserting a ``(spec_hash, name)`` that already exists is
  *last-write-wins* when the comparable part (rows) is identical —
  provenance refreshes — and a :class:`ScenarioError` when the rows
  conflict: the content address says these are the same experiment, so
  disagreeing outcomes are a bug, never something to paper over.

A file that is not an SQLite database is quarantined to ``<db>.corrupt``
and a fresh database is built in its place (the cache self-heals; the
forensic copy survives) — mirroring ``ResultStore.load``'s corrupt-JSON
quarantine.  A file that *is* SQLite but belongs to something else is an
error, not a quarantine: we never destroy a database we did not create.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
from typing import Iterable, Optional, Union

from ..durable import atomic_writer, quarantine
from ..telemetry import current as _telemetry
from .runner import ScenarioResult
from .spec import ScenarioError
from .store import comparable, validate_payload

__all__ = [
    "AtlasStore",
    "ATLAS_SCHEMA_VERSION",
    "DEFAULT_ATLAS_PATH",
    "create_v0_db",
]

#: Current atlas schema version (``atlas_meta['schema_version']``).
ATLAS_SCHEMA_VERSION = 1

#: Where the CLI's bare ``--atlas`` flag points.
DEFAULT_ATLAS_PATH = pathlib.Path("benchmarks") / "atlas.sqlite"

#: How long a writer waits on a locked database before giving up.
BUSY_TIMEOUT_MS = 10_000

_HEX = set("0123456789abcdef")


def dump_payload_text(payload: dict) -> str:
    """Exactly ``ResultStore.save``'s serialization, so a payload stored
    here and a payload stored as a loose JSON file are byte-identical."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Individual statements, executed one by one: ``executescript`` would
# implicitly COMMIT the caller's open transaction, and schema creation
# always runs inside BEGIN IMMEDIATE here.
_SCHEMA_V1 = (
    """
    CREATE TABLE IF NOT EXISTS atlas_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        spec_hash       TEXT NOT NULL,
        name            TEXT NOT NULL,
        scenario        TEXT NOT NULL,
        kind            TEXT NOT NULL,
        backend         TEXT NOT NULL,
        result_schema   TEXT NOT NULL,
        spec            TEXT NOT NULL,
        payload         TEXT NOT NULL,
        row_count       INTEGER NOT NULL,
        ok              INTEGER NOT NULL,
        elapsed_seconds REAL,
        created_unix    REAL,
        environment     TEXT NOT NULL,
        telemetry       TEXT,
        PRIMARY KEY (spec_hash, name)
    )
    """,
    "CREATE INDEX IF NOT EXISTS results_by_name ON results(name)",
)


def _create_schema_v1(conn: sqlite3.Connection) -> None:
    for statement in _SCHEMA_V1:
        conn.execute(statement)


def _provenance_columns(payload: dict) -> dict:
    """The indexed columns lifted out of a validated payload."""
    timings = payload.get("timings", {})
    telemetry = payload.get("telemetry")
    return {
        "spec_hash": payload["spec_hash"],
        "scenario": payload["scenario"],
        "kind": payload["kind"],
        "backend": payload["backend"],
        "result_schema": payload["schema"],
        "spec": json.dumps(payload["spec"], sort_keys=True),
        "row_count": len(payload["rows"]),
        "ok": 1 if payload["summary"].get("ok") else 0,
        "elapsed_seconds": timings.get("elapsed_seconds"),
        "created_unix": timings.get("created_unix"),
        "environment": json.dumps(payload["environment"], sort_keys=True),
        "telemetry": (
            json.dumps(telemetry, sort_keys=True) if telemetry is not None else None
        ),
    }


def _migrate_0_to_1(conn: sqlite3.Connection) -> None:
    """v0 -> v1: the prototype schema was just ``(spec_hash, name,
    payload)``; v1 lifts the provenance columns out of the payload so
    they are queryable.  Payload text is carried over *verbatim* —
    migration must never perturb a byte of a stored result."""
    rows = conn.execute(
        "SELECT spec_hash, name, payload FROM results ORDER BY rowid"
    ).fetchall()
    conn.execute("ALTER TABLE results RENAME TO results_v0")
    _create_schema_v1(conn)
    for spec_hash, name, text in rows:
        payload = json.loads(text)
        validate_payload(payload)
        cols = _provenance_columns(payload)
        if cols["spec_hash"] != spec_hash:
            raise ScenarioError(
                f"atlas migration: row {name!r} is keyed {spec_hash!r} but its "
                f"payload hashes to {cols['spec_hash']!r}"
            )
        _insert_row(conn, name, text, cols)
    conn.execute("DROP TABLE results_v0")


#: Forward migrations: version -> the function taking it one step up.
_MIGRATIONS = {0: _migrate_0_to_1}


def _insert_row(conn: sqlite3.Connection, name: str, text: str, cols: dict) -> None:
    conn.execute(
        """
        INSERT INTO results (
            spec_hash, name, scenario, kind, backend, result_schema, spec,
            payload, row_count, ok, elapsed_seconds, created_unix,
            environment, telemetry
        ) VALUES (
            :spec_hash, :name, :scenario, :kind, :backend, :result_schema,
            :spec, :payload, :row_count, :ok, :elapsed_seconds,
            :created_unix, :environment, :telemetry
        )
        ON CONFLICT (spec_hash, name) DO UPDATE SET
            scenario = excluded.scenario,
            kind = excluded.kind,
            backend = excluded.backend,
            result_schema = excluded.result_schema,
            spec = excluded.spec,
            payload = excluded.payload,
            row_count = excluded.row_count,
            ok = excluded.ok,
            elapsed_seconds = excluded.elapsed_seconds,
            created_unix = excluded.created_unix,
            environment = excluded.environment,
            telemetry = excluded.telemetry
        """,
        {**cols, "name": name, "payload": text},
    )


def create_v0_db(
    path: Union[str, pathlib.Path], entries: dict[str, str]
) -> pathlib.Path:
    """Build a v0-schema atlas (the fixture/migration seam).

    ``entries`` maps store names to *payload text* exactly as a loose
    JSON file holds it.  Used by the migration tests and by the script
    that generated the committed ``tests/scenarios/fixtures`` database —
    production code never writes v0.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path))
    try:
        conn.executescript(
            """
            CREATE TABLE atlas_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE results (
                spec_hash TEXT NOT NULL,
                name      TEXT NOT NULL,
                payload   TEXT NOT NULL,
                PRIMARY KEY (spec_hash, name)
            );
            """
        )
        conn.execute(
            "INSERT INTO atlas_meta VALUES ('schema_version', '0')"
        )
        for name, text in entries.items():
            payload = json.loads(text)
            validate_payload(payload)
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?)",
                (payload["spec_hash"], name, text),
            )
        conn.commit()
    finally:
        conn.close()
    return path


class AtlasStore:
    """The SQLite result store behind ``Runner`` memoization.

    Implements the :class:`ResultStore` verbs (``save``/``load``/
    ``names``/``diff``; ``export`` is the ``path_for``-equivalent — it
    materializes a row back into the loose-JSON layout byte-identically)
    plus the memoization verb ``lookup(spec_hash)`` the runner consults
    before dispatching a backend.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = self._open()

    # -- lifecycle -----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        # isolation_level=None: autocommit, with explicit BEGIN IMMEDIATE
        # around every upsert — sqlite3's implicit transactions would
        # defer the write lock past the conflict check.
        conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_MS / 1000, isolation_level=None
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        conn.execute("PRAGMA synchronous=NORMAL")
        return conn

    def _open(self) -> sqlite3.Connection:
        try:
            conn = self._connect()
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        except sqlite3.DatabaseError as exc:
            # Not an SQLite file at all (torn copy, disk trouble, manual
            # edit): quarantine and rebuild — the atlas is a cache of
            # results that also live elsewhere, so self-healing beats
            # failing every later run.  Mirrors ResultStore.load.
            moved = quarantine(self.path)
            t = _telemetry()
            if t.enabled:
                t.event("atlas.quarantine", path=str(self.path),
                        quarantine=moved and str(moved), reason=str(exc))
            conn = self._connect()
            tables = set()
        if not tables:
            conn.execute("BEGIN IMMEDIATE")
            try:
                _create_schema_v1(conn)
                conn.execute(
                    "INSERT OR REPLACE INTO atlas_meta VALUES "
                    "('schema_version', ?)",
                    (str(ATLAS_SCHEMA_VERSION),),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return conn
        if "atlas_meta" not in tables or "results" not in tables:
            conn.close()
            raise ScenarioError(
                f"{self.path} is an SQLite database but not an atlas "
                f"(tables: {sorted(tables)}); refusing to touch it"
            )
        self._migrate(conn)
        return conn

    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = self._version(conn)
        if version > ATLAS_SCHEMA_VERSION:
            conn.close()
            raise ScenarioError(
                f"atlas {self.path} has schema version {version}, newer than "
                f"this code's {ATLAS_SCHEMA_VERSION}; upgrade repro instead "
                f"of downgrading the database"
            )
        while version < ATLAS_SCHEMA_VERSION:
            step = _MIGRATIONS[version]
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Re-check under the write lock: a concurrent opener may
                # have migrated between our read and our BEGIN.
                version = self._version(conn)
                if version < ATLAS_SCHEMA_VERSION:
                    step(conn)
                    version += 1
                    conn.execute(
                        "INSERT OR REPLACE INTO atlas_meta VALUES "
                        "('schema_version', ?)",
                        (str(version),),
                    )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            t = _telemetry()
            if t.enabled:
                t.event("atlas.migrate", path=str(self.path), to_version=version)

    @staticmethod
    def _version(conn: sqlite3.Connection) -> int:
        row = conn.execute(
            "SELECT value FROM atlas_meta WHERE key='schema_version'"
        ).fetchone()
        if row is None:
            raise ScenarioError("atlas_meta lacks a schema_version row")
        return int(row[0])

    @property
    def schema_version(self) -> int:
        return self._version(self._conn)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "AtlasStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes --------------------------------------------------------

    def save(self, result: ScenarioResult) -> pathlib.Path:
        """Upsert a completed run under its scenario name.  Returns the
        database path (the ``ResultStore.save`` contract returns where
        the result now lives)."""
        payload = result.to_payload()
        self._upsert(result.name, payload, dump_payload_text(payload))
        return self.path

    def import_file(
        self, path: Union[str, pathlib.Path], *, name: Optional[str] = None
    ) -> str:
        """Import one loose-JSON result file, preserving its exact text
        so export round-trips byte-identically."""
        path = pathlib.Path(path)
        text = path.read_text()
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ScenarioError(
                f"cannot import {path}: not valid JSON ({exc})"
            ) from None
        if name is None:
            name = path.stem
        self._upsert(name, payload, text)
        return name

    def import_tree(self, root: Union[str, pathlib.Path]) -> list[str]:
        """Bulk-import every ``*.json`` under ``root`` (recursively),
        naming rows by their root-relative path sans suffix — so
        ``golden/verify-small.json`` imports as ``golden/verify-small``
        and never collides with the live ``verify-small`` row even
        though both share one spec_hash."""
        root = pathlib.Path(root)
        if not root.is_dir():
            raise ScenarioError(f"atlas import: {root} is not a directory")
        imported: list[str] = []
        for path in sorted(root.rglob("*.json")):
            rel = path.relative_to(root)
            name = str(rel.with_suffix("")).replace(os.sep, "/")
            imported.append(self.import_file(path, name=name))
        return imported

    def _upsert(self, name: str, payload: dict, text: str) -> None:
        validate_payload(payload)
        cols = _provenance_columns(payload)
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT payload FROM results WHERE spec_hash=? AND name=?",
                (cols["spec_hash"], name),
            ).fetchone()
            if row is not None:
                existing = json.loads(row[0])
                if comparable(existing) != comparable(payload):
                    raise ScenarioError(
                        f"atlas conflict for {name!r} "
                        f"(spec_hash {cols['spec_hash']}): stored rows differ "
                        f"from the new result — same content address, "
                        f"different outcome is a bug, refusing to overwrite"
                    )
            _insert_row(conn, name, text, cols)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        t = _telemetry()
        if t.enabled:
            t.count("atlas.store")

    # -- reads ---------------------------------------------------------

    def lookup(self, spec_hash: str) -> Optional[dict]:
        """The memoization read: the most recently stored payload for a
        content address, or ``None``.  Any name will do — rows sharing a
        spec_hash are contractually outcome-identical (the upsert
        enforces it per name; backends are outcome-equivalent across
        names by the spec_hash contract)."""
        row = self._conn.execute(
            "SELECT payload FROM results WHERE spec_hash=? "
            "ORDER BY rowid DESC LIMIT 1",
            (spec_hash,),
        ).fetchone()
        if row is None:
            return None
        payload = json.loads(row[0])
        validate_payload(payload)
        return payload

    def _row_text(self, name: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT payload FROM results WHERE name=? ORDER BY rowid DESC LIMIT 1",
            (name,),
        ).fetchone()
        return None if row is None else row[0]

    def load(self, name_or_path: Union[str, pathlib.Path]) -> dict:
        """Load by store name (``verify-small``, ``golden/verify-small``),
        by 16-hex spec_hash, or — for diff interop with loose files — by
        an existing JSON path."""
        if isinstance(name_or_path, pathlib.Path):
            return self._load_file(name_or_path)
        text = str(name_or_path)
        if text.endswith(".json") and pathlib.Path(text).exists():
            return self._load_file(pathlib.Path(text))
        name = text[: -len(".json")] if text.endswith(".json") else text
        stored = self._row_text(name)
        if stored is None and len(name) == 16 and set(name) <= _HEX:
            payload = self.lookup(name)
            if payload is not None:
                return payload
        if stored is None:
            raise ScenarioError(f"no atlas result named {name!r} in {self.path}")
        payload = json.loads(stored)
        validate_payload(payload)
        return payload

    @staticmethod
    def _load_file(path: pathlib.Path) -> dict:
        if not path.exists():
            raise ScenarioError(f"no stored result at {path}")
        payload = json.loads(path.read_text())
        validate_payload(payload)
        return payload

    def names(self) -> list[str]:
        return sorted(
            row[0] for row in self._conn.execute("SELECT DISTINCT name FROM results")
        )

    def diff(
        self,
        a: Union[str, pathlib.Path],
        b: Union[str, pathlib.Path],
    ) -> list[str]:
        from .store import diff_payloads

        return diff_payloads(self.load(a), self.load(b))

    # -- export (the path_for-equivalent) ------------------------------

    def export(
        self, name: str, out_dir: Union[str, pathlib.Path]
    ) -> pathlib.Path:
        """Materialize one row back into the loose-JSON layout,
        byte-identical to what was saved or imported."""
        text = self._row_text(name)
        if text is None:
            raise ScenarioError(f"no atlas result named {name!r} in {self.path}")
        out = pathlib.Path(out_dir) / f"{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(out) as fh:
            fh.write(text.encode())
        return out

    def export_all(self, out_dir: Union[str, pathlib.Path]) -> list[pathlib.Path]:
        return [self.export(name, out_dir) for name in self.names()]

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict:
        """Row counts and shape — the ``repro atlas stats`` payload."""
        conn = self._conn

        def _group(column: str) -> dict:
            return {
                key: n
                for key, n in conn.execute(
                    f"SELECT {column}, COUNT(*) FROM results "
                    f"GROUP BY {column} ORDER BY {column}"
                )
            }

        (total,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        (hashes,) = conn.execute(
            "SELECT COUNT(DISTINCT spec_hash) FROM results"
        ).fetchone()
        return {
            "path": str(self.path),
            "schema_version": self.schema_version,
            "results": total,
            "distinct_spec_hashes": hashes,
            "by_kind": _group("kind"),
            "by_backend": _group("backend"),
            "db_bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def vacuum(self) -> None:
        """Checkpoint the WAL, rebuild the file, verify integrity."""
        conn = self._conn
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
        (status,) = conn.execute("PRAGMA integrity_check").fetchone()
        if status != "ok":
            raise ScenarioError(
                f"atlas {self.path} failed integrity check after vacuum: {status}"
            )


def resolve_atlas(
    atlas: Union["AtlasStore", str, pathlib.Path, None],
) -> Optional["AtlasStore"]:
    """Coerce a Runner/CLI ``atlas=`` argument into an open store."""
    if atlas is None or isinstance(atlas, AtlasStore):
        return atlas
    return AtlasStore(atlas)


def import_paths(store: AtlasStore, paths: Iterable[Union[str, pathlib.Path]]) -> list[str]:
    """Import files and/or directories (the CLI ``atlas import`` verb)."""
    imported: list[str] = []
    for item in paths:
        p = pathlib.Path(item)
        if p.is_dir():
            imported.extend(store.import_tree(p))
        else:
            imported.append(store.import_file(p))
    return imported
