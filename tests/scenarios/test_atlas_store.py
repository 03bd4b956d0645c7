"""Tests for the durable atlas store: schema lifecycle, byte-identical
round-trips, concurrent writers, and forward migrations."""

import json
import multiprocessing
import pathlib
import shutil
import sqlite3

import pytest

from repro.scenarios import AtlasStore, Runner, ScenarioError
from repro.scenarios.atlas import (
    ATLAS_SCHEMA_VERSION,
    create_v0_db,
    dump_payload_text,
    import_paths,
)
from repro.scenarios.store import ResultStore

REPO = pathlib.Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"
GOLDEN = RESULTS / "golden"
FIXTURE_V0 = pathlib.Path(__file__).parent / "fixtures" / "atlas-v0.sqlite"


@pytest.fixture(scope="module")
def result():
    return Runner().run("verify-small")


@pytest.fixture()
def db(tmp_path):
    return tmp_path / "atlas.sqlite"


class TestLifecycle:
    def test_init_creates_schema(self, db):
        with AtlasStore(db) as store:
            assert store.schema_version == ATLAS_SCHEMA_VERSION
            assert store.names() == []
        conn = sqlite3.connect(str(db))
        try:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        finally:
            conn.close()
        assert mode == "wal"
        assert {"atlas_meta", "results"} <= tables

    def test_empty_file_is_initialized(self, db):
        db.touch()
        with AtlasStore(db) as store:
            assert store.schema_version == ATLAS_SCHEMA_VERSION

    def test_reopen_is_idempotent(self, db, result):
        with AtlasStore(db) as store:
            store.save(result)
        with AtlasStore(db) as store:
            assert store.names() == ["verify-small"]

    def test_newer_schema_refused(self, db):
        with AtlasStore(db):
            pass
        conn = sqlite3.connect(str(db))
        conn.execute(
            "UPDATE atlas_meta SET value=? WHERE key='schema_version'",
            (str(ATLAS_SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(ScenarioError, match="newer"):
            AtlasStore(db)

    def test_foreign_sqlite_refused(self, db):
        conn = sqlite3.connect(str(db))
        conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        conn.commit()
        conn.close()
        with pytest.raises(ScenarioError, match="refusing"):
            AtlasStore(db)
        # refusal must not have destroyed the foreign database
        conn = sqlite3.connect(str(db))
        assert conn.execute("SELECT COUNT(*) FROM users").fetchone() == (0,)
        conn.close()

    def test_corrupt_garbage_quarantined_and_rebuilt(self, db, result):
        db.write_bytes(b"this is definitely not an sqlite database\x00\xff")
        with AtlasStore(db) as store:
            assert store.schema_version == ATLAS_SCHEMA_VERSION
            store.save(result)
            assert store.names() == ["verify-small"]
        quarantine = db.with_name(db.name + ".corrupt")
        assert quarantine.read_bytes().startswith(b"this is definitely not")


class TestRoundTrip:
    def test_save_load_lookup(self, db, result):
        with AtlasStore(db) as store:
            assert store.save(result) == store.path
            payload = result.to_payload()
            assert store.load("verify-small") == payload
            assert store.load("verify-small.json") == payload
            assert store.lookup(result.spec_hash()) == payload
            assert store.load(result.spec_hash()) == payload
            assert store.lookup("0" * 16) is None
            with pytest.raises(ScenarioError, match="no atlas result"):
                store.load("nope")

    def test_export_is_byte_identical(self, db, result, tmp_path):
        store = ResultStore(tmp_path / "loose")
        loose = store.save(result)
        with AtlasStore(db) as atlas:
            atlas.save(result)
            out = atlas.export("verify-small", tmp_path / "exported")
        assert out.read_bytes() == loose.read_bytes()

    def test_export_racing_a_second_export(self, db, result, tmp_path, monkeypatch):
        # A second export of the same name inside the first export's
        # os.replace must not consume the first one's temp file.
        import os

        out_dir = tmp_path / "exported"
        real_replace = os.replace
        racing = []
        with AtlasStore(db) as atlas:
            atlas.save(result)

            def replace(src, dst):
                if not racing:
                    racing.append(None)
                    racing[0] = atlas.export("verify-small", out_dir)
                real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
            out = atlas.export("verify-small", out_dir)
            monkeypatch.undo()
            assert racing == [out]
            assert out.read_text() == atlas._row_text("verify-small")
        assert [p.name for p in out_dir.iterdir()] == ["verify-small.json"]

    def test_import_tree_golden_round_trip(self, db, tmp_path):
        # a results tree like benchmarks/results/: the goldens plus a
        # loose top-level result (built here, as a clean checkout has none)
        tree = tmp_path / "results"
        shutil.copytree(GOLDEN, tree / "golden")
        shutil.copy(GOLDEN / "verify-small.json", tree / "verify-small.json")
        with AtlasStore(db) as store:
            names = store.import_tree(tree)
            assert "golden/verify-small" in names
            assert "verify-small" in names
            exported = store.export_all(tmp_path / "out")
        for path in exported:
            rel = path.relative_to(tmp_path / "out")
            assert path.read_bytes() == (tree / rel).read_bytes()

    def test_import_paths_mixes_files_and_dirs(self, db):
        with AtlasStore(db) as store:
            names = import_paths(
                store, [GOLDEN / "verify-small.json", GOLDEN]
            )
        assert names[0] == "verify-small"
        assert "thm31-sweep" in names

    def test_import_rejects_non_json(self, db, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with AtlasStore(db) as store:
            with pytest.raises(ScenarioError, match="not valid JSON"):
                store.import_file(bad)

    def test_diff_against_loose_file(self, db):
        with AtlasStore(db) as store:
            store.import_file(GOLDEN / "verify-small.json")
            assert store.diff(
                "verify-small", str(GOLDEN / "verify-small.json")
            ) == []


class TestUpsert:
    def test_identical_payload_is_last_write_wins(self, db, result):
        with AtlasStore(db) as store:
            store.save(result)
            store.save(result)  # same rows: provenance refresh, no error
            assert store.stats()["results"] == 1

    def test_conflicting_rows_refused(self, db, tmp_path):
        text = (GOLDEN / "verify-small.json").read_text()
        doctored = json.loads(text)
        doctored["rows"][0] = dict(doctored["rows"][0], met=False, steps=999)
        bad = tmp_path / "verify-small.json"
        bad.write_text(dump_payload_text(doctored))
        with AtlasStore(db) as store:
            store.import_file(GOLDEN / "verify-small.json")
            with pytest.raises(ScenarioError, match="conflict"):
                store.import_file(bad)

    def test_stats_and_vacuum(self, db):
        goldens = len(list(GOLDEN.glob("*.json")))
        with AtlasStore(db) as store:
            store.import_tree(GOLDEN)
            stats = store.stats()
            assert stats["results"] == goldens
            assert stats["schema_version"] == ATLAS_SCHEMA_VERSION
            assert sum(stats["by_kind"].values()) == goldens
            store.vacuum()
            assert store.stats()["results"] == goldens


def _worker_import(db, src, barrier):
    with AtlasStore(db) as store:
        barrier.wait(timeout=30)
        store.import_file(src, name="shared")


class TestConcurrentWriters:
    def test_identical_payloads_last_write_wins(self, db):
        src = GOLDEN / "verify-small.json"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_worker_import, args=(db, src, barrier))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert [p.exitcode for p in procs] == [0, 0]
        with AtlasStore(db) as store:
            assert store.stats()["results"] == 1
            assert store.load("shared") == json.loads(src.read_text())

    def test_conflicting_payloads_one_writer_loses(self, db, tmp_path):
        src = GOLDEN / "verify-small.json"
        doctored = json.loads(src.read_text())
        doctored["rows"][0] = dict(doctored["rows"][0], met=False, steps=999)
        bad = tmp_path / "doctored.json"
        bad.write_text(dump_payload_text(doctored))
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_worker_import, args=(db, path, barrier))
            for path in (src, bad)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        codes = sorted(p.exitcode for p in procs)
        assert codes[0] == 0 and codes[1] != 0  # exactly one ScenarioError
        with AtlasStore(db) as store:
            assert store.stats()["results"] == 1  # the winner's row, intact


class TestMigration:
    def test_v0_migrates_forward_byte_identically(self, db):
        entries = {
            p.stem: p.read_text() for p in sorted(GOLDEN.glob("*.json"))
        }
        create_v0_db(db, entries)
        with AtlasStore(db) as store:
            assert store.schema_version == ATLAS_SCHEMA_VERSION
            assert store.names() == sorted(entries)
            stats = store.stats()
            assert stats["results"] == len(entries)
        # payload text survived the schema rewrite verbatim
        conn = sqlite3.connect(str(db))
        try:
            for name, text in entries.items():
                (stored,) = conn.execute(
                    "SELECT payload FROM results WHERE name=?", (name,)
                ).fetchone()
                assert stored == text
        finally:
            conn.close()

    def test_committed_fixture_migrates(self, db, tmp_path):
        import shutil

        shutil.copy(FIXTURE_V0, db)
        with AtlasStore(db) as store:
            assert store.schema_version == ATLAS_SCHEMA_VERSION
            exported = store.export_all(tmp_path / "out")
        assert len(exported) == 6
        for path in exported:
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes()

    def test_v0_key_mismatch_refused(self, db):
        text = (GOLDEN / "verify-small.json").read_text()
        create_v0_db(db, {"verify-small": text})
        conn = sqlite3.connect(str(db))
        conn.execute("UPDATE results SET spec_hash='deadbeefdeadbeef'")
        conn.commit()
        conn.close()
        with pytest.raises(ScenarioError, match="hashes to"):
            AtlasStore(db)
