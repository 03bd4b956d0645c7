"""The durable-file helper and its users: atomic publishing with a temp
name unique per call, and quarantine that tolerates a failed move."""

import os

import pytest

from repro.durable import atomic_writer, quarantine
from repro.scenarios import AtlasStore
from repro.scenarios.atlas import ATLAS_SCHEMA_VERSION


def test_atomic_writer_publishes_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    with atomic_writer(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_writer(path) as fh:
            fh.write(b"torn")
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_nested_writers_of_one_path_do_not_share_a_temp_file(tmp_path):
    # A temp name fixed per path (or per process) would let the inner
    # writer truncate and consume the outer one's temp file.
    path = tmp_path / "table.npy"
    with atomic_writer(path) as outer:
        outer.write(b"outer")
        with atomic_writer(path) as inner:
            inner.write(b"inner")
        assert path.read_bytes() == b"inner"
    assert path.read_bytes() == b"outer"
    assert [p.name for p in tmp_path.iterdir()] == ["table.npy"]


def test_quarantine_moves_aside_or_reports_failure(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    moved = quarantine(path)
    assert moved == tmp_path / "bad.json.corrupt"
    assert moved.read_text() == "{" and not path.exists()
    assert quarantine(path) is None  # nothing left to move


def test_atlas_open_survives_a_racing_quarantine(tmp_path, monkeypatch):
    # Another process quarantines the same corrupt database first: our
    # move then fails, and the store still opens a fresh atlas.
    db = tmp_path / "atlas.sqlite"
    db.write_bytes(b"this is definitely not an sqlite database\x00\xff")
    real_replace = os.replace

    def raced(src, dst):
        real_replace(src, dst)
        raise FileNotFoundError(src)

    monkeypatch.setattr(os, "replace", raced)
    store = AtlasStore(db)
    monkeypatch.setattr(os, "replace", real_replace)
    with store:
        assert store.schema_version == ATLAS_SCHEMA_VERSION
    assert (tmp_path / "atlas.sqlite.corrupt").exists()
