"""Tests for the atlas CLI verbs and the ``scenarios run --atlas`` flow."""

import pathlib

import pytest

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = REPO / "benchmarks" / "results" / "golden"


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "atlas.sqlite")


class TestAtlasVerbs:
    def test_init(self, db, capsys):
        assert main(["atlas", "init", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "schema v1" in out and "0 results" in out

    def test_import_stats_export_vacuum(self, db, tmp_path, capsys):
        goldens = len(list(GOLDEN.glob("*.json")))
        assert main(["atlas", "import", str(GOLDEN), "--db", db]) == 0
        out = capsys.readouterr().out
        assert f"{goldens} results imported" in out
        assert "imported thm31-sweep" in out

        assert main(["atlas", "stats", "--db", db]) == 0
        out = capsys.readouterr().out
        assert f"results: {goldens}" in out.replace("  ", " ").replace("  ", " ")

        out_dir = tmp_path / "exported"
        assert main(["atlas", "export", "verify-small", "--db", db,
                     "--out", str(out_dir)]) == 0
        exported = out_dir / "verify-small.json"
        assert exported.read_bytes() == (GOLDEN / "verify-small.json").read_bytes()

        assert main(["atlas", "export", "--all", "--db", db,
                     "--out", str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.json"))) == goldens

        assert main(["atlas", "vacuum", "--db", db]) == 0
        assert "integrity ok" in capsys.readouterr().out

    def test_export_needs_names_or_all(self, db, tmp_path):
        main(["atlas", "init", "--db", db])
        with pytest.raises(SystemExit):
            main(["atlas", "export", "--db", db, "--out", str(tmp_path)])

    def test_bare_atlas_is_still_the_feasibility_table(self, capsys):
        # the DB verbs share the `atlas` namespace with the original
        # feasibility-classification command; bare invocation must keep
        # its historical behavior
        assert main(["atlas", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 4  # header + 3 trees


class TestScenariosRunAtlas:
    def test_miss_then_hit_byte_identical(self, db, tmp_path, capsys):
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        assert main(["scenarios", "run", "verify-small", f"--atlas={db}",
                     "--save", "--out", str(cold_dir)]) == 0
        assert "atlas=miss" in capsys.readouterr().out
        assert main(["scenarios", "run", "verify-small", f"--atlas={db}",
                     "--save", "--out", str(warm_dir)]) == 0
        assert "atlas=hit" in capsys.readouterr().out
        cold = (cold_dir / "verify-small.json").read_bytes()
        warm = (warm_dir / "verify-small.json").read_bytes()
        assert warm == cold

    def test_hit_telemetry_shows_no_dispatch(self, db, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["scenarios", "run", "verify-small", f"--atlas={db}"]) == 0
        capsys.readouterr()
        assert main(["scenarios", "run", "verify-small", f"--atlas={db}",
                     f"--telemetry={events}"]) == 0
        out = capsys.readouterr().out
        assert "atlas=hit" in out
        assert "backend.dispatch" not in out  # live snapshot, zero dispatch
        text = events.read_text()
        assert '"atlas.hit"' in text
        assert '"execute"' not in text
