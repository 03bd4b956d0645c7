"""Tests for the ResultStore: schema validation, diffing, the golden sample."""

import json
import pathlib
import shutil
import subprocess

import pytest

from repro.scenarios import (
    ResultStore,
    Runner,
    ScenarioError,
    diff_payloads,
    validate_payload,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "benchmarks" / "results" / "golden"
GOLDEN_NAMES = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def result():
    return Runner().run("delays-line")


class TestStoreRoundtrip:
    def test_save_load_validate(self, result, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(result)
        assert path == tmp_path / "delays-line.json"
        payload = store.load("delays-line")
        assert payload["rows"] == result.rows
        assert payload["spec_hash"] == result.spec_hash()
        assert store.names() == ["delays-line"]

    def test_load_missing(self, tmp_path):
        with pytest.raises(ScenarioError):
            ResultStore(tmp_path).load("ghost")

    def test_dotted_names_stay_store_names(self, result, tmp_path):
        # Regression: load() used to misroute any name whose final dot
        # segment looked like a suffix to the filesystem instead of the
        # store.  Dotted names (e.g. versioned results) must round-trip.
        store = ResultStore(tmp_path)
        spec = result.spec._replace(name="thm31.v2")
        renamed = result._replace(spec=spec)
        path = store.save(renamed)
        assert path == tmp_path / "thm31.v2.json"
        payload = store.load("thm31.v2")
        assert payload["scenario"] == "thm31.v2"
        assert store.names() == ["thm31.v2"]
        assert store.diff("thm31.v2", "thm31.v2") == []

    def test_json_suffixed_name_without_file_resolves_in_store(self, result, tmp_path):
        # "res.json" with no such file in the CWD must resolve to the
        # stored result "res" (never the double-suffix res.json.json),
        # and a miss must report the store path, not a CWD-relative one.
        store = ResultStore(tmp_path)
        store.save(result)
        payload = store.load(f"{result.name}.json")
        assert payload["scenario"] == result.name
        with pytest.raises(ScenarioError) as exc:
            store.load("ghost.json")
        assert str(tmp_path / "ghost.json") in str(exc.value)

    def test_json_suffixed_existing_file_wins(self, result, tmp_path, monkeypatch):
        # An existing file of that exact relative path is an explicit
        # reference and takes precedence over the store entry.
        store = ResultStore(tmp_path / "store")
        store.save(result)
        other = ResultStore(tmp_path / "cwd")
        other.save(result)
        monkeypatch.chdir(tmp_path / "cwd")
        payload = store.load(f"{result.name}.json")
        assert payload["scenario"] == result.name  # the CWD file loaded

    def test_path_for_rejects_path_separators(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("a/b", "..", "../escape", "a\\b", ""):
            with pytest.raises(ScenarioError):
                store.path_for(bad)

    def test_path_for_rejects_json_suffixed_names(self, tmp_path):
        # Such a name would save as <name>.json.json and load() could
        # never find it again by name.
        with pytest.raises(ScenarioError):
            ResultStore(tmp_path).path_for("runA.json")

    def test_explicit_paths_still_load(self, result, tmp_path):
        store = ResultStore(tmp_path)
        saved = store.save(result)
        assert store.load(saved)["scenario"] == result.name  # Path object
        assert store.load(str(saved))["scenario"] == result.name  # str path

    def test_store_relative_subdirectory_names_load(self, tmp_path, monkeypatch):
        # `load("golden/thm31-sweep")` on the real results store must
        # find <root>/golden/thm31-sweep.json from any CWD.
        store = ResultStore(REPO_ROOT / "benchmarks" / "results")
        monkeypatch.chdir(tmp_path)
        payload = store.load("golden/thm31-sweep")
        assert payload["scenario"] == "thm31-sweep"
        assert store.load("golden/thm31-sweep.json") == payload


class TestRobustPersistence:
    """Satellites of the fault-model PR: atomic saves, quarantine of
    corrupt results instead of poisoning every later load."""

    def test_save_leaves_no_temp_residue(self, result, tmp_path):
        store = ResultStore(tmp_path)
        store.save(result)
        assert [p.name for p in tmp_path.iterdir()] == ["delays-line.json"]

    def test_save_over_existing_result_replaces_it(self, result, tmp_path):
        store = ResultStore(tmp_path)
        store.save(result)
        before = store.load(result.name)
        store.save(result)
        assert store.load(result.name) == before
        assert [p.name for p in tmp_path.iterdir()] == ["delays-line.json"]

    def test_failed_save_cleans_up_its_temp_file(self, result, tmp_path, monkeypatch):
        import os

        store = ResultStore(tmp_path)

        def boom(src, dst):
            raise OSError("simulated replace failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.save(result)
        # The temp file is gone and no half-written target appeared.
        assert list(tmp_path.iterdir()) == []

    def test_save_racing_a_second_save_of_the_same_name(
        self, result, tmp_path, monkeypatch
    ):
        # A second save of the same name starts inside the first save's
        # os.replace.  With a shared temp name the second save truncated
        # and consumed the first one's temp file, so the first replace
        # raised FileNotFoundError.
        import os

        store = ResultStore(tmp_path)
        other = result._replace(rows=result.rows[:1])
        real_replace = os.replace
        racing = []

        def replace(src, dst):
            if not racing:
                racing.append(None)
                racing[0] = store.save(other)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        store.save(result)
        assert racing == [tmp_path / "delays-line.json"]
        assert store.load(result.name)["rows"] == result.rows
        assert [p.name for p in tmp_path.iterdir()] == ["delays-line.json"]

    def test_corrupt_json_is_quarantined_not_fatal_forever(self, result, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(result)
        path.write_text('{"schema": "repro.scenario-result/v1", "rows": [')
        with pytest.raises(ScenarioError) as exc:
            store.load(result.name)
        assert "not valid JSON" in str(exc.value)
        assert not path.exists()  # moved aside...
        quarantine = path.with_name(path.name + ".corrupt")
        assert quarantine.exists()  # ...kept for forensics
        assert str(quarantine) in str(exc.value)
        # The slot is usable again immediately.
        store.save(result)
        assert store.load(result.name)["scenario"] == result.name

    def test_valid_but_off_schema_json_is_not_quarantined(self, result, tmp_path):
        # Schema violations are a different failure: the file parses, so
        # it stays put for inspection and the error names the field.
        store = ResultStore(tmp_path)
        path = store.save(result)
        path.write_text('{"schema": "v0"}')
        with pytest.raises(ScenarioError):
            store.load(result.name)
        assert path.exists()


class TestValidation:
    def test_rejects_wrong_schema(self, result):
        payload = result.to_payload()
        payload["schema"] = "v0"
        with pytest.raises(ScenarioError):
            validate_payload(payload)

    def test_rejects_missing_summary_ok(self, result):
        payload = result.to_payload()
        del payload["summary"]["ok"]
        with pytest.raises(ScenarioError):
            validate_payload(payload)

    def test_rejects_nested_row_values(self, result):
        payload = result.to_payload()
        payload["rows"] = [{"bad": {"nested": 1}}]
        with pytest.raises(ScenarioError):
            validate_payload(payload)


class TestDiff:
    def test_equivalent(self, result):
        assert diff_payloads(result.to_payload(), result.to_payload()) == []

    def test_row_difference_reported(self, result):
        a, b = result.to_payload(), result.to_payload()
        b["rows"] = json.loads(json.dumps(b["rows"]))
        b["rows"][0]["verdict"] = "flipped"
        diffs = diff_payloads(a, b)
        assert any("row 0" in d and "verdict" in d for d in diffs)

    def test_spec_mismatch_reported(self, result):
        a, b = result.to_payload(), result.to_payload()
        b["spec_hash"] = "0" * 16
        assert any("spec_hash" in d for d in diff_payloads(a, b))

    def test_store_diff_across_backends(self, tmp_path):
        runner = Runner()
        store = ResultStore(tmp_path)
        ref = runner.run("thm31-sweep", backend="reference", params={"ks": [1, 2]})
        cmp_ = runner.run("thm31-sweep", backend="compiled", params={"ks": [1, 2]})
        pa = tmp_path / "ref.json"
        pa.write_text(json.dumps(ref.to_payload()))
        pb = tmp_path / "cmp.json"
        pb.write_text(json.dumps(cmp_.to_payload()))
        assert store.diff(pa, pb) == []


class TestGoldenSample:
    """The checked-in golden results stay reproducible (satellites: the
    .txt artifacts were replaced by schema-validated JSON; the gathering
    workload ships its own golden grid)."""

    def test_expected_goldens_present(self):
        assert "thm31-sweep" in GOLDEN_NAMES
        assert "gathering-line-k3" in GOLDEN_NAMES

    def test_goldens_match_registry_one_to_one(self):
        # `make golden-diff` iterates this directory, so a scenario
        # without a golden would go unchecked and a stray golden would
        # fail to resolve.
        from repro.scenarios.registry import scenario_names

        assert GOLDEN_NAMES == scenario_names()

    @pytest.mark.skipif(shutil.which("make") is None, reason="needs make")
    def test_fault_smoke_covers_every_sweep_scenario(self):
        # `make fault-smoke` is the reference/compiled/auto parity gate
        # of the exact sweep solvers: its SWEEP_SCENARIOS must be every
        # delay_sweep / gathering_sweep scenario of the registry.
        from repro.scenarios.registry import all_scenarios

        listed = subprocess.run(
            ["make", "-s", "--no-print-directory", "--eval",
             "print-sweeps: ; @echo $(SWEEP_SCENARIOS)", "print-sweeps"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.split()
        expected = [
            spec.name for spec in all_scenarios()
            if spec.kind in ("delay_sweep", "gathering_sweep")
        ]
        assert sorted(listed) == sorted(expected)
        assert "delays-line-long" in listed and "gathering-crash-k3" in listed

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_validates(self, name):
        payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        validate_payload(payload)
        assert payload["scenario"] == name

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_matches_fresh_run(self, name):
        payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        fresh = Runner().run(name)
        assert fresh.spec_hash() == payload["spec_hash"]
        assert fresh.rows == payload["rows"]
        assert fresh.summary == payload["summary"]
