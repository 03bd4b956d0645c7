"""Tests for ScenarioSpec / DelayPolicy: parsing, hashing, serialization."""

import pytest

from repro.scenarios import DelayPolicy, ScenarioError, ScenarioSpec
from repro.scenarios.spec import build_agent, build_tree


class TestBuildSpecs:
    def test_tree_specs(self):
        assert build_tree("line:9").n == 9
        assert build_tree("colored:9").n == 9
        assert build_tree("spider:2,3").n == 6
        assert build_tree("random:15", seed=4) == build_tree("random:15", seed=4)

    def test_unknown_tree(self):
        with pytest.raises(ScenarioError):
            build_tree("torus:9")

    def test_agent_specs(self):
        assert build_agent("alternator").num_states == 2
        assert build_agent("counting:2").num_states == 8
        assert build_agent("pausing:1").num_states == 4
        assert build_agent("random:3", seed=1).num_states == 3
        assert build_agent("tree-random:3", seed=1).num_states == 3
        # register programs parse too (no num_states)
        build_agent("baseline")
        build_agent("thm41:4")
        build_agent("prime")

    def test_unknown_agent(self):
        with pytest.raises(ScenarioError):
            build_agent("warp:3")


class TestDelayPolicy:
    def test_choices_conventions(self):
        # θ = 0 emits one side only (side 2 when requested)
        assert DelayPolicy.none().choices() == [(0, 2)]
        assert DelayPolicy.sweep(2).choices() == [
            (0, 2), (1, 1), (1, 2), (2, 1), (2, 2),
        ]
        assert DelayPolicy.fixed(0, 3).choices() == [(0, 2), (3, 1), (3, 2)]
        assert DelayPolicy.sweep(1, sides=(1,)).choices() == [(0, 1), (1, 1)]

    def test_bad_kind(self):
        with pytest.raises(ScenarioError):
            DelayPolicy("warp")

    @pytest.mark.parametrize("sides", [(), (2, 2), (1, 2, 1), (3,), (0, 1)])
    def test_malformed_sides_rejected(self, sides):
        with pytest.raises(ScenarioError, match="delayed_sides"):
            DelayPolicy.sweep(3, sides=sides)
        with pytest.raises(ScenarioError, match="delayed_sides"):
            DelayPolicy("fixed", delays=(0, 1), sides=sides)

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ScenarioError, match="max_delay"):
            DelayPolicy.sweep(-1)

    def test_payload_sides_validated(self):
        # a scenario payload is the boundary: bad sides never reach a backend
        payload = spec().to_json()
        payload["delays"]["sides"] = [2, 2]
        with pytest.raises(ScenarioError, match="repeats"):
            ScenarioSpec.from_json(payload)


def spec(**kw):
    base = dict(name="t", kind="delay_sweep", tree="line:5",
                agent="alternator", pairs=((0, 3),),
                delays=DelayPolicy.sweep(4))
    base.update(kw)
    return ScenarioSpec(**base)


class TestSpecHash:
    def test_stable_and_input_sensitive(self):
        assert spec().spec_hash() == spec().spec_hash()
        assert spec().spec_hash() != spec(seed=1).spec_hash()
        assert spec().spec_hash() != spec(tree="line:7").spec_hash()
        assert (
            spec(params={"a": 1, "b": 2}).spec_hash()
            == spec(params={"b": 2, "a": 1}).spec_hash()
        )

    def test_presentation_fields_excluded(self):
        # backends are outcome-equivalent; descriptions are prose
        assert spec().spec_hash() == spec(backend="compiled").spec_hash()
        assert spec().spec_hash() == spec(description="x").spec_hash()

    def test_json_roundtrip_preserves_hash(self):
        s = spec(params={"ks": [1, 2], "flag": True})
        again = ScenarioSpec.from_json(s.to_json())
        assert again == s
        assert again.spec_hash() == s.spec_hash()

    def test_tuple_list_params_hash_equal(self):
        assert (
            spec(params={"ks": (1, 2)}).spec_hash()
            == spec(params={"ks": [1, 2]}).spec_hash()
        )


class TestSpecValidation:
    def test_bad_backend(self):
        with pytest.raises(ScenarioError):
            spec(backend="gpu")

    def test_bad_repetitions(self):
        with pytest.raises(ScenarioError):
            spec(repetitions=0)

    def test_unserializable_param(self):
        with pytest.raises(ScenarioError):
            spec(params={"fn": object()}).to_json()

    def test_with_overrides_merges_params(self):
        s = spec(params={"a": 1, "b": 2})
        s2 = s.with_overrides(backend="reference", seed=9, params={"b": 3})
        assert s2.backend == "reference"
        assert s2.seed == 9
        assert s2.params == {"a": 1, "b": 3}
        # the original is untouched (frozen value semantics)
        assert s.params == {"a": 1, "b": 2} and s.seed == 0
