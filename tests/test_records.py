"""The record types: :class:`~repro.records.TupleRecord` tuples for pure
frozen records, ``__slots__`` :class:`~repro.records.Record` subclasses
for the mutable and validating ones.  These pin what callers rely on: equality, hashing, repr, the
types' own ``_replace``, pickling across the process pool, spec hashes,
payload round trips and the lowering key's type tag."""

import copy
import json
import pathlib
import pickle

import pytest

from repro.agents import Ctx, Walk, alternator
from repro.agents.lowering import _freeze
from repro.agents.program import Drive
from repro.errors import AgentProtocolError
from repro.analysis.stats import Series
from repro.records import FrozenRecordError, Record, TupleRecord, tuple_new
from repro.scenarios import ScenarioResult
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import DelayPolicy, ScenarioError, ScenarioSpec
from repro.sim import BatchJob, GatheringJob
from repro.sim.faults import CrashFault, FaultPlan, PauseFault, RelabelFault
from repro.sim.supervise import JobFailure
from repro.sim.trace import Trace
from repro.trees import edge_colored_line

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "golden"


class TestRecordBase:
    def test_fields_are_the_slots_in_order(self):
        assert Walk._fields == ("port", "delta", "arrivals", "speed", "counter")
        assert Ctx._fields == ("in_port", "degree", "rounds")

    def test_equality_is_field_wise_and_same_type_only(self):
        assert Ctx(1, 2) == Ctx(1, 2, 0)
        assert Ctx(1, 2) != Ctx(1, 2, 5)
        assert Trace(0, 3) == Trace(0, 3, [])
        assert Ctx(1, 2) != (1, 2, 0)

    def test_repr_names_every_field(self):
        assert repr(Ctx(1, 2)) == "Ctx(in_port=1, degree=2, rounds=0)"
        assert repr(Walk(0, 1, 2)) == (
            "Walk(port=0, delta=1, arrivals=2, speed=1, counter=None)"
        )

    def test_only_frozen_records_hash(self):
        assert hash(Walk(0, 1, 2)) == hash(Walk(0, 1, 2))
        assert len({Walk(0, 1, 2), Walk(0, 1, 2), Walk(0, -1, 2)}) == 2
        assert hash(FaultPlan()) == hash(FaultPlan())
        with pytest.raises(TypeError):
            hash(Ctx(1, 2))

    def test_mutable_defaults_are_fresh(self):
        a, b = Trace(0, 1), Trace(0, 1)
        a.records.append("r")
        assert b.records == []

    def test_replace_revalidates(self):
        walk = Walk(0, 1, 2)
        assert walk._replace(arrivals=5) == Walk(0, 1, 5)
        with pytest.raises(AgentProtocolError):
            walk._replace(delta=0)
        with pytest.raises(TypeError, match="no field"):
            walk._replace(nope=1)
        with pytest.raises(ScenarioError):
            DelayPolicy.sweep(3)._replace(max_delay=-1)

    def test_frozen_records_refuse_assignment(self):
        frozen = [
            Walk(0, 1, 2),
            FaultPlan(crashes=(CrashFault(0, 3),)),
            DelayPolicy.sweep(3),
            get_scenario("thm43"),
            Series("s", (1.0,), (2.0,)),
        ]
        for record in frozen:
            name = record._fields[0]
            before = getattr(record, name)
            with pytest.raises(FrozenRecordError, match="frozen"):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == before
        ctx = Ctx(1, 2)
        ctx.rounds = 4  # a mutable record still assigns
        assert ctx.rounds == 4

    def test_frozen_records_pickle_and_copy_through_init(self):
        for record in (
            Walk(0, -1, 2, speed=3, counter="c"),
            FaultPlan(pauses=(PauseFault(0, 2, 3),)),
            DelayPolicy.fixed(1, 4),
            get_scenario("memory-vs-n"),
            Series("s", (1.0, 2.0), (3.0, 4.0)),
        ):
            for back in (pickle.loads(pickle.dumps(record)),
                         copy.copy(record), copy.deepcopy(record)):
                assert type(back) is type(record) and back == record

    def test_subclass_without_slots_is_refused(self):
        with pytest.raises(TypeError, match="__slots__"):
            class Loose(Record):  # noqa: F841
                pass


class TestTupleRecord:
    def test_fields_follow_the_new_signature_and_defaults_apply(self):
        class Hop(TupleRecord):
            __slots__ = ()

            def __new__(cls, node: int, edge: tuple = None, weight: int = 1):
                return tuple_new(cls, (node, edge, weight))

        assert Hop._fields == ("node", "edge", "weight")
        hop = Hop(3)
        assert (hop.node, hop.edge, hop.weight) == (3, None, 1)
        assert Hop(3, weight=2) == (3, None, 2)
        assert PauseFault._fields == ("agent", "round", "duration")
        assert PauseFault(0, 2).duration == 1

    def test_an_instance_is_a_read_only_tuple(self):
        fault = PauseFault(0, 2, 3)
        assert isinstance(fault, tuple) and type(fault) is PauseFault
        agent, round_, duration = fault
        assert (agent, round_, duration) == (0, 2, 3)
        assert fault[1] == fault.round == 2
        with pytest.raises(AttributeError):
            fault.round = 5
        with pytest.raises(AttributeError):
            fault.extra = 1  # __slots__ = (): no instance dict

    def test_repr_and_replace(self):
        fault = PauseFault(0, 2)
        assert repr(fault) == "PauseFault(agent=0, round=2, duration=1)"
        assert fault._replace(duration=4) == PauseFault(0, 2, 4)
        assert type(fault._replace()) is PauseFault
        with pytest.raises(TypeError, match="no field"):
            fault._replace(nope=1)

    def test_defaulted_record_pickles_and_copies_through_new(self):
        for record in (PauseFault(1, 5), RelabelFault(3), Drive(None, 3, 1, True)):
            for back in (pickle.loads(pickle.dumps(record)),
                         copy.copy(record), copy.deepcopy(record)):
                assert type(back) is type(record) and back == record

    def test_equal_values_compare_equal_across_types(self):
        # documented tuple equality: the types never share a set or keys
        assert CrashFault(0, 3) == RelabelFault(0, 3) == (0, 3)
        assert hash(CrashFault(0, 3)) == hash(RelabelFault(0, 3))

    def test_malformed_record_types_are_refused(self):
        with pytest.raises(TypeError, match="__slots__"):
            class Loose(TupleRecord):  # noqa: F841
                def __new__(cls, a):
                    return tuple_new(cls, (a,))
        with pytest.raises(TypeError, match="__new__"):
            class Fieldless(TupleRecord):  # noqa: F841
                __slots__ = ()
        with pytest.raises(TypeError, match="positionally"):
            class Starred(TupleRecord):  # noqa: F841
                __slots__ = ()

                def __new__(cls, *values):
                    return tuple_new(cls, values)


class TestPickling:
    """Jobs and failures cross the supervised pool by pickle."""

    def test_batch_job_round_trip(self):
        job = BatchJob(
            edge_colored_line(7), alternator(), 0, 5, delay=2, certify=True,
            seed=3, faults=FaultPlan(crashes=(CrashFault(1, 4),)),
        )
        back = pickle.loads(pickle.dumps(job))
        assert type(back) is BatchJob
        assert back._replace(tree=None, prototype=None) == job._replace(
            tree=None, prototype=None
        )
        assert back.faults == job.faults
        assert back.tree.n == 7

    def test_gathering_job_round_trip(self):
        job = GatheringJob(
            edge_colored_line(7), alternator(), (0, 3, 6), delays=(0, 1, 2),
            faults=FaultPlan(pauses=(PauseFault(0, 2, 3),)),
        )
        back = pickle.loads(pickle.dumps(job))
        assert type(back) is GatheringJob
        assert (back.starts, back.delays, back.faults) == (
            job.starts, job.delays, job.faults,
        )

    def test_job_failure_round_trip(self):
        failure = JobFailure(3, "timeout", "took too long", 2, 1.5, (0.5, 1.0))
        back = pickle.loads(pickle.dumps(failure))
        assert back == failure and type(back) is JobFailure

    def test_fault_plan_round_trip(self):
        plan = FaultPlan(crashes=(CrashFault(1, 6), CrashFault(0, 2)))
        assert plan.crashes == (CrashFault(0, 2), CrashFault(1, 6))  # sorted
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestScenarioRecords:
    def test_with_overrides_keeps_spec_hash(self):
        spec = get_scenario("thm43")
        assert spec.with_overrides().spec_hash() == spec.spec_hash()
        assert spec.with_overrides(backend="reference").spec_hash() == spec.spec_hash()
        assert spec.with_overrides(seed=spec.seed + 1).spec_hash() != spec.spec_hash()
        assert spec.with_overrides() == spec

    def test_params_refuse_namedtuple_records(self):
        spec = ScenarioSpec("x", "thm43", params={"crash": CrashFault(0, 3)})
        with pytest.raises(ScenarioError, match="not JSON-serializable"):
            spec.to_json()

    def test_registered_spec_hashes_match_the_goldens(self):
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            payload = json.loads(path.read_text())
            spec = ScenarioSpec.from_json(payload["spec"])
            assert spec.spec_hash() == payload["spec_hash"], path.stem
            assert get_scenario(path.stem).spec_hash() == payload["spec_hash"]

    def test_payload_round_trip_is_byte_identical(self):
        text = (GOLDEN_DIR / "thm43.json").read_text()
        payload = json.loads(text)
        again = ScenarioResult.from_payload(payload).to_payload()
        assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True)
        assert again is payload


class TestLoweringKeyTag:
    def test_records_are_tagged_with_their_type(self):
        frozen = _freeze(Drive(None, 3, 1, True), {}, {})
        assert frozen == (
            "Drive",
            (("value", None), ("rounds", 3), ("node", 1), ("finished", True)),
        )
        assert _freeze(Walk(0, 1, 2), {}, {}) == (
            "Walk",
            (("port", 0), ("delta", 1), ("arrivals", 2), ("speed", 1),
             ("counter", None)),
        )
        # a plain tuple of the same values is a different key
        assert _freeze((None, 3, 1, True), {}, {}) != frozen
