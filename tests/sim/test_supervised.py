"""Tests for the process pool (repro.sim.supervise), the one fan-out
every parallel sweep runs through.

The pool's contract: results equal to in-process execution, a serial
path for unpicklable batches, per-job wall-clock timeouts, bounded
retry with backoff, dead-worker detection and respawn, structured
JobFailure rows instead of batch-wide crashes, checkpointed resume, and
no leaked worker processes on any path.
"""

import json
import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from repro.agents import STAY, Automaton, LineAutomaton, alternator
from repro.errors import SimulationError
from repro.scenarios import Runner, backends
from repro.scenarios.backends import BatchedBackend
from repro.scenarios.spec import ScenarioError
from repro.sim import (
    BatchJob,
    GatheringJob,
    JobFailure,
    SweepCheckpoint,
    adversarial_search,
    job_fingerprint,
    run_batch_supervised,
    run_gathering,
    run_gathering_batch_supervised,
    run_gathering_reference,
    run_rendezvous_fast,
)
from repro.sim.supervise import decode_outcome, encode_outcome
from repro.telemetry import Telemetry
from repro.trees import edge_colored_line, line, spider

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "golden"


def walker():
    return Automaton(1, {}, [0])


class KillerAgent:
    """Duck-typed agent that SIGKILLs its worker process on start —
    simulates an OOM-killed / externally killed worker mid-job."""

    def start(self, degree):
        os.kill(os.getpid(), signal.SIGKILL)

    def step(self, in_port, degree):
        return STAY

    def clone(self):
        return KillerAgent()


def healthy_jobs():
    t = line(6)
    return [
        BatchJob(t, walker(), u, v, delay=d, max_rounds=5000, certify=True)
        for (u, v, d) in [(0, 5, 0), (1, 4, 2), (2, 5, 1), (0, 3, 0)]
    ]


def hang_job():
    """Alternator 0<->8 on a plain line never meets; without
    certification the run spins to max_rounds — minutes of wall clock,
    an effective hang for a sub-second timeout."""
    return BatchJob(
        line(9), alternator(), 0, 8,
        delay=0, certify=False, max_rounds=10**9,
    )


def gathering_jobs():
    t = spider([2, 2, 2])
    return [
        GatheringJob(t, walker(), starts, delays=delays,
                     max_rounds=4000, certify=True)
        for starts, delays in [
            ((1, 3, 5), None),
            ((1, 3, 5), (0, 1, 2)),
            ((2, 4, 6), (3, 0, 0)),
            ((1, 2, 3, 4), None),
        ]
    ]


def closure_agent():
    """A transition *closure* cannot be pickled."""
    return Automaton(1, lambda s, ip, d: 0, [STAY])


def as_verdicts(outcomes):
    return [(o.met, o.meeting_round, o.certified_never) for o in outcomes]


def as_gathering_verdicts(outcomes):
    return [(o.gathered, o.gathering_round, o.certified_never) for o in outcomes]


def in_process(jobs):
    """The reference loop: every rendezvous job run in this process."""
    return [job.apply(run_rendezvous_fast) for job in jobs]


def in_process_gathering(jobs):
    return [job.apply(run_gathering) for job in jobs]


def assert_no_leaked_workers():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestHealthyPaths:
    def test_pooled_matches_in_process(self):
        supervised = run_batch_supervised(healthy_jobs(), processes=2)
        assert as_verdicts(supervised) == as_verdicts(in_process(healthy_jobs()))
        assert_no_leaked_workers()

    def test_supervised_outcomes_carry_no_trace_or_agents(self):
        for out in run_batch_supervised(healthy_jobs(), processes=2):
            assert out.trace is None
            assert out.agents == ()

    def test_serial_path_matches(self):
        supervised = run_batch_supervised(healthy_jobs(), processes=1)
        assert as_verdicts(supervised) == as_verdicts(in_process(healthy_jobs()))

    def test_empty_batch(self):
        assert run_batch_supervised([]) == []
        assert run_gathering_batch_supervised([]) == []

    def test_gathering_pooled_and_serial_match_in_process(self):
        expected = as_gathering_verdicts(in_process_gathering(gathering_jobs()))
        for processes in (1, 2):
            supervised = run_gathering_batch_supervised(
                gathering_jobs(), processes=processes
            )
            assert as_gathering_verdicts(supervised) == expected
        assert_no_leaked_workers()

    def test_gathering_pooled_matches_reference_loop(self):
        outcomes = run_gathering_batch_supervised(gathering_jobs(), processes=2)
        for job, out in zip(gathering_jobs(), outcomes):
            ref = run_gathering_reference(
                job.tree, job.prototype, list(job.starts),
                delays=list(job.delays) if job.delays else None,
                max_rounds=job.max_rounds, certify=True,
            )
            assert (out.gathered, out.gathering_round, out.certified_never) == (
                ref.gathered, ref.gathering_round, ref.certified_never,
            )


class TestPicklability:
    @pytest.mark.parametrize("timeout", [None, 30.0])
    def test_unpicklable_jobs_fall_back_to_serial(self, timeout):
        jobs = [BatchJob(line(5), closure_agent(), 1, 3, max_rounds=50, certify=True)]
        # A timeout cannot preempt in-process work, but the batch must
        # still complete instead of failing on the pickle hop.
        (out,) = run_batch_supervised(jobs, processes=4, timeout=timeout)
        assert out.certified_never

    def test_unpicklable_later_job_runs_whole_batch_in_process(self):
        # The picklability probe covers every job, not just jobs[0]:
        # pickling a closure raises AttributeError/TypeError, which a
        # PicklingError-only catch around the pool would not see.
        jobs = [
            BatchJob(line(5), walker(), 0, 4, max_rounds=50, certify=True),
            BatchJob(line(5), closure_agent(), 1, 3, max_rounds=50, certify=True),
        ]
        first, second = run_batch_supervised(jobs, processes=4)
        assert first.met or first.certified_never  # decided, not crashed
        assert second.certified_never

    def test_gathering_unpicklable_later_job_runs_in_process(self):
        jobs = [
            GatheringJob(spider([2, 2, 2]), walker(), (1, 3, 5),
                         max_rounds=200, certify=True),
            GatheringJob(line(5), closure_agent(), (1, 3),
                         max_rounds=200, certify=True),
        ]
        outcomes = run_gathering_batch_supervised(jobs, processes=4)
        assert len(outcomes) == 2
        assert all(o.gathered or o.certified_never for o in outcomes)

    def test_line_automaton_pickle_roundtrip(self):
        agent = LineAutomaton([(0, 1), (1, 0)], [0, 1], initial_state=1)
        agent.step(0, 2)  # advance the runtime state past the initial one
        copy = pickle.loads(pickle.dumps(agent))
        assert copy.num_states == agent.num_states
        assert copy.output == agent.output
        assert copy.initial_state == agent.initial_state
        assert copy.pi_prime() == agent.pi_prime()
        assert copy.state == agent.state  # mid-run state survives the pool hop


class TestFailureKinds:
    def test_timeout_yields_structured_failure(self):
        jobs = [hang_job()] + healthy_jobs()[:2]
        results = run_batch_supervised(
            jobs, processes=2, timeout=1.0, retries=0
        )
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert failure.index == 0
        assert failure.attempts == 1
        # The hung slot must not poison its neighbors.
        assert as_verdicts(results[1:]) == as_verdicts(in_process(healthy_jobs()[:2]))
        assert_no_leaked_workers()

    def test_retries_are_counted_and_bounded(self):
        results = run_batch_supervised(
            [hang_job()], processes=1, timeout=0.4, retries=2, backoff=0.05
        )
        (failure,) = results
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 3  # 1 initial + 2 retries

    def test_killed_worker_is_detected_and_respawned(self):
        jobs = [
            healthy_jobs()[0],
            BatchJob(line(5), KillerAgent(), 0, 4, max_rounds=50),
            healthy_jobs()[1],
        ]
        results = run_batch_supervised(jobs, processes=2, retries=1)
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2
        # Neighbors completed even though a pool worker died mid-batch.
        assert not isinstance(results[0], JobFailure)
        assert not isinstance(results[2], JobFailure)
        assert_no_leaked_workers()

    def test_in_job_errors_are_deterministic_and_never_retried(self):
        bad = BatchJob(line(5), walker(), 0, 99, max_rounds=50)  # start off-tree
        results = run_batch_supervised(
            [bad] + healthy_jobs()[:1], processes=2, retries=3
        )
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.attempts == 1  # retrying would reproduce it
        assert "SimulationError" in failure.message
        assert not isinstance(results[1], JobFailure)

    def test_serial_path_reports_errors_too(self):
        bad = BatchJob(line(5), walker(), 0, 99, max_rounds=50)
        results = run_batch_supervised([bad], processes=1)
        (failure,) = results
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"


class TestCheckpointing:
    def test_checkpoint_records_and_resumes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = healthy_jobs()
        first = run_batch_supervised(jobs[:2], processes=2, checkpoint=path)
        assert len(path.read_text().splitlines()) == 2

        full = run_batch_supervised(jobs, processes=2, checkpoint=path)
        # The two finished cells were replayed, the rest computed fresh.
        assert len(path.read_text().splitlines()) == len(jobs)
        assert as_verdicts(full) == as_verdicts(in_process(jobs))
        assert as_verdicts(full[:2]) == as_verdicts(first)

    def test_checkpoint_resume_skips_failures(self, tmp_path):
        # Failures are not checkpointed: a re-run must re-attempt them.
        path = tmp_path / "sweep.jsonl"
        jobs = [hang_job()] + healthy_jobs()[:1]
        run_batch_supervised(
            jobs, processes=2, timeout=0.6, retries=0, checkpoint=path
        )
        assert len(path.read_text().splitlines()) == 1  # only the healthy cell
        ckpt = SweepCheckpoint(path)
        assert job_fingerprint(0, jobs[0]) not in ckpt.load()
        assert job_fingerprint(1, jobs[1]) in ckpt.load()

    def test_checkpoint_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        jobs = healthy_jobs()[:2]
        run_batch_supervised(jobs, processes=1, checkpoint=path)
        with path.open("a") as fh:
            fh.write('{"fingerprint": "dead", "outco')  # torn mid-write
        loaded = SweepCheckpoint(path).load()
        assert len(loaded) == 2
        # And a resume over the damaged file still completes cleanly.
        results = run_batch_supervised(jobs, processes=1, checkpoint=path)
        assert as_verdicts(results) == as_verdicts(in_process(jobs))

    def test_fingerprints_are_stable_and_positional(self):
        jobs = healthy_jobs()
        assert job_fingerprint(0, jobs[0]) == job_fingerprint(0, jobs[0])
        assert job_fingerprint(0, jobs[0]) != job_fingerprint(1, jobs[0])
        assert job_fingerprint(0, jobs[0]) != job_fingerprint(0, jobs[1])


class TestOutcomeCodec:
    def test_rendezvous_roundtrip(self):
        out = healthy_jobs()[0].apply(run_rendezvous_fast)
        back = decode_outcome(encode_outcome(out))
        assert (back.met, back.meeting_round, back.meeting_node,
                back.rounds_executed, back.certified_never, back.crossings,
                back.crashed) == (
            out.met, out.meeting_round, out.meeting_node,
            out.rounds_executed, out.certified_never, out.crossings,
            out.crashed,
        )
        assert back.trace is None and back.agents == ()

    def test_gathering_roundtrip(self):
        job = GatheringJob(spider([2, 2, 2]), walker(), (1, 3, 5),
                           max_rounds=400, certify=True)
        out = job.apply(run_gathering)
        back = decode_outcome(encode_outcome(out))
        assert (back.gathered, back.gathering_round, back.gathering_node,
                back.positions, back.largest_cluster, back.certified_never,
                back.crashed) == (
            out.gathered, out.gathering_round, out.gathering_node,
            out.positions, out.largest_cluster, out.certified_never,
            out.crashed,
        )

    def test_codec_rejects_foreign_payloads(self):
        with pytest.raises(TypeError):
            encode_outcome(object())
        with pytest.raises(ValueError):
            decode_outcome({"type": "martian"})


class TestBatchedBackendIntegration:
    def test_supervised_backend_surfaces_failures_as_scenario_errors(self):
        backend = BatchedBackend(processes=2, timeout=0.8, retries=0)
        with pytest.raises(ScenarioError) as exc:
            backend.run_many([hang_job()] + healthy_jobs()[:1])
        assert "timeout" in str(exc.value)
        assert_no_leaked_workers()

    def test_backend_grids_match_in_process(self):
        expected = as_verdicts(in_process(healthy_jobs()))
        for backend in (BatchedBackend(processes=2, timeout=60.0),
                        BatchedBackend(processes=2)):
            assert as_verdicts(backend.run_many(healthy_jobs())) == expected
        assert as_gathering_verdicts(
            BatchedBackend(processes=2).run_gathering_many(gathering_jobs())
        ) == as_gathering_verdicts(in_process_gathering(gathering_jobs()))
        assert_no_leaked_workers()

    def test_backend_without_timeout_names_failed_jobs(self):
        bad = BatchJob(line(5), walker(), 0, 99, max_rounds=50)  # start off-tree
        with pytest.raises(ScenarioError) as exc:
            BatchedBackend(processes=2).run_many(healthy_jobs()[:1] + [bad])
        assert "1 batch job(s) failed: job 1: error after 1 attempt(s)" in str(exc.value)
        assert "SimulationError" in str(exc.value)
        assert_no_leaked_workers()

    def test_backend_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "backend.jsonl"
        backend = BatchedBackend(processes=2, checkpoint=path)
        first = backend.run_many(healthy_jobs())
        again = backend.run_many(healthy_jobs())
        assert as_verdicts(first) == as_verdicts(again)
        assert len(path.read_text().splitlines()) == len(healthy_jobs())


class _ScriptedConn:
    """Stand-in for the worker's pipe end: scripted recv, captured send."""

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []

    def recv(self):
        if not self.messages:
            raise EOFError
        msg = self.messages.pop(0)
        if isinstance(msg, BaseException):
            raise msg
        return msg

    def send(self, payload):
        self.sent.append(payload)


class _RaisingJob:
    """Duck-typed job whose execution raises a scripted exception."""

    seed = None

    def __init__(self, exc):
        self.exc = exc

    def apply(self, run):
        raise self.exc


class TestWorkerLoopSignalDiscipline:
    """The worker loop absorbs job errors structurally but must never
    absorb KeyboardInterrupt/SystemExit (narrowed in the invariant-
    analyzer PR: the shutdown catch is EOFError/OSError only)."""

    def test_keyboard_interrupt_on_recv_propagates(self):
        from repro.sim.supervise import _worker_loop

        with pytest.raises(KeyboardInterrupt):
            _worker_loop(_ScriptedConn([KeyboardInterrupt()]), "rendezvous")

    def test_keyboard_interrupt_inside_a_job_propagates(self):
        from repro.sim.supervise import _worker_loop

        conn = _ScriptedConn([(0, 1, _RaisingJob(KeyboardInterrupt()))])
        with pytest.raises(KeyboardInterrupt):
            _worker_loop(conn, "rendezvous")
        assert conn.sent == []  # never classified as a retryable error

    def test_system_exit_inside_a_job_propagates(self):
        from repro.sim.supervise import _worker_loop

        conn = _ScriptedConn([(0, 1, _RaisingJob(SystemExit(3)))])
        with pytest.raises(SystemExit):
            _worker_loop(conn, "rendezvous")
        assert conn.sent == []

    def test_eof_means_clean_shutdown(self):
        from repro.sim.supervise import _worker_loop

        _worker_loop(_ScriptedConn([]), "rendezvous")  # returns, no raise

    def test_job_exceptions_become_error_payloads(self):
        from repro.sim.supervise import _worker_loop

        conn = _ScriptedConn([(5, 2, _RaisingJob(ValueError("boom"))), None])
        _worker_loop(conn, "rendezvous")
        assert conn.sent == [("error", 5, 2, "ValueError: boom", None)]

    def test_collecting_worker_ships_telemetry_batch_on_error(self):
        from repro.sim.supervise import _worker_loop

        conn = _ScriptedConn([(5, 2, _RaisingJob(ValueError("boom"))), None])
        _worker_loop(conn, "rendezvous", collect=True)
        ((tag, index, attempt, message, batch),) = conn.sent
        assert (tag, index, attempt, message) == ("error", 5, 2, "ValueError: boom")
        assert isinstance(batch, dict)  # partial batch still ships


class TestSupervisedTelemetry:
    def test_failures_carry_durations(self):
        results = run_batch_supervised(
            [hang_job()], processes=1, timeout=0.4, retries=1, backoff=0.05
        )
        (failure,) = results
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 2
        assert len(failure.attempt_seconds) == 2
        assert all(d > 0 for d in failure.attempt_seconds)
        assert failure.duration_seconds == pytest.approx(
            sum(failure.attempt_seconds)
        )

    def test_serial_error_failures_carry_durations(self):
        bad = BatchJob(line(5), walker(), 0, 99, max_rounds=50)
        (failure,) = run_batch_supervised([bad], processes=1)
        assert isinstance(failure, JobFailure)
        assert failure.attempt_seconds != ()
        assert failure.duration_seconds >= 0

    def test_pooled_run_merges_worker_telemetry(self):
        from repro.telemetry import Telemetry, use

        telem = Telemetry()
        with use(telem):
            run_batch_supervised(healthy_jobs(), processes=2)
        snap = telem.snapshot()
        n = len(healthy_jobs())
        assert snap["counters"]["supervise.job.started"] == n
        assert snap["counters"]["supervise.job.finished"] == n
        assert snap["spans"]["supervise/job"]["count"] == n
        assert snap["spans"]["supervise/job"]["seconds"] > 0
        assert_no_leaked_workers()

    def test_serial_run_counts_lifecycle(self):
        from repro.telemetry import Telemetry, use

        telem = Telemetry()
        with use(telem):
            run_batch_supervised(healthy_jobs(), processes=1)
        snap = telem.snapshot()
        n = len(healthy_jobs())
        assert snap["counters"]["supervise.job.started"] == n
        assert snap["counters"]["supervise.job.finished"] == n

    def test_no_telemetry_means_bare_protocol(self):
        # With the default NullTelemetry, workers are spawned with
        # collect=False and replies carry None in the batch slot —
        # verified indirectly: results identical, nothing raised.
        supervised = run_batch_supervised(healthy_jobs(), processes=2)
        assert as_verdicts(supervised) == as_verdicts(in_process(healthy_jobs()))


class _DeadProc:
    """Stand-in for a worker process that has already exited."""

    def is_alive(self):
        return False

    def terminate(self):
        pass

    def join(self):
        pass


class _DeadWorkerConn(_ScriptedConn):
    """Supervisor end of a pipe whose worker replied, then died: each
    dispatched job queues the scripted reply for the drain branch."""

    def __init__(self, tag, payload):
        super().__init__([])
        self.reply = (tag, payload)

    def send(self, msg):
        super().send(msg)
        if msg is not None:
            index, attempt, _job = msg
            tag, payload = self.reply
            self.messages.append((tag, index, attempt, payload, None))

    def poll(self):
        return bool(self.messages)

    def close(self):
        pass


class TestDeadWorkerReplies:
    """A reply that raced ahead of its worker's death notice is settled
    exactly like one read from a live worker."""

    @staticmethod
    def run_dead_worker(monkeypatch, tag, payload):
        from multiprocessing import connection

        from repro.sim import supervise

        monkeypatch.setattr(
            supervise, "_spawn",
            lambda *args: supervise._Worker(_DeadProc(), _DeadWorkerConn(tag, payload)),
        )
        # No pipe ever reads as ready: the death notice wins the race.
        monkeypatch.setattr(connection, "wait", lambda conns, timeout=None: [])
        # timeout= forces the pooled path for a single job
        return run_batch_supervised(
            healthy_jobs()[:1], processes=1, timeout=30.0, retries=3
        )

    def test_error_reply_from_dead_worker_keeps_its_message(self, monkeypatch):
        (failure,) = self.run_dead_worker(monkeypatch, "error", "ValueError: boom")
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.message == "ValueError: boom"
        assert failure.attempts == 1  # deterministic: never retried

    def test_ok_reply_from_dead_worker_settles_the_outcome(self, monkeypatch):
        expected = healthy_jobs()[0].apply(run_rendezvous_fast)
        (out,) = self.run_dead_worker(monkeypatch, "ok", encode_outcome(expected))
        assert as_verdicts([out]) == as_verdicts([expected])


class TestAdversarialSearchPool:
    def test_parallel_matches_serial(self):
        t = edge_colored_line(6)
        serial = adversarial_search(t, walker(), delays=(0, 1), max_rounds=4000, certify=True)
        parallel = adversarial_search(
            t, walker(), delays=(0, 1), max_rounds=4000, certify=True, processes=2
        )
        assert serial.instances_run == parallel.instances_run
        assert serial.successes == parallel.successes
        assert serial.undecided == parallel.undecided
        assert len(serial.failures) == len(parallel.failures)
        assert serial.max_meeting_round == parallel.max_meeting_round
        assert_no_leaked_workers()

    def test_failed_slots_raise_simulation_error(self):
        with pytest.raises(SimulationError) as exc:
            adversarial_search(
                line(5), walker(), pairs=[(0, 4), (0, 99)], labelings=[line(5)],
                max_rounds=50, processes=2,
            )
        assert "1 batch job(s) failed: job 1: error after 1 attempt(s)" in str(exc.value)
        assert_no_leaked_workers()


#: The scenarios whose adversary re-certification reaches the pool on
#: ``--backend batched``.
POOLED_SCENARIOS = ("thm31-sweep", "thm31-random", "thm42-sweep", "thm43")


class TestBatchedScenarioPins:
    @pytest.mark.parametrize("name", POOLED_SCENARIOS)
    def test_batched_rows_match_golden(self, name, monkeypatch):
        submitted = []
        pooled = backends.run_batch_supervised

        def counting(jobs, **kwargs):
            jobs = list(jobs)
            submitted.append(len(jobs))
            return pooled(jobs, **kwargs)

        monkeypatch.setattr(backends, "run_batch_supervised", counting)
        telem = Telemetry()
        result = Runner(processes=2).run(name, backend="batched", telemetry=telem)
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        assert result.rows == golden["rows"]
        counters = telem.snapshot()["counters"]
        assert sum(submitted) > 0
        assert counters["batch.probe.picklable"] >= 1  # the pool really ran
        assert counters["supervise.job.finished"] == sum(submitted)
        assert_no_leaked_workers()
