"""Supervised multiprocessing fan-out: the package's one process pool.

Every parallel sweep — ``BatchedBackend.run_many`` /
``run_gathering_many`` and ``adversarial_search(processes=N)`` — runs
its :class:`~repro.sim.batch.BatchJob` / :class:`~repro.sim.batch.
GatheringJob` descriptions here.  A plain ``Pool.map`` lets a single
pathological job take the whole batch with it: a hung worker blocks
``map`` forever, a killed worker (OOM, ``kill -9``) poisons the pool,
and a 40-minute grid that dies at job 39/40 restarts from zero.  This
module runs the jobs under an explicit supervisor instead; with
``timeout=None`` and no ``checkpoint`` it is the plain fan-out plus the
safety nets below:

- **per-job wall-clock timeouts** — a worker that exceeds ``timeout``
  seconds on one job is killed and replaced; the job is retried or
  reported, the rest of the grid is unaffected;
- **dead-worker detection** — a worker that disappears mid-job (signal,
  OOM kill, crash of the interpreter) is detected via its pipe's EOF /
  liveness and respawned;
- **bounded retry with exponential backoff** — ``retries`` extra
  attempts per job, the n-th retry delayed ``backoff * 2**(n-1)``
  seconds.  Only *infrastructure* failures (timeout, worker death) are
  retried; an exception raised inside the job is deterministic and
  fails immediately;
- **structured failures** — a job that exhausts its attempts yields a
  :class:`JobFailure` in its slot instead of crashing the batch, so one
  bad cell cannot erase an otherwise complete sweep;
- **checkpointed sweep state** — with ``checkpoint=`` every finished
  outcome is appended to a JSONL file keyed by a content fingerprint of
  ``(index, job)``; re-running the same grid after a kill replays the
  finished jobs from disk and computes only the rest.

Results come back in job order as ``Outcome | JobFailure``.  Supervised
outcomes cross a process boundary as plain dicts and therefore carry
**no trace and no agent objects** (``trace=None``, ``agents=()``) — use
the in-process engines when you need those.

Jobs that cannot be pickled (or ``processes <= 1``) run serially under
the same contract minus preemption: exceptions still become
:class:`JobFailure` rows and checkpoints still work, but a hung job
cannot be interrupted from within its own process.  The picklability
probe covers *every* job, not just the first: batches may be
heterogeneous, and pickling a closure-holding agent raises
``AttributeError``/``TypeError`` rather than ``PicklingError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import random
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from ..telemetry import (
    Telemetry,
    current as _telemetry,
    use as _use_telemetry,
)
from .batch import BatchJob, GatheringJob, _run_gathering_job, _run_job
from .engine import RendezvousOutcome
from .multi import GatheringOutcome

__all__ = [
    "JobFailure",
    "SweepCheckpoint",
    "job_fingerprint",
    "encode_outcome",
    "decode_outcome",
    "run_batch_supervised",
    "run_gathering_batch_supervised",
]

# How often the supervisor re-checks deadlines while waiting on worker
# pipes.  Bounds timeout overshoot; low enough to be invisible next to
# any real job, high enough that an idle supervisor costs nothing.
_POLL_INTERVAL = 0.05


class JobFailure(NamedTuple):
    """A job slot that produced no outcome.

    ``kind`` is one of ``"timeout"`` (the job exceeded its wall-clock
    budget on every attempt), ``"crash"`` (the worker process died
    mid-job on every attempt), or ``"error"`` (the job itself raised —
    deterministic, never retried).  ``attempts`` counts executions
    performed, including the failing one.

    ``duration_seconds`` is the total wall-clock spent across all
    attempts and ``attempt_seconds`` the per-attempt breakdown (both
    monotonic deltas — wall timestamps never enter result rows, per the
    determinism contract), so checkpoint-resumed sweeps can report time
    lost to retries.  They default to zero/empty so positional
    construction from older call sites stays valid.
    """

    index: int
    kind: str
    message: str
    attempts: int
    duration_seconds: float = 0.0
    attempt_seconds: tuple[float, ...] = ()

    @staticmethod
    def summarize(failures: Sequence["JobFailure"]) -> str:
        """One error message naming every failed slot of a batch."""
        detail = "; ".join(
            f"job {f.index}: {f.kind} after {f.attempts} attempt(s) ({f.message})"
            for f in failures
        )
        return f"{len(failures)} batch job(s) failed: {detail}"


def _job_failed(
    telem: Telemetry,
    index: int,
    kind: str,
    message: str,
    attempts: int,
    attempt_seconds: Sequence[float],
) -> JobFailure:
    """The slot's :class:`JobFailure`, reported to telemetry."""
    spent = tuple(round(d, 6) for d in attempt_seconds)
    failure = JobFailure(
        index,
        kind,
        message,
        attempts,
        duration_seconds=round(sum(spent), 6),
        attempt_seconds=spent,
    )
    if telem.enabled:
        telem.count("supervise.job.failed")
        telem.event(
            "supervise.job_failed",
            index=index,
            kind=kind,
            attempts=attempts,
            duration_seconds=failure.duration_seconds,
        )
    return failure


def _picklable(jobs: Sequence) -> bool:
    """Whether the whole batch can cross a process boundary."""
    telem = _telemetry()
    try:
        pickle.dumps(list(jobs))
        if telem.enabled:
            telem.count("batch.probe.picklable")
        return True
    # repro-lint: disable=RPR002 -- pickling probe: "cannot pickle" is this function's False answer, whatever exception type the payload's reduce hooks raise; the serial fallback is the surfacing
    except Exception:
        if telem.enabled:
            telem.count("batch.probe.unpicklable")
            telem.event("batch.probe.unpicklable", jobs=len(jobs))
        return False


def job_fingerprint(index: int, job: Union[BatchJob, GatheringJob]) -> str:
    """Content fingerprint of one grid cell, stable across runs.

    Pickle gives a canonical byte encoding of the full job (tree,
    prototype, parameters); unpicklable jobs fall back to ``repr``,
    which is stable for the record fields that matter.  The index is
    mixed in so identical jobs at different grid positions checkpoint
    independently (results are positional).
    """
    try:
        blob = pickle.dumps((index, job), protocol=4)
    # repro-lint: disable=RPR002 -- pickling probe: any unpicklable job falls back to the repr fingerprint by design; nothing is lost but cache affinity
    except Exception:
        blob = repr((index, job)).encode()
    return hashlib.sha256(blob).hexdigest()


def encode_outcome(
    out: Union[RendezvousOutcome, GatheringOutcome],
) -> dict:
    """JSON-safe dict form of an outcome (drops trace/agents)."""
    if isinstance(out, RendezvousOutcome):
        return {
            "type": "rendezvous",
            "met": out.met,
            "meeting_round": out.meeting_round,
            "meeting_node": out.meeting_node,
            "rounds_executed": out.rounds_executed,
            "certified_never": out.certified_never,
            "crossings": out.crossings,
            "crashed": list(out.crashed),
        }
    if isinstance(out, GatheringOutcome):
        return {
            "type": "gathering",
            "gathered": out.gathered,
            "gathering_round": out.gathering_round,
            "gathering_node": out.gathering_node,
            "rounds_executed": out.rounds_executed,
            "positions": list(out.positions),
            "largest_cluster": out.largest_cluster,
            "certified_never": out.certified_never,
            "crashed": list(out.crashed),
        }
    raise TypeError(f"not an outcome: {type(out).__name__}")


def decode_outcome(payload: dict) -> Union[RendezvousOutcome, GatheringOutcome]:
    """Inverse of :func:`encode_outcome` (``trace=None``, ``agents=()``)."""
    if payload["type"] == "rendezvous":
        return RendezvousOutcome(
            payload["met"],
            payload["meeting_round"],
            payload["meeting_node"],
            payload["rounds_executed"],
            payload["certified_never"],
            payload["crossings"],
            None,
            (),
            tuple(payload.get("crashed", ())),
        )
    if payload["type"] == "gathering":
        return GatheringOutcome(
            payload["gathered"],
            payload["gathering_round"],
            payload["gathering_node"],
            payload["rounds_executed"],
            tuple(payload["positions"]),
            payload["largest_cluster"],
            payload["certified_never"],
            tuple(payload.get("crashed", ())),
        )
    raise ValueError(f"unknown outcome type: {payload.get('type')!r}")


class SweepCheckpoint:
    """Append-only JSONL record of finished grid cells.

    One line per finished job: ``{"fingerprint": ..., "outcome": ...}``.
    :meth:`load` tolerates a torn final line (the process died
    mid-write) by skipping anything that does not parse — losing the
    last record costs one recomputation, never the whole file.
    Failures are deliberately *not* recorded: a retried run should
    re-attempt them.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """``fingerprint -> encoded outcome`` for every intact record."""
        finished: dict[str, dict] = {}
        if not self.path.exists():
            return finished
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                finished[rec["fingerprint"]] = rec["outcome"]
            except (ValueError, KeyError, TypeError):
                continue  # torn tail or foreign line — recompute that cell
        return finished

    def append(self, fingerprint: str, outcome: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps({"fingerprint": fingerprint, "outcome": outcome}) + "\n")
            fh.flush()


def run_batch_supervised(
    jobs: Sequence[BatchJob],
    *,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Union[SweepCheckpoint, str, os.PathLike, None] = None,
) -> list[Union[RendezvousOutcome, JobFailure]]:
    """Run every rendezvous job under supervision; job order kept.

    ``timeout`` is the per-job wall-clock budget in seconds (``None``
    disables preemption); ``retries`` bounds *extra* attempts after an
    infrastructure failure; ``backoff`` scales the exponential retry
    delay; ``checkpoint`` (a path or :class:`SweepCheckpoint`) resumes
    finished jobs from a previous run of the same grid.
    """
    return _supervise(jobs, "rendezvous", processes, timeout, retries, backoff, checkpoint)


def run_gathering_batch_supervised(
    jobs: Sequence[GatheringJob],
    *,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.1,
    checkpoint: Union[SweepCheckpoint, str, os.PathLike, None] = None,
) -> list[Union[GatheringOutcome, JobFailure]]:
    """Run every gathering job under supervision; job order kept."""
    return _supervise(jobs, "gathering", processes, timeout, retries, backoff, checkpoint)


def _worker_loop(conn, kind: str, collect: bool = False) -> None:  # pragma: no cover - child process
    """One pool worker: recv ``(index, attempt, job)``, run, send back.

    Replies are 5-tuples ``(tag, index, attempt, payload, telemetry)``.
    Results are sent as *encoded* dicts (see :func:`encode_outcome`) so
    the reply never drags agent objects or traces through the pipe.  A
    job exception is reported, not raised — the worker stays healthy for
    the next assignment.  ``None`` (or a closed pipe) means shut down.

    With ``collect=True`` each job runs under a fresh worker-local
    :class:`~repro.telemetry.Telemetry` and its
    :meth:`~repro.telemetry.Telemetry.export_batch` rides back in the
    reply's fifth slot (``None`` otherwise — and on the error path the
    partial batch still ships, so cache/fallback counters accrued before
    the exception are not lost) for the supervisor to merge.

    ``KeyboardInterrupt`` / ``SystemExit`` are *never* absorbed into an
    error payload: a ^C must kill the worker (non-zero exit, visible to
    the supervisor as a death, handled by *its* own interrupt), not
    masquerade as a retryable :class:`JobFailure`.
    """
    run_one = _run_job if kind == "rendezvous" else _run_gathering_job
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            index, attempt, job = msg
            telem = Telemetry() if collect else None
            try:
                if telem is not None:
                    with _use_telemetry(telem):
                        encoded = encode_outcome(run_one(job))
                else:
                    encoded = encode_outcome(run_one(job))
                batch = telem.export_batch() if telem is not None else None
                payload = ("ok", index, attempt, encoded, batch)
            # repro-lint: disable=RPR002 -- deliberate job-error capture: the failure is surfaced structurally as an ("error", ...) payload the supervisor turns into a JobFailure row; KeyboardInterrupt/SystemExit still propagate past Exception
            except Exception as exc:
                batch = telem.export_batch() if telem is not None else None
                payload = ("error", index, attempt, f"{type(exc).__name__}: {exc}", batch)
            conn.send(payload)
    except (EOFError, OSError):
        return  # supervisor hung up: clean shutdown


class _Worker:
    """Supervisor-side handle: process + duplex pipe + current assignment."""

    __slots__ = ("proc", "conn", "busy")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        # (index, attempt, deadline, started_at) — started_at feeds the
        # per-attempt durations reported on JobFailure rows.
        self.busy: Optional[tuple[int, int, float, float]] = None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.terminate()
        self.proc.join()


def _spawn(ctx, kind: str, collect: bool = False) -> _Worker:
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_worker_loop, args=(child_conn, kind, collect), daemon=True)
    proc.start()
    # Close our copy of the child end: the parent's recv must see EOF the
    # moment the worker dies, not hang on a half-open pipe.
    child_conn.close()
    return _Worker(proc, parent_conn)


def _supervise(
    jobs: Sequence,
    kind: str,
    processes: Optional[int],
    timeout: Optional[float],
    retries: int,
    backoff: float,
    checkpoint,
) -> list:
    jobs = list(jobs)
    if not jobs:
        return []
    if retries < 0:
        retries = 0
    ckpt: Optional[SweepCheckpoint] = None
    if checkpoint is not None:
        ckpt = checkpoint if isinstance(checkpoint, SweepCheckpoint) else SweepCheckpoint(checkpoint)

    results: list = [None] * len(jobs)
    fingerprints = [job_fingerprint(i, job) for i, job in enumerate(jobs)]
    if ckpt is not None:
        finished = ckpt.load()
        for i, fp in enumerate(fingerprints):
            payload = finished.get(fp)
            if payload is not None:
                try:
                    results[i] = decode_outcome(payload)
                except (ValueError, KeyError, TypeError):
                    results[i] = None  # corrupt record — recompute
    pending = [i for i in range(len(jobs)) if results[i] is None]
    if not pending:
        return results

    if processes is None:
        processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(pending)))
    # A requested timeout forces the pooled path even for one worker:
    # preemption needs a process boundary.  Serial is only for jobs that
    # cannot cross one, or single-process runs with nothing to preempt.
    if not _picklable([jobs[i] for i in pending]) or (
        processes <= 1 and timeout is None
    ):
        return _supervise_serial(jobs, pending, kind, results, fingerprints, ckpt)

    import multiprocessing
    from multiprocessing import connection as mpconn

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()

    telem = _telemetry()
    collect = telem.enabled

    # (ready_at, index, attempt): attempt is the number this execution
    # *will* be; backoff pushes ready_at into the future instead of
    # blocking the supervisor.
    queue: list[tuple[float, int, int]] = [(0.0, i, 1) for i in pending]
    remaining = len(pending)
    workers = [_spawn(ctx, kind, collect) for _ in range(processes)]
    # Per-index attempt durations (monotonic deltas), accumulated across
    # retries so a final JobFailure can report total time lost.
    durations: dict[int, list[float]] = {}

    def record_attempt(index: int, started_at: float) -> None:
        elapsed = time.monotonic() - started_at
        durations.setdefault(index, []).append(elapsed)
        if collect:
            telem.add_span("supervise/job", elapsed)

    def settle(index: int, value) -> None:
        nonlocal remaining
        results[index] = value
        remaining -= 1

    def retry_or_fail(index: int, attempt: int, fail_kind: str, message: str) -> None:
        if collect:
            telem.count(f"supervise.job.{fail_kind}")
        if attempt <= retries:
            if collect:
                telem.count("supervise.job.retry")
            ready_at = time.monotonic() + backoff * (2 ** (attempt - 1))
            queue.append((ready_at, index, attempt + 1))
        else:
            settle(index, _job_failed(
                telem, index, fail_kind, message, attempt, durations.get(index, ()),
            ))

    def on_reply(worker: _Worker, reply: tuple) -> None:
        """Settle the worker's job from its ``"ok"`` or ``"error"`` reply."""
        tag, index, attempt, payload, batch = reply
        if worker.busy is None or (index, attempt) != worker.busy[:2]:
            return  # stale reply from a superseded attempt
        started_at = worker.busy[3]
        worker.busy = None
        record_attempt(index, started_at)
        if collect and batch is not None:
            telem.merge(batch)
        if tag == "ok":
            if collect:
                telem.count("supervise.job.finished")
            settle(index, decode_outcome(payload))
            if ckpt is not None:
                ckpt.append(fingerprints[index], payload)
        else:
            # In-job exceptions are deterministic: retrying would
            # reproduce them, so fail the slot immediately.
            if collect:
                telem.count("supervise.job.error")
            settle(index, _job_failed(
                telem, index, "error", payload, attempt, durations[index],
            ))

    def reap(worker: _Worker, message: str) -> None:
        """A worker died or was preempted mid-job: account for the job,
        replace the worker if there is still work it could do."""
        assignment = worker.busy
        worker.kill()
        workers.remove(worker)
        if assignment is not None:
            index, attempt, _, started_at = assignment
            record_attempt(index, started_at)
            fail_kind = "timeout" if message.startswith("timed out") else "crash"
            retry_or_fail(index, attempt, fail_kind, message)
        if remaining > len(workers):
            if collect:
                telem.count("supervise.worker.respawn")
            workers.append(_spawn(ctx, kind, collect))

    try:
        while remaining:
            now = time.monotonic()
            # Assign ready queue items to idle workers.
            for worker in workers:
                if worker.busy is not None or not queue:
                    continue
                slot = next((j for j, item in enumerate(queue) if item[0] <= now), None)
                if slot is None:
                    break
                _, index, attempt = queue.pop(slot)
                try:
                    worker.conn.send((index, attempt, jobs[index]))
                except (BrokenPipeError, OSError):
                    queue.append((now, index, attempt))
                    worker.busy = None
                    reap(worker, "worker pipe broke on dispatch")
                    break
                deadline = now + timeout if timeout is not None else math.inf
                worker.busy = (index, attempt, deadline, time.monotonic())
                if collect:
                    telem.count("supervise.job.started")

            busy_conns = {w.conn: w for w in workers if w.busy is not None}
            if busy_conns:
                ready = mpconn.wait(list(busy_conns), timeout=_POLL_INTERVAL)
            else:
                ready = []
                if queue:  # everything is backing off; nap until the earliest retry
                    nap = min(item[0] for item in queue) - time.monotonic()
                    if nap > 0:
                        time.sleep(min(nap, _POLL_INTERVAL))

            for conn in ready:
                worker = busy_conns[conn]
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    reap(worker, "worker process died mid-job")
                    continue
                on_reply(worker, reply)

            # Deadline and liveness sweep (copy: reap mutates workers).
            now = time.monotonic()
            for worker in list(workers):
                if worker.busy is None:
                    continue
                deadline = worker.busy[2]
                if not worker.proc.is_alive():
                    # Drain a reply that raced ahead of the death notice.
                    try:
                        if worker.conn.poll():
                            on_reply(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        pass
                    reap(worker, "worker process died mid-job")
                elif now >= deadline:
                    reap(worker, f"timed out after {timeout}s")
    finally:
        # Supervised batches must never leak workers — not on success,
        # not on an exception, not on ^C mid-sweep.
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.kill()
    return results


def _supervise_serial(
    jobs: list,
    pending: list[int],
    kind: str,
    results: list,
    fingerprints: list[str],
    ckpt: Optional[SweepCheckpoint],
) -> list:
    """In-process supervised execution: same failure/checkpoint contract,
    no preemption (a hung job cannot be timed out from inside its own
    process).  Outcomes round-trip through the codec so serial and
    pooled runs return identical objects (no trace/agents)."""
    run_one = _run_job if kind == "rendezvous" else _run_gathering_job
    telem = _telemetry()
    collect = telem.enabled
    seeded = any(jobs[i].seed is not None for i in pending)
    state = random.getstate() if seeded else None
    try:
        for i in pending:
            started_at = time.monotonic()
            if collect:
                telem.count("supervise.job.started")
            try:
                payload = encode_outcome(run_one(jobs[i]))
            except KeyboardInterrupt:
                raise
            # repro-lint: disable=RPR002 -- deliberate job-error capture: the failure is surfaced structurally as a JobFailure row (same contract as the pooled path); KeyboardInterrupt re-raised above, SystemExit propagates past Exception
            except Exception as exc:
                elapsed = time.monotonic() - started_at
                if collect:
                    telem.add_span("supervise/job", elapsed)
                    telem.count("supervise.job.error")
                results[i] = _job_failed(
                    telem, i, "error", f"{type(exc).__name__}: {exc}", 1, (elapsed,),
                )
                continue
            if collect:
                telem.add_span("supervise/job", time.monotonic() - started_at)
                telem.count("supervise.job.finished")
            results[i] = decode_outcome(payload)
            if ckpt is not None:
                ckpt.append(fingerprints[i], payload)
    finally:
        if state is not None:
            random.setstate(state)
    return results
