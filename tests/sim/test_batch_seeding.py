"""Deterministic-seeding audit (satellite): one scenario-level seed
threads through batch workers so multiprocess sweeps are reproducible."""

import random

from repro.agents.observations import AgentBase
from repro.sim import BatchJob, adversarial_search, derive_seed
from repro.sim.batch import _run_job
from repro.trees import edge_colored_line, line


class CoinFlipWalker(AgentBase):
    """Consults the *global* random module each step — the worst case the
    seeding contract must tame."""

    def __init__(self):
        self.state = 0

    def clone(self):
        return CoinFlipWalker()

    def start(self, degree: int) -> int:
        return 0

    def step(self, in_port: int, degree: int) -> int:
        return random.randrange(degree)


def outcome_key(out):
    return (out.met, out.meeting_round, out.rounds_executed)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, 1) == derive_seed(7, 1)
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(7, 1) != derive_seed(8, 1)
        assert derive_seed(0, "relabel", 3) == derive_seed(0, "relabel", 3)


class TestJobSeeding:
    def test_seeded_job_ignores_ambient_rng_state(self):
        job = BatchJob(line(6), CoinFlipWalker(), 0, 5,
                       max_rounds=500, seed=derive_seed(42, 0))
        random.seed(111)
        first = _run_job(job)
        random.seed(999)  # scramble: the job seed must win
        second = _run_job(job)
        assert outcome_key(first) == outcome_key(second)

    def test_unseeded_job_keeps_legacy_behavior(self):
        job = BatchJob(line(6), CoinFlipWalker(), 0, 5, max_rounds=500)
        random.seed(123)
        first = _run_job(job)
        random.seed(123)
        second = _run_job(job)
        assert outcome_key(first) == outcome_key(second)


class TestCallerRngIsolation:
    def test_adversarial_search_restores_global_state(self):
        random.seed(777)
        expected = random.Random(777).random()
        adversarial_search(edge_colored_line(6), CoinFlipWalker(),
                           delays=(0,), max_rounds=500, seed=1)
        assert random.random() == expected

    def test_run_batch_supervised_serial_restores_global_state(self):
        from repro.sim import run_batch_supervised

        jobs = [BatchJob(line(5), CoinFlipWalker(), 0, 4, max_rounds=200,
                         seed=derive_seed(3, i)) for i in range(3)]
        random.seed(42)
        expected = random.Random(42).random()
        run_batch_supervised(jobs, processes=1)
        assert random.random() == expected


class TestAdversarialSearchSeed:
    def test_serial_runs_reproduce_with_seed(self):
        tree = edge_colored_line(6)
        kwargs = dict(delays=(0, 1), max_rounds=2000, seed=5)
        a = adversarial_search(tree, CoinFlipWalker(), **kwargs)
        random.seed(31337)  # ambient state must not matter
        b = adversarial_search(tree, CoinFlipWalker(), **kwargs)
        assert a.instances_run == b.instances_run
        assert a.successes == b.successes
        assert a.max_meeting_round == b.max_meeting_round

    def test_parallel_matches_serial_with_seed(self):
        # CoinFlipWalker is defined in a test module the pool workers may
        # not import; a picklable automaton exercises the pool path, and
        # the per-job seeds ride along in the job tuples either way.
        from repro.agents import counting_walker

        tree = edge_colored_line(6)
        kwargs = dict(delays=(0, 2), max_rounds=4000, certify=True, seed=9)
        serial = adversarial_search(tree, counting_walker(1), **kwargs)
        parallel = adversarial_search(
            tree, counting_walker(1), processes=2, **kwargs
        )
        assert serial.instances_run == parallel.instances_run
        assert serial.successes == parallel.successes
        assert len(serial.failures) == len(parallel.failures)
