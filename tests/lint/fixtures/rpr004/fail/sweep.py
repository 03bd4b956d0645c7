"""RPR004 failing fixture: unpicklable payloads into the fan-out."""

from repro.sim.batch import BatchJob
from repro.sim.supervise import run_batch_supervised


def sweep(tree, starts):
    def local_agent(obs):
        return obs

    jobs = [
        # BUG under RPR004: lambda prototype cannot cross the pool boundary
        BatchJob(tree, lambda obs: 0, s, s + 1)
        for s in starts
    ]
    # BUG under RPR004: locally-defined function into a batch entry point
    jobs.append(BatchJob(tree, local_agent, 0, 1))
    return run_batch_supervised(jobs)
