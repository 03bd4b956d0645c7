"""RPR004 passing fixture: module-level payloads pickle fine."""

from repro.sim.batch import BatchJob
from repro.sim.supervise import run_batch_supervised


def module_agent(obs):
    return obs


def sweep(tree, starts):
    jobs = [BatchJob(tree, module_agent, s, s + 1) for s in starts]
    return run_batch_supervised(jobs)
