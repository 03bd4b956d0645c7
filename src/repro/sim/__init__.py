"""Synchronous two-agent simulation: engine, traces, adversarial sweeps.

Interchangeable backends execute rendezvous runs:

- :func:`run_rendezvous` — the readable reference engine (the oracle);
- :func:`run_rendezvous_compiled` — the table-driven backend for
  finite-state agents, with :func:`solve_all_delays` deciding a whole
  delay sweep in one pass — and the vectorized frontier kernel
  (:mod:`repro.sim.kernel`) advancing every undecided adversary choice
  of a sweep or pair grid per numpy gather, dict solvers as oracle;
- :func:`run_rendezvous_traced` — the lowering backend for register
  programs (:mod:`repro.sim.traced`): shared per-(tree, start) solo
  traces replayed against each other, with :func:`sweep_delays_traced`
  / :func:`sweep_gathering_traced` rolling lassoed traces into the
  exact product solvers;
- :func:`run_rendezvous_fast` — dispatches automata to the compiled
  backend, everything else to the reference engine (grid workloads
  reach the traced backend through the scenario backends, where trace
  sharing pays).

Every runner accepts ``faults=`` — a :class:`FaultPlan` of crash-stop,
pause, and adversarial-relabel faults (:mod:`repro.sim.faults`).  Each
engine tier has one rendezvous loop and one gathering loop: a fault-free
run is the same loop with the empty plan, which the loop reads only at
the plan's event rounds, and reference/compiled parity covers both.  Long
grids run under the supervised pool (:mod:`repro.sim.supervise`):
per-job timeouts, retry with backoff, worker respawn, structured
:class:`JobFailure` rows, and checkpointed resume.
"""

from .adversary import (
    AdversaryReport,
    FailedInstance,
    adversarial_search,
    all_start_pairs,
    feasible_start_pairs,
    labelings_for,
)
from .batch import BatchJob, GatheringJob, derive_seed
from .certificates import (
    JointConfig,
    NonMeetingCertificate,
    SymmetryCertificate,
    build_certificate,
    symmetry_certificate,
)
from .compiled import (
    CompiledAgent,
    DelayVerdict,
    compile_agent,
    run_rendezvous_compiled,
    run_rendezvous_fast,
    solve_all_delays,
    supports_compilation,
)
from .engine import RendezvousOutcome, run_rendezvous
from .faults import (
    CrashFault,
    FaultPlan,
    PauseFault,
    RelabelFault,
    solve_all_delays_faulted,
    solve_gathering_faulted,
)
from .gathering_solver import GatheringVerdict, solve_gathering
from .kernel import (
    AgentTable,
    PairVerdict,
    agent_table,
    kernel_available,
    run_pairs_kernel,
    solve_all_delays_auto,
    solve_all_delays_kernel,
    solve_delay_grid_kernel,
    solve_gathering_auto,
    solve_gathering_kernel,
)
from .supervise import (
    JobFailure,
    SweepCheckpoint,
    job_fingerprint,
    run_batch_supervised,
    run_gathering_batch_supervised,
)
from .instrument import RegisterEvent, SoloRun, run_solo
from .traced import (
    SoloTrace,
    TraceCache,
    TracedAutomaton,
    ensure_lasso,
    run_gathering_traced,
    run_pairs_traced,
    run_rendezvous_traced,
    solo_trace,
    sweep_delays_traced,
    sweep_gathering_traced,
    traced_automaton,
)
from .multi import (
    GatheringOutcome,
    run_gathering,
    run_gathering_compiled,
    run_gathering_reference,
)
from .trace import RoundRecord, Trace

__all__ = [
    "run_rendezvous",
    "run_rendezvous_compiled",
    "run_rendezvous_fast",
    "solve_all_delays",
    "supports_compilation",
    "compile_agent",
    "CompiledAgent",
    "DelayVerdict",
    "BatchJob",
    "GatheringJob",
    "derive_seed",
    "FaultPlan",
    "CrashFault",
    "PauseFault",
    "RelabelFault",
    "solve_all_delays_faulted",
    "solve_gathering_faulted",
    "JobFailure",
    "SweepCheckpoint",
    "job_fingerprint",
    "run_batch_supervised",
    "run_gathering_batch_supervised",
    "RendezvousOutcome",
    "NonMeetingCertificate",
    "JointConfig",
    "build_certificate",
    "SymmetryCertificate",
    "symmetry_certificate",
    "GatheringOutcome",
    "GatheringVerdict",
    "run_gathering",
    "run_gathering_compiled",
    "run_gathering_reference",
    "solve_gathering",
    "run_solo",
    "SoloRun",
    "RegisterEvent",
    "SoloTrace",
    "TraceCache",
    "TracedAutomaton",
    "solo_trace",
    "ensure_lasso",
    "traced_automaton",
    "run_rendezvous_traced",
    "run_gathering_traced",
    "run_pairs_traced",
    "sweep_delays_traced",
    "sweep_gathering_traced",
    "AgentTable",
    "PairVerdict",
    "agent_table",
    "kernel_available",
    "run_pairs_kernel",
    "solve_all_delays_kernel",
    "solve_all_delays_auto",
    "solve_delay_grid_kernel",
    "solve_gathering_kernel",
    "solve_gathering_auto",
    "Trace",
    "RoundRecord",
    "adversarial_search",
    "AdversaryReport",
    "FailedInstance",
    "all_start_pairs",
    "feasible_start_pairs",
    "labelings_for",
]
