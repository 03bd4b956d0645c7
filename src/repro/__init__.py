"""repro — reproduction of Fraigniaud & Pelc (SPAA 2010):
"Delays induce an exponential memory gap for rendezvous in trees".

Public API layout
-----------------
- :mod:`repro.trees` — port-labeled anonymous trees, families, labelings,
  centers, contractions, symmetry/feasibility theory, basic walks;
- :mod:`repro.agents` — finite-state automata and bounded-register agent
  programs, with bit-accurate memory accounting;
- :mod:`repro.sim` — the synchronous two-agent simulator with delay control
  and non-meeting certification;
- :mod:`repro.core` — the paper's rendezvous algorithms: Explo/Explo-bis
  (Fact 2.1), Synchro, the prime-speed line protocol (Lemma 4.1), the full
  O(log ℓ + log log n) agent (Theorem 4.1) and the arbitrary-delay baseline;
- :mod:`repro.lowerbounds` — the three constructive adversaries
  (Theorems 3.1, 4.2, 4.3);
- :mod:`repro.analysis` — feasibility classification and the
  exponential-gap experiment drivers;
- :mod:`repro.scenarios` — the declarative scenario subsystem: named
  specs, pluggable simulation backends, structured JSON results.

Quick start
-----------
>>> from repro import trees, core, sim
>>> t = trees.complete_binary_tree(3)
>>> agent = core.rendezvous_agent()
>>> outcome = sim.run_rendezvous(t, agent, 3, 11, delay=0)
>>> outcome.met
True
"""

from . import agents, errors, sim, trees

__version__ = "1.0.0"

__all__ = ["trees", "agents", "sim", "errors", "__version__"]


try:  # core depends on everything above; keep import errors readable
    from . import core, lowerbounds, analysis  # noqa: E402  (cycle-free order)

    __all__ += ["core", "lowerbounds", "analysis"]
except ImportError:  # pragma: no cover - during partial builds only
    pass
