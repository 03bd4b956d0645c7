"""Tests for non-meeting certification on the engine tiers.

A non-meeting verdict comes from a tier's ``certify=True`` run: the
Fact 1.1 :class:`SymmetryCertificate` before round 1 (delay 0, identical
agents, no faults), else a repeated joint configuration.  The reference
and compiled tiers must reach the same verdict on every instance.
"""

import pytest

from repro.agents import STAY, Automaton, alternator, pausing_walker
from repro.lowerbounds import build_thm31_instance
from repro.sim import (
    SymmetryCertificate,
    run_rendezvous,
    run_rendezvous_compiled,
    symmetry_certificate,
)
from repro.trees import edge_colored_line, line

TIERS = pytest.mark.parametrize(
    "run", [run_rendezvous, run_rendezvous_compiled],
    ids=["reference", "compiled"],
)


def waiting_agent():
    return Automaton(1, {}, [STAY])


@TIERS
class TestCertifyRuns:
    def test_two_waiters(self, run):
        # odd node count: no symmetry certificate, so the static
        # configuration's recurrence certifies
        assert symmetry_certificate(line(5), 0, 4) is None
        out = run(line(5), waiting_agent(), 0, 4, certify=True)
        assert out.certified_never and not out.met
        assert out.rounds_executed > 0

    def test_mirror_alternators(self, run):
        # symmetric labeling + mirror starts: Fact 1.1 before round 1
        t = edge_colored_line(6)
        assert symmetry_certificate(t, 1, 4).verify()
        out = run(t, alternator(), 1, 4, certify=True)
        assert out.certified_never and not out.met
        assert out.rounds_executed == 0 and out.crossings == 0

    def test_mirror_alternators_with_delay(self, run):
        # a delay breaks the lockstep; the recurrence still certifies
        out = run(edge_colored_line(6), alternator(), 1, 4, delay=1, certify=True)
        assert out.certified_never and not out.met
        assert out.rounds_executed > 0

    def test_thm31_instance(self, run):
        inst = build_thm31_instance(pausing_walker(1), verify=False)
        out = run(
            inst.tree, pausing_walker(1), inst.start1, inst.start2,
            delay=inst.delay, delayed=inst.delayed, certify=True,
        )
        assert out.certified_never and not out.met

    def test_meeting_instance_is_not_certified(self, run):
        walker = Automaton(1, {}, [0])
        out = run(line(6), walker, 2, 4, certify=True)
        assert out.met and not out.certified_never
        assert out.meeting_round == 3

    def test_same_start_meets_at_round_zero(self, run):
        out = run(line(4), waiting_agent(), 1, 1, certify=True)
        assert out.met and not out.certified_never
        assert (out.meeting_round, out.rounds_executed) == (0, 0)

    def test_budget_exhaustion_leaves_the_run_undecided(self, run):
        t = edge_colored_line(12)
        short = run(t, alternator(), 1, 10, delay=2, max_rounds=2, certify=True)
        assert short.undecided and short.rounds_executed == 2
        full = run(t, alternator(), 1, 10, delay=2, certify=True)
        assert full.certified_never


class TestSymmetryCertificateRejectsTampering:
    def _cert(self):
        return symmetry_certificate(edge_colored_line(6), 1, 4)

    def test_fixed_point_fails(self):
        cert = self._cert()
        assert cert.verify()
        bad = SymmetryCertificate(
            cert.tree, cert.start1, cert.start2, (0,) + cert.mapping[1:]
        )
        assert not bad.verify()

    def test_truncated_mapping_fails(self):
        cert = self._cert()
        bad = SymmetryCertificate(
            cert.tree, cert.start1, cert.start2, cert.mapping[:-1]
        )
        assert not bad.verify()

    def test_wrong_start_fails(self):
        cert = self._cert()
        bad = SymmetryCertificate(cert.tree, cert.start1, 3, cert.mapping)
        assert not bad.verify()
