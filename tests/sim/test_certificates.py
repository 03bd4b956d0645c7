"""Tests for standalone non-meeting certificates."""

import pytest

from repro.agents import STAY, Automaton, alternator, pausing_walker
from repro.errors import SimulationError
from repro.sim.certificates import JointConfig, build_certificate
from repro.trees import edge_colored_line, line


def waiting_agent():
    return Automaton(1, {}, [STAY])


class TestBuildCertificate:
    def test_two_waiters(self):
        cert = build_certificate(line(5), waiting_agent(), 0, 4)
        assert cert.verify()
        assert len(cert.cycle) == 1  # the static configuration repeats at once

    def test_mirror_alternators(self):
        # symmetric labeling + mirror starts: eternal crossing
        t = edge_colored_line(6)
        cert = build_certificate(t, alternator(), 1, 4)
        assert cert.verify()
        assert cert.lasso_length >= 2

    def test_with_delay(self):
        from repro.lowerbounds import build_thm31_instance

        inst = build_thm31_instance(pausing_walker(1), verify=False)
        cert = build_certificate(
            inst.tree,
            pausing_walker(1),
            inst.start1,
            inst.start2,
            delay=inst.delay,
            delayed=inst.delayed,
        )
        assert cert.verify()

    def test_meeting_instance_rejected(self):
        walker = Automaton(1, {}, [0])
        with pytest.raises(SimulationError):
            build_certificate(line(6), walker, 2, 4)

    def test_same_start_rejected(self):
        with pytest.raises(SimulationError):
            build_certificate(line(4), waiting_agent(), 1, 1)

    def test_budget_exhaustion(self):
        t = edge_colored_line(12)
        with pytest.raises(SimulationError):
            build_certificate(t, alternator(), 1, 10, max_rounds=2)


class TestVerifyRejectsTampering:
    def _cert(self):
        return build_certificate(edge_colored_line(6), alternator(), 1, 4)

    def test_tampered_cycle_fails(self):
        cert = self._cert()
        bad_cfg = JointConfig(0, 0, -1, 0, 0, -1)  # a meeting configuration
        bad = cert._replace(cycle=(bad_cfg,) + cert.cycle[1:])
        assert not bad.verify()

    def test_truncated_cycle_fails(self):
        cert = self._cert()
        if len(cert.cycle) < 2:
            pytest.skip("cycle too short to truncate")
        bad = cert._replace(cycle=cert.cycle[:-1])
        assert not bad.verify()

    def test_empty_cycle_rejected(self):
        cert = self._cert()
        with pytest.raises(SimulationError):
            cert._replace(cycle=()).verify()
