"""Tests for register programs: Registers, Ctx, move/stay, AgentProgram."""

import pytest

from repro.agents import STAY, AgentProgram, Ctx, Registers, drive, move, stay
from repro.errors import AgentProtocolError
from repro.trees import line


class TestRegisters:
    def test_declare_and_assign(self):
        regs = Registers()
        regs.declare("x", 10)
        regs["x"] = 7
        assert regs["x"] == 7

    def test_bound_enforced(self):
        regs = Registers()
        regs.declare("x", 3)
        with pytest.raises(AgentProtocolError):
            regs["x"] = 4
        with pytest.raises(AgentProtocolError):
            regs["x"] = -1

    def test_undeclared_rejected(self):
        regs = Registers()
        with pytest.raises(AgentProtocolError):
            regs["ghost"] = 0

    def test_redeclare_widens_never_narrows(self):
        regs = Registers()
        regs.declare("x", 3)
        regs.declare("x", 10)
        regs["x"] = 9
        regs.declare("x", 2)  # narrowing is ignored
        regs["x"] = 9  # still allowed
        assert regs.report()["x"][0] == 10

    def test_bits_declared(self):
        regs = Registers()
        regs.declare("a", 1)  # 1 bit
        regs.declare("b", 7)  # 3 bits
        regs.declare("c", 8)  # 4 bits
        assert regs.bits_declared() == 1 + 3 + 4

    def test_bits_used_tracks_peaks(self):
        regs = Registers()
        regs.declare("a", 1000)
        regs["a"] = 3
        regs["a"] = 100
        regs["a"] = 5
        assert regs.report()["a"] == (1000, 100)
        assert regs.bits_used() == 7  # ceil(log2(101))

    def test_negative_bound_rejected(self):
        regs = Registers()
        with pytest.raises(AgentProtocolError):
            regs.declare("x", -1)

    def test_initial_value(self):
        regs = Registers()
        regs.declare("x", 5, initial=4)
        assert regs["x"] == 4


class TestRegistersSnapshot:
    """snapshot()/restore()/state_key() — the lowering subsystem's view."""

    def test_snapshot_restore_roundtrip(self):
        regs = Registers()
        regs.declare("x", 10, initial=3)
        snap = regs.snapshot()
        regs["x"] = 9
        regs.restore(snap)
        assert regs["x"] == 3
        assert regs.report()["x"] == (10, 3)

    def test_snapshot_is_a_copy(self):
        regs = Registers()
        regs.declare("x", 10, initial=1)
        snap = regs.snapshot()
        regs["x"] = 7  # must not leak into the captured snapshot
        assert snap["values"]["x"] == 1

    def test_redeclaration_widening_survives_restore(self):
        regs = Registers()
        regs.declare("x", 3)
        snap = regs.snapshot()
        regs.declare("x", 10)  # doubling scheme widens the register
        regs["x"] = 9
        regs.restore(snap)
        # back to the narrow declaration: the wide assignment is illegal
        with pytest.raises(AgentProtocolError):
            regs["x"] = 9
        regs.declare("x", 10)  # re-widening works again after restore
        regs["x"] = 9
        assert regs.report()["x"] == (10, 9)

    def test_peak_accounting_rewinds_with_restore(self):
        regs = Registers()
        regs.declare("x", 1000)
        regs["x"] = 5
        snap = regs.snapshot()
        regs["x"] = 900  # exploratory branch spikes the peak
        assert regs.bits_used() == 10
        regs.restore(snap)
        assert regs.report()["x"] == (1000, 5)
        assert regs.bits_used() == 3  # peak account back to the snapshot
        regs["x"] = 100
        assert regs.report()["x"] == (1000, 100)  # and re-peaks normally

    def test_state_key_covers_values_and_bounds(self):
        a, b = Registers(), Registers()
        for regs in (a, b):
            regs.declare("x", 3, initial=2)
        assert a.state_key() == b.state_key()
        b.declare("x", 10)  # widened bound is generator-visible state
        assert a.state_key() != b.state_key()
        a.declare("x", 10)
        assert a.state_key() == b.state_key()

    def test_state_key_ignores_peaks(self):
        a, b = Registers(), Registers()
        for regs in (a, b):
            regs.declare("x", 100)
        a["x"] = 90  # peak spike ...
        a["x"] = 0  # ... then back: same visible state as b
        assert a.state_key() == b.state_key()
        assert a.report() != b.report()  # but the accounting differs


class TestCtxAndMoves:
    def _drive(self, gen, tree, start):
        """Minimal driver: run a routine to completion on a tree."""
        log = []
        run = drive(tree, start, gen, Registers(), trail=log)
        return run.node, log

    def test_move_updates_ctx(self):
        t = line(4)
        ctx = Ctx(-1, t.degree(0))

        def routine():
            yield from move(ctx, 0)
            assert ctx.degree == 2
            yield from move(ctx, (ctx.in_port + 1) % 2)

        pos, _ = self._drive(routine(), t, 0)
        assert pos == 2
        assert ctx.rounds == 2

    def test_stay_resets_in_port(self):
        t = line(3)
        ctx = Ctx(-1, t.degree(1))

        def routine():
            yield from move(ctx, 0)
            yield from stay(ctx, 2)
            assert ctx.in_port == -1  # the model's (-1, d) after null moves

        pos, _ = self._drive(routine(), t, 1)
        assert pos == 0
        assert ctx.rounds == 3

    def test_stay_zero_is_noop(self):
        t = line(3)
        ctx = Ctx(-1, 2)

        def routine():
            yield from stay(ctx, 0)
            yield from move(ctx, 0)

        pos, log = self._drive(routine(), t, 1)
        assert len(log) == 1


class TestAgentProgram:
    def test_lifecycle(self):
        def program(start_degree, regs):
            ctx = Ctx(-1, start_degree)
            regs.declare("steps", 3)
            for k in range(3):
                regs["steps"] = k
                yield from move(ctx, 0)

        agent = AgentProgram(program)
        t = line(5)
        action = agent.start(t.degree(3))
        pos = 3
        rounds = 0
        while not agent.finished:
            pos, in_port = t.move(pos, action % t.degree(pos))
            rounds += 1
            action = agent.step(in_port, t.degree(pos))
        assert rounds == 3
        assert agent.memory_bits_declared() == 2

    def test_finished_agent_stays(self):
        def program(start_degree, regs):
            return
            yield  # pragma: no cover

        agent = AgentProgram(program)
        assert agent.start(2) == STAY
        assert agent.finished
        assert agent.step(0, 2) == STAY

    def test_clone_is_independent(self):
        def program(start_degree, regs):
            regs.declare("x", 1)
            yield 0

        a = AgentProgram(program)
        a.start(2)
        b = a.clone()
        assert b.registers.report() == {}
        b.start(2)
        assert b.registers.report() == {"x": (1, 0)}

    def test_restart_resets_registers(self):
        def program(start_degree, regs):
            regs.declare("x", 10, initial=start_degree)
            yield 0

        a = AgentProgram(program)
        a.start(5)
        assert a.registers["x"] == 5
        a.start(2)
        assert a.registers["x"] == 2

    def test_repr(self):
        def myprog(start_degree, regs):
            yield 0

        assert "myprog" in repr(AgentProgram(myprog))
