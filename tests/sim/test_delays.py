"""The (θ, side) delay-sweep format owner: choice order, the k=2 delay
vectors, the verdict mapping, and one validation for every entry point."""

import pytest

from repro.agents import counting_walker
from repro.agents.library import counting_program
from repro.errors import SimulationError
from repro.sim import (
    FaultPlan,
    GatheringVerdict,
    solve_all_delays,
    solve_all_delays_auto,
    solve_all_delays_faulted,
    solve_all_delays_kernel,
    solve_delay_grid_kernel,
    sweep_delays_traced,
)
from repro.sim.delays import (
    DelayVerdict,
    delay_vector,
    sweep_choices,
    to_delay_verdicts,
)
from repro.sim import kernel as kernel_mod
from repro.telemetry import Telemetry
from repro.telemetry import use as use_telemetry
from repro.trees import edge_colored_line


@pytest.mark.parametrize(
    "sides,expected",
    [
        ((1, 2), [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]),
        ((2, 1), [(0, 2), (1, 2), (1, 1), (2, 2), (2, 1)]),
        ((1,), [(0, 1), (1, 1), (2, 1)]),
        ((2,), [(0, 2), (1, 2), (2, 2)]),
    ],
)
def test_choice_order(sides, expected):
    # θ-major, sides in request order, θ = 0 once (side 2 when requested)
    assert sweep_choices(2, sides) == expected


def test_delay_vectors_and_verdict_mapping():
    assert delay_vector(3, 2) == (0, 3)
    assert delay_vector(3, 1) == (3, 0)
    choices = [(0, 2), (4, 1)]
    gathering = [
        GatheringVerdict((0, 0), True, 5, False),
        GatheringVerdict((4, 0), False, None, True, True),
    ]
    assert to_delay_verdicts(choices, gathering) == [
        DelayVerdict(0, 2, True, 5, False, False),
        DelayVerdict(4, 1, False, None, True, True),
    ]


TREE = edge_colored_line(9)
PLAN = FaultPlan.parse_many(["pause:0@2:2"])
DIRECT_CALLERS = {
    "dict": lambda sides, md: solve_all_delays(
        TREE, counting_walker(2), 0, 5, max_delay=md, delayed_sides=sides),
    "auto": lambda sides, md: solve_all_delays_auto(
        TREE, counting_walker(2), 0, 5, max_delay=md, delayed_sides=sides),
    "kernel": lambda sides, md: solve_all_delays_kernel(
        TREE, counting_walker(2), 0, 5, max_delay=md, delayed_sides=sides),
    "kernel-grid": lambda sides, md: solve_delay_grid_kernel(
        TREE, counting_walker(2), [(0, 5), (3, 3)], max_delay=md,
        delayed_sides=sides),
    "faulted": lambda sides, md: solve_all_delays_faulted(
        TREE, counting_walker(2), 0, 5, max_delay=md, faults=PLAN,
        delayed_sides=sides),
    "traced": lambda sides, md: sweep_delays_traced(
        TREE, counting_program(2), 0, 5, max_delay=md, sides=sides),
    "traced-same-start": lambda sides, md: sweep_delays_traced(
        TREE, counting_program(2), 4, 4, max_delay=md, sides=sides),
}


@pytest.fixture(autouse=True)
def no_lane_gate(monkeypatch):
    """The "auto" caller's grids sit below the kernel lane gate; lift it
    so auto dispatches them to the kernel as it would a large grid."""
    monkeypatch.setattr(kernel_mod, "_MIN_KERNEL_LANES", 0)


def test_auto_caller_rides_the_kernel():
    telem = Telemetry()
    with use_telemetry(telem):
        assert DIRECT_CALLERS["auto"]((1, 2), 2) == DIRECT_CALLERS["dict"]((1, 2), 2)
    assert telem.counters["kernel.dispatch.delays.kernel"] == 1
    assert "kernel.dispatch.delays.dict" not in telem.counters


@pytest.mark.parametrize("caller", sorted(DIRECT_CALLERS))
@pytest.mark.parametrize("sides", [(), (2, 2), (1, 2, 1), (0,), (1, 3)])
def test_every_entry_point_rejects_malformed_sides(caller, sides):
    with pytest.raises(SimulationError, match="delayed_sides"):
        DIRECT_CALLERS[caller](sides, 2)


@pytest.mark.parametrize("caller", sorted(DIRECT_CALLERS))
def test_every_entry_point_rejects_negative_max_delay(caller):
    with pytest.raises(SimulationError, match="max_delay"):
        DIRECT_CALLERS[caller]((1, 2), -1)
