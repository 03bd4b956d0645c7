"""Agent models: explicit automata and bounded-register programs."""

from .automaton import Automaton, LineAutomaton, random_line_automaton
from .dsl import compile_walker, parse_script, script_drift, script_period
from .digraph import (
    CircuitProfile,
    FunctionalDigraph,
    analyze_functional,
    circuit_profile,
    lcm_of,
)
from .minimize import (
    AutomatonMinimization,
    LassoFamilyMinimization,
    MinimizationResult,
    behaviorally_equivalent,
    minimize_automaton,
    minimize_lassos,
    minimize_line_automaton,
    minimize_tree_automaton,
)
from .library import (
    alternator,
    counting_program,
    counting_walker,
    pausing_program,
    pausing_walker,
    random_tree_automaton,
)
from .lowering import (
    LoweredAutomaton,
    lower_to_automaton,
    lowered_for,
    machine_state_key,
)
from .observations import NULL_PORT, STAY, AgentBase, resolve_action
from .program import AgentProgram, Ctx, Drive, Registers, Walk, drive, move, stay, walk

__all__ = [
    "AgentBase",
    "STAY",
    "NULL_PORT",
    "resolve_action",
    "Automaton",
    "LineAutomaton",
    "random_line_automaton",
    "AgentProgram",
    "Registers",
    "Ctx",
    "move",
    "stay",
    "walk",
    "Walk",
    "drive",
    "Drive",
    "LoweredAutomaton",
    "lower_to_automaton",
    "lowered_for",
    "machine_state_key",
    "CircuitProfile",
    "FunctionalDigraph",
    "analyze_functional",
    "circuit_profile",
    "lcm_of",
    "compile_walker",
    "parse_script",
    "script_drift",
    "script_period",
    "alternator",
    "AutomatonMinimization",
    "LassoFamilyMinimization",
    "MinimizationResult",
    "minimize_automaton",
    "minimize_lassos",
    "minimize_line_automaton",
    "minimize_tree_automaton",
    "behaviorally_equivalent",
    "counting_program",
    "counting_walker",
    "pausing_program",
    "pausing_walker",
    "random_tree_automaton",
]
