"""The RPR001–RPR006 invariant rules.

Each rule certifies one cross-layer contract the engine's *verdicts*
depend on.  Allowlists live here as class-level **data**, not scattered
conditionals, so extending one (a new benchmark dir, a new dispatch
seam) is a one-line diff reviewed next to the contract it weakens.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from .callgraph import CallGraph, FunctionInfo, build_call_graph
from .framework import FileRule, Finding, ProjectRule, SourceFile

__all__ = ["ALL_RULES", "default_rules", "rule_table"]


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _walk_skip_functions(node: ast.AST):
    """Yield descendants without entering nested function bodies
    (lambdas are entered: they close over the enclosing scope)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


# ----------------------------------------------------------------------
# RPR001 — fault-threading
# ----------------------------------------------------------------------


def _faults_test(test: ast.expr) -> Optional[str]:
    """Classify an ``if`` test: 'truthy' when the branch runs only with
    faults set, 'falsy' when only without, None otherwise."""
    if isinstance(test, ast.Name) and test.id == "faults":
        return "truthy"
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _faults_test(test.operand)
        if inner == "truthy":
            return "falsy"
        if inner == "falsy":
            return "truthy"
        return None
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "faults"
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        if isinstance(test.ops[0], ast.Is):
            return "falsy"
        if isinstance(test.ops[0], ast.IsNot):
            return "truthy"
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        # `faults is None and kernel_available()`: the branch still only
        # runs when every conjunct holds, so any classified conjunct
        # classifies the branch.
        for value in test.values:
            got = _faults_test(value)
            if got is not None:
                return got
    return None


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise))


class FaultThreadingRule(ProjectRule):
    """RPR001: a callable that accepts ``faults=`` must pass it to every
    resolvable callee that also accepts ``faults=``.

    Calls in branches the analyzer can prove fault-free (``if not
    faults:`` bodies, ``if faults: return ...`` fall-throughs) are
    exempt — the shape of ``compiled.solve_all_delays``, which forwards
    a plan to the faulted exact solver.  The per-run engines have no
    such branch: they run one loop and pass the plan into it, so every
    call there must thread ``faults=``.  ``**kwargs``
    expansion at the call site counts as threading (the dict is built
    from ``faults`` by the callers that use this pattern, and guessing
    otherwise would flag correct code).
    """

    code = "RPR001"
    name = "fault-threading"
    contract = (
        "every faults=-accepting callable threads faults= to every "
        "callee that accepts it"
    )

    def check_project(self, files: Sequence[SourceFile]) -> list[Finding]:
        graph = build_call_graph(files)
        findings: list[Finding] = []
        for sf in files:
            for func in ast.walk(sf.tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not self._accepts_faults_explicit(func):
                    continue
                findings.extend(self._check_function(sf, graph, func))
        return findings

    @staticmethod
    def _accepts_faults_explicit(func: ast.FunctionDef) -> bool:
        a = func.args
        names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        return "faults" in names

    def _check_function(
        self, sf: SourceFile, graph: CallGraph, func: ast.FunctionDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        local = CallGraph.local_imports(func, sf.module)

        def check_call(call: ast.Call) -> None:
            info = graph.resolve_call(sf, call, local)
            if info is None or not self._callee_accepts(info):
                return
            if self._threads_faults(call, info):
                return
            findings.append(Finding(
                self.code, self.name,
                f"'{func.name}' accepts faults= but calls "
                f"'{info.name}' (which also accepts faults=) without "
                f"threading it — a dropped fault plan silently reverts "
                f"to fault-free semantics",
                sf.display, call.lineno, call.col_offset,
            ))

        def scan_expr(node: Optional[ast.AST], fault_free: bool) -> None:
            if node is None or fault_free:
                return
            if isinstance(node, ast.Call):
                check_call(node)
            for child in _walk_skip_functions(node):
                if isinstance(child, ast.Call):
                    check_call(child)

        def scan_block(body: Sequence[ast.stmt], fault_free: bool) -> None:
            fault_free_rest = fault_free
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs are checked as their own callers
                if isinstance(stmt, ast.If):
                    kind = _faults_test(stmt.test)
                    scan_expr(stmt.test, fault_free_rest)
                    scan_block(
                        stmt.body,
                        fault_free_rest or kind == "falsy",
                    )
                    scan_block(
                        stmt.orelse,
                        fault_free_rest or kind == "truthy",
                    )
                    # `if faults: <always returns>` makes the rest of
                    # this block provably fault-free.
                    if kind == "truthy" and _terminates(stmt.body):
                        fault_free_rest = True
                    continue
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    scan_expr(stmt.iter, fault_free_rest)
                    scan_block(stmt.body, fault_free_rest)
                    scan_block(stmt.orelse, fault_free_rest)
                    continue
                if isinstance(stmt, ast.While):
                    scan_expr(stmt.test, fault_free_rest)
                    scan_block(stmt.body, fault_free_rest)
                    scan_block(stmt.orelse, fault_free_rest)
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        scan_expr(item.context_expr, fault_free_rest)
                    scan_block(stmt.body, fault_free_rest)
                    continue
                if isinstance(stmt, ast.Try):
                    scan_block(stmt.body, fault_free_rest)
                    for handler in stmt.handlers:
                        scan_block(handler.body, fault_free_rest)
                    scan_block(stmt.orelse, fault_free_rest)
                    scan_block(stmt.finalbody, fault_free_rest)
                    continue
                scan_expr(stmt, fault_free_rest)

        scan_block(func.body, False)
        return findings

    @staticmethod
    def _callee_accepts(info: FunctionInfo) -> bool:
        # **kwargs alone is not "accepts faults": threading into it
        # proves nothing and skipping it breaks nothing.
        return (
            "faults" in info.positional_params or "faults" in info.kwonly_params
        )

    @staticmethod
    def _threads_faults(call: ast.Call, info: FunctionInfo) -> bool:
        for kw in call.keywords:
            if kw.arg == "faults" or kw.arg is None:  # faults=... or **expansion
                return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True  # *args expansion: cannot count positions — trust it
        if "faults" in info.positional_params:
            return len(call.args) > info.positional_params.index("faults")
        return False


# ----------------------------------------------------------------------
# RPR002 — degrade discipline
# ----------------------------------------------------------------------


class DegradeDisciplineRule(FileRule):
    """RPR002: the degrade exceptions may only be *absorbed* at the
    dispatch seams; broad excepts must re-raise or log.

    ``BudgetExceededError`` / ``KernelUnsupported`` / ``LoweringError``
    encode "this exact path cannot decide — fall back"; swallowing one
    anywhere else turns a certified verdict into a silent lie.  Bare
    ``except:`` / ``except Exception`` / ``except BaseException``
    handlers that neither re-raise nor log are flagged everywhere.
    """

    code = "RPR002"
    name = "degrade-discipline"
    contract = (
        "degrade exceptions absorbed only in scenarios/backends.py and "
        "sim/kernel.py *_auto dispatchers; broad excepts re-raise or log"
    )

    #: Exceptions whose absorption is the backends' exclusive business.
    DEGRADE_ERRORS = frozenset(
        {"BudgetExceededError", "KernelUnsupported", "LoweringError"}
    )
    #: Files allowed to absorb them anywhere.
    ABSORB_PATHS = ("scenarios/backends.py",)
    #: File whose ``*_auto`` dispatchers are also allowed.
    AUTO_DISPATCH_PATH = "sim/kernel.py"
    AUTO_DISPATCH_SUFFIX = "_auto"
    #: Over-broad handler types.
    BROAD = frozenset({"Exception", "BaseException"})
    #: Method names whose call in a handler counts as logging.
    LOG_METHODS = frozenset(
        {"warn", "warning", "error", "exception", "info", "debug", "critical"}
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler):  # noqa: N802
        names = self._handler_names(node.type)
        reraises = self._reraises(node)
        caught_degrade = sorted(names & self.DEGRADE_ERRORS)
        if caught_degrade and not reraises and not self._absorb_allowed():
            self.finding(node, (
                f"absorbs {'/'.join(caught_degrade)} outside the dispatch "
                f"seams ({', '.join(self.ABSORB_PATHS)} or "
                f"{self.AUTO_DISPATCH_PATH} *{self.AUTO_DISPATCH_SUFFIX}) — "
                f"degrade decisions belong to the backends"
            ))
        broad = (node.type is None) or bool(names & self.BROAD)
        if broad and not reraises and not self._logs(node):
            what = "bare except:" if node.type is None else (
                f"except {'/'.join(sorted(names & self.BROAD))}"
            )
            self.finding(node, (
                f"{what} swallows errors without re-raise or logging — "
                f"narrow the exception type or surface the failure"
            ))
        self.generic_visit(node)

    def _absorb_allowed(self) -> bool:
        assert self.sf is not None
        if any(self.sf.matches(p) for p in self.ABSORB_PATHS):
            return True
        if self.sf.matches(self.AUTO_DISPATCH_PATH):
            func = self.enclosing_function
            return func is not None and func.name.endswith(
                self.AUTO_DISPATCH_SUFFIX
            )
        return False

    @staticmethod
    def _handler_names(type_node: Optional[ast.expr]) -> frozenset[str]:
        if type_node is None:
            return frozenset()
        exprs = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        names = set()
        for e in exprs:
            if isinstance(e, ast.Name):
                names.add(e.id)
            elif isinstance(e, ast.Attribute):
                names.add(e.attr)
        return frozenset(names)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(n, ast.Raise)
            for stmt in handler.body
            for n in [stmt, *_walk_skip_functions(stmt)]
        )

    def _logs(self, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for n in [stmt, *_walk_skip_functions(stmt)]:
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in self.LOG_METHODS
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# RPR003 — determinism
# ----------------------------------------------------------------------


class DeterminismRule(FileRule):
    """RPR003: solver paths are deterministic — no shared-RNG draws, no
    unseeded ``Random()``, no wall-clock reads outside the allowlist.

    ``random.seed``/``getstate``/``setstate`` are exempt: they are the
    seeded-job plumbing (``BatchJob.seed``) and always take explicit
    state.  The wall-clock allowlist is the timing infrastructure the
    repo already quarantines: benchmarks, the instrument layer, and the
    supervised pool's timeout arithmetic.  The telemetry layer gets a
    narrower grant: *monotonic-family* clocks only (span timing), so a
    ``time.time()`` wall-clock read in a telemetry payload still fires —
    event streams must never embed absolute timestamps.
    """

    code = "RPR003"
    name = "determinism"
    contract = (
        "no shared-RNG draws or unseeded Random(); wall-clock reads "
        "only in benchmarks/, sim/instrument.py, sim/supervise.py; "
        "telemetry/ may use monotonic-family clocks only"
    )

    #: Where wall-clock reads are legitimate (timing infrastructure).
    CLOCK_ALLOWED_PATHS = (
        "benchmarks/",
        "sim/instrument.py",
        "sim/supervise.py",
    )
    #: Where only *monotonic* clocks are legitimate (span timing):
    #: telemetry measures durations, never moments.
    MONOTONIC_ONLY_PATHS = (
        "telemetry/",
    )
    #: ``time`` module functions that read or depend on the wall clock.
    CLOCK_FUNCS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "sleep", "process_time",
    })
    #: The duration-only subset allowed under MONOTONIC_ONLY_PATHS.
    MONOTONIC_FUNCS = frozenset({
        "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    })
    #: ``random`` module attrs that manage explicit state (allowed).
    RNG_STATE_FUNCS = frozenset({"getstate", "setstate"})

    def __init__(self) -> None:
        super().__init__()
        self._random_aliases: set[str] = set()
        self._time_aliases: set[str] = set()
        self._from_bindings: dict[str, tuple[str, str]] = {}

    def check_file(self, sf: SourceFile) -> list[Finding]:
        self._random_aliases = set()
        self._time_aliases = set()
        self._from_bindings = {}
        return super().check_file(sf)

    def visit_Import(self, node: ast.Import):  # noqa: N802
        for alias in node.names:
            bound = alias.asname or alias.name
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom):  # noqa: N802
        if node.module in ("random", "time") and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                self._from_bindings[bound] = (node.module, alias.name)

    def visit_Call(self, node: ast.Call):  # noqa: N802
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in self._random_aliases:
                self._check_random(node, func.attr)
            elif func.value.id in self._time_aliases:
                self._check_time(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in self._from_bindings:
            module, original = self._from_bindings[func.id]
            if module == "random":
                self._check_random(node, original)
            else:
                self._check_time(node, original)
        self.generic_visit(node)

    def _check_random(self, node: ast.Call, attr: str) -> None:
        if attr in self.RNG_STATE_FUNCS:
            return
        if attr in ("Random", "seed"):
            if node.args or node.keywords:
                return
            self.finding(node, (
                f"unseeded random.{attr}() — pass an explicit seed so "
                f"solver paths replay deterministically"
            ))
            return
        self.finding(node, (
            f"random.{attr}() draws from the shared module RNG — use an "
            f"explicit seeded random.Random(seed) instance"
        ))

    def _check_time(self, node: ast.Call, attr: str) -> None:
        if attr not in self.CLOCK_FUNCS:
            return
        assert self.sf is not None
        if any(self.sf.matches(p) for p in self.CLOCK_ALLOWED_PATHS):
            return
        if any(self.sf.matches(p) for p in self.MONOTONIC_ONLY_PATHS):
            if attr in self.MONOTONIC_FUNCS:
                return
            self.finding(node, (
                f"time.{attr}() reads the wall clock inside the telemetry "
                f"layer — telemetry may measure durations "
                f"({', '.join(sorted(self.MONOTONIC_FUNCS))}) but never "
                f"embed absolute timestamps in event payloads"
            ))
            return
        self.finding(node, (
            f"time.{attr}() reads the clock outside the timing allowlist "
            f"({', '.join(self.CLOCK_ALLOWED_PATHS)}) — solver verdicts "
            f"must not depend on wall time"
        ))


# ----------------------------------------------------------------------
# RPR004 — picklability of batch payloads
# ----------------------------------------------------------------------


class PicklabilityRule(FileRule):
    """RPR004: lambdas and locally-defined functions must not flow into
    the multiprocessing fan-out entry points.

    The supervised pool pickles every job; an unpicklable payload
    silently forces the whole batch onto the serial path, with no
    parallelism and no timeout preemption — discovered at runtime, deep
    inside a sweep.  Flag it at the call site instead.
    """

    code = "RPR004"
    name = "picklability"
    contract = (
        "no lambdas/locally-defined functions passed into batch fan-out "
        "entry points (run_*batch_supervised, *Job)"
    )

    #: Call targets whose arguments cross a process boundary.
    BATCH_ENTRY_POINTS = frozenset({
        "run_batch_supervised",
        "run_gathering_batch_supervised",
        "BatchJob",
        "GatheringJob",
    })

    def __init__(self) -> None:
        super().__init__()
        self._local_names: list[set[str]] = []

    def visit_FunctionDef(self, node):  # noqa: N802
        self._local_names.append(self._collect_local_callables(node))
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()
        self._local_names.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _collect_local_callables(func: ast.FunctionDef) -> set[str]:
        names: set[str] = set()

        def scan(body: Sequence[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
                    continue  # its internals are its own scope
                if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Lambda
                ):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                for field in ("body", "orelse", "finalbody"):
                    scan(getattr(stmt, field, []) or [])
                for handler in getattr(stmt, "handlers", []) or []:
                    scan(handler.body)

        scan(func.body)
        return names

    def visit_Call(self, node: ast.Call):  # noqa: N802
        name = _call_name(node)
        if name in self.BATCH_ENTRY_POINTS:
            values = list(node.args) + [
                kw.value for kw in node.keywords if kw.arg is not None
            ]
            flat: list[ast.expr] = []
            for v in values:
                flat.append(v)
                if isinstance(v, (ast.List, ast.Tuple)):
                    flat.extend(v.elts)
            for v in flat:
                if isinstance(v, ast.Lambda):
                    self.finding(v, (
                        f"lambda passed into {name}() cannot be pickled "
                        f"across the process boundary — hoist it to a "
                        f"module-level function"
                    ))
                elif isinstance(v, ast.Name) and any(
                    v.id in scope for scope in self._local_names
                ):
                    self.finding(v, (
                        f"locally-defined function {v.id!r} passed into "
                        f"{name}() cannot be pickled across the process "
                        f"boundary — hoist it to module level"
                    ))
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR005 — kernel dtype contracts
# ----------------------------------------------------------------------


class KernelDtypeRule(FileRule):
    """RPR005: numpy allocations in the kernel layers pass an explicit
    ``dtype=``.

    numpy is recognised by ``import numpy [as x]`` and by a name bound
    from the lazy probe (``x = load_numpy()``, see
    :mod:`repro.sim.numpy_probe`), which is how both kernel files get it.

    The successor tables are content-addressed (cache keys hash the raw
    bytes) and cross the memmap boundary; a platform-default dtype makes
    the same automaton hash differently on different machines and
    silently corrupts id arithmetic past 2**31 entries.
    """

    code = "RPR005"
    name = "kernel-dtype"
    contract = (
        "np.zeros/empty/full/arange/asarray in sim/kernel.py and "
        "sim/traced.py pass explicit dtype="
    )

    #: The files whose arrays are content-addressed / memmapped.
    KERNEL_PATHS = ("sim/kernel.py", "sim/traced.py")
    #: Allocation entry points that take a dtype.
    ALLOC_FUNCS = frozenset({"zeros", "empty", "full", "arange", "asarray"})
    #: Calls that return the numpy module (the lazy probe and the
    #: kernel's guard around it): ``_np = load_numpy()`` binds an alias
    #: exactly like ``import numpy as _np``.
    NUMPY_PROBES = frozenset({"load_numpy", "_require_kernel"})

    def __init__(self) -> None:
        super().__init__()
        self._numpy_aliases: set[str] = set()

    def check_file(self, sf: SourceFile) -> list[Finding]:
        if not any(sf.matches(p) for p in self.KERNEL_PATHS):
            return []
        self._numpy_aliases = set()
        return super().check_file(sf)

    def visit_Import(self, node: ast.Import):  # noqa: N802
        for alias in node.names:
            if alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")

    def visit_Assign(self, node: ast.Assign):  # noqa: N802
        value = node.value
        if isinstance(value, ast.IfExp):  # `load_numpy() if big else None`
            value = value.body
        if isinstance(value, ast.Call) and _call_name(value) in self.NUMPY_PROBES:
            self._numpy_aliases.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):  # noqa: N802
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._numpy_aliases
            and func.attr in self.ALLOC_FUNCS
        ):
            has_dtype = any(
                kw.arg == "dtype" or kw.arg is None for kw in node.keywords
            )
            if not has_dtype:
                self.finding(node, (
                    f"np.{func.attr}(...) without explicit dtype= — kernel "
                    f"arrays are content-hashed and memmapped, so the "
                    f"platform-default dtype breaks cache keys and id "
                    f"arithmetic"
                ))
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR006 — backend protocol conformance
# ----------------------------------------------------------------------


class BackendProtocolRule(ProjectRule):
    """RPR006: every backend exposes the full ``Backend`` protocol.

    Checked structurally: the ``Backend`` class itself must define every
    method in the manifest below (so extending the protocol means
    extending this data, reviewed together), and every class that
    derives from it — or is named like a backend — must reach every
    method through its project-visible MRO.  A new backend written
    without inheriting ``Backend`` therefore cannot silently miss
    ``run_pairs`` or ``sweep_gathering``.
    """

    code = "RPR006"
    name = "backend-protocol"
    contract = (
        "Backend and every *Backend class define/inherit the full "
        "protocol surface incl. run_pairs and sweep_gathering"
    )

    #: The protocol surface.  Extending the Backend protocol MUST extend
    #: this list in the same commit — that is the point of the rule.
    PROTOCOL_METHODS = (
        "run",
        "run_gathering",
        "run_many",
        "run_gathering_many",
        "sweep_delays",
        "sweep_gathering",
        "run_pairs",
    )
    PROTOCOL_CLASS = "Backend"

    def check_project(self, files: Sequence[SourceFile]) -> list[Finding]:
        classes: dict[str, tuple[SourceFile, ast.ClassDef]] = {}
        for sf in files:
            for stmt in sf.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    classes[stmt.name] = (sf, stmt)

        findings: list[Finding] = []

        def own_methods(node: ast.ClassDef) -> set[str]:
            return {
                s.name for s in node.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            }

        def base_names(node: ast.ClassDef) -> list[str]:
            out = []
            for b in node.bases:
                if isinstance(b, ast.Name):
                    out.append(b.id)
                elif isinstance(b, ast.Attribute):
                    out.append(b.attr)
            return out

        def mro_methods(name: str, seen: set[str]) -> set[str]:
            if name in seen or name not in classes:
                return set()
            seen.add(name)
            _sf, node = classes[name]
            methods = own_methods(node)
            for base in base_names(node):
                methods |= mro_methods(base, seen)
            return methods

        def derives_from_protocol(name: str, seen: set[str]) -> bool:
            if name in seen or name not in classes:
                return False
            seen.add(name)
            _sf, node = classes[name]
            for base in base_names(node):
                if base == self.PROTOCOL_CLASS or derives_from_protocol(
                    base, seen
                ):
                    return True
            return False

        proto = classes.get(self.PROTOCOL_CLASS)
        if proto is not None:
            sf, node = proto
            missing = [
                m for m in self.PROTOCOL_METHODS if m not in own_methods(node)
            ]
            if missing:
                findings.append(Finding(
                    self.code, self.name,
                    f"protocol class {self.PROTOCOL_CLASS} does not define "
                    f"{', '.join(missing)} — the protocol manifest and the "
                    f"class must move together",
                    sf.display, node.lineno, node.col_offset,
                ))

        for name, (sf, node) in classes.items():
            if name == self.PROTOCOL_CLASS:
                continue
            is_backend = name.endswith("Backend") or derives_from_protocol(
                name, set()
            )
            if not is_backend:
                continue
            available = mro_methods(name, set())
            missing = [m for m in self.PROTOCOL_METHODS if m not in available]
            if missing:
                findings.append(Finding(
                    self.code, self.name,
                    f"backend class {name} neither defines nor inherits "
                    f"{', '.join(missing)} — a protocol extension must "
                    f"reach every backend",
                    sf.display, node.lineno, node.col_offset,
                ))
        return findings


# ----------------------------------------------------------------------


ALL_RULES = (
    FaultThreadingRule,
    DegradeDisciplineRule,
    DeterminismRule,
    PicklabilityRule,
    KernelDtypeRule,
    BackendProtocolRule,
)


def default_rules() -> list[object]:
    return [cls() for cls in ALL_RULES]


def rule_table() -> list[tuple[str, str, str]]:
    """(code, name, contract) rows for ``--list-rules`` and the docs."""
    return [(cls.code, cls.name, cls.contract) for cls in ALL_RULES]
