"""A package-level call graph good enough to check keyword threading.

The fault-threading rule (RPR001) needs to know, for every call site,
*which function definition* the call lands on and *what parameters* that
definition takes.  Full Python name resolution is out of scope; what the
repo actually uses is covered:

- plain-name calls resolved through module-level **and function-local**
  imports (``faults.solve_gathering_faulted`` does ``from
  .gathering_solver import solve_gathering`` inside the function, to
  break an import cycle) and same-module definitions;
- attribute calls on a name bound to an imported module
  (``kernel.solve_all_delays_auto(...)`` after
  ``from ..sim import kernel`` / ``import repro.sim.kernel as kernel``);
- relative imports resolved against the importing module's dotted name,
  absolute imports matched exactly or on dotted-suffix (so the graph
  works whether the analyzer was pointed at ``src/`` or ``src/repro``).

Method calls (``self.run(...)``, ``Backend.sweep_delays(...)``) are
deliberately unresolved: binding them correctly needs type inference,
and a rule built on guesses would cry wolf.  Unresolved calls are
skipped, never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .framework import SourceFile

__all__ = ["FunctionInfo", "CallGraph", "build_call_graph"]


@dataclass
class FunctionInfo:
    """One module-level function definition."""

    module: str
    name: str
    node: ast.FunctionDef
    positional_params: list[str] = field(default_factory=list)
    kwonly_params: list[str] = field(default_factory=list)
    has_var_keyword: bool = False

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}" if self.module else self.name

    def accepts(self, param: str) -> bool:
        return (
            param in self.positional_params
            or param in self.kwonly_params
            or self.has_var_keyword
        )


def _params_of(node: ast.FunctionDef) -> tuple[list[str], list[str], bool]:
    a = node.args
    pos = [arg.arg for arg in a.posonlyargs + a.args]
    kw = [arg.arg for arg in a.kwonlyargs]
    return pos, kw, a.kwarg is not None


def _function_info(module: str, node: ast.FunctionDef) -> FunctionInfo:
    pos, kw, var = _params_of(node)
    return FunctionInfo(module, node.name, node, pos, kw, var)


def _resolve_relative(module: str, target: Optional[str], level: int) -> str:
    """``from ..sim.kernel import f`` in ``repro.scenarios.backends`` ->
    ``repro.sim.kernel``."""
    if level == 0:
        return target or ""
    parts = module.split(".") if module else []
    # level 1 = current package (drop the module's own last segment),
    # each extra level drops one more package.
    keep = len(parts) - level
    base = parts[:keep] if keep > 0 else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _ImportMap:
    """name -> ("func", module, symbol) | ("module", module) bindings."""

    def __init__(self) -> None:
        self.bindings: dict[str, tuple] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            # `import a.b.c` binds `a`; `import a.b.c as x` binds x to a.b.c
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.bindings[bound] = ("module", target)

    def add_import_from(self, node: ast.ImportFrom, module: str) -> None:
        src = _resolve_relative(module, node.module, node.level)
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.bindings[bound] = ("func", src, alias.name)


class CallGraph:
    """Index of module-level functions plus per-scope import maps."""

    def __init__(self) -> None:
        # dotted module -> {function name -> FunctionInfo}
        self.modules: dict[str, dict[str, FunctionInfo]] = {}
        # dotted module -> module-level import map
        self.imports: dict[str, _ImportMap] = {}

    # -- construction ---------------------------------------------------

    def index_file(self, sf: SourceFile) -> None:
        funcs: dict[str, FunctionInfo] = {}
        imap = _ImportMap()
        for stmt in sf.tree.body:
            if isinstance(stmt, ast.FunctionDef):
                funcs[stmt.name] = _function_info(sf.module, stmt)
            elif isinstance(stmt, ast.AsyncFunctionDef):
                funcs[stmt.name] = _function_info(sf.module, stmt)  # type: ignore[arg-type]
            elif isinstance(stmt, ast.Import):
                imap.add_import(stmt)
            elif isinstance(stmt, ast.ImportFrom):
                imap.add_import_from(stmt, sf.module)
        self.modules[sf.module] = funcs
        self.imports[sf.module] = imap

    # -- lookup ---------------------------------------------------------

    def _find_module(self, dotted: str) -> Optional[str]:
        """Exact dotted match, else unambiguous dotted-suffix match."""
        if dotted in self.modules:
            return dotted
        tails = [m for m in self.modules if m.endswith("." + dotted)]
        if len(tails) == 1:
            return tails[0]
        heads = [m for m in self.modules if dotted.endswith("." + m)]
        if len(heads) == 1:
            return heads[0]
        return None

    def _lookup(self, module: str, symbol: str) -> Optional[FunctionInfo]:
        real = self._find_module(module)
        if real is None:
            return None
        return self.modules[real].get(symbol)

    def resolve_call(
        self,
        sf: SourceFile,
        call: ast.Call,
        local_imports: Optional[_ImportMap] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call to an indexed module-level function, or None."""
        maps = [local_imports] if local_imports is not None else []
        maps.append(self.imports.get(sf.module, _ImportMap()))
        func = call.func
        if isinstance(func, ast.Name):
            # same-module definition wins over an (impossible) import shadow
            own = self.modules.get(sf.module, {}).get(func.id)
            if own is not None:
                return own
            for m in maps:
                bound = m.bindings.get(func.id)
                if bound is None:
                    continue
                if bound[0] == "func":
                    return self._lookup(bound[1], bound[2])
                return None  # a module object called like a function: not ours
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            for m in maps:
                bound = m.bindings.get(func.value.id)
                if bound is None:
                    continue
                if bound[0] == "module":
                    return self._lookup(bound[1], func.attr)
                return None
        return None

    @staticmethod
    def local_imports(func: ast.FunctionDef, module: str) -> _ImportMap:
        """Imports written inside a function body (the engines' lazy
        ``from .faults import ...`` dispatch pattern)."""
        imap = _ImportMap()
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                imap.add_import(node)
            elif isinstance(node, ast.ImportFrom):
                imap.add_import_from(node, module)
        return imap


def build_call_graph(files: Sequence[SourceFile]) -> CallGraph:
    graph = CallGraph()
    for sf in files:
        graph.index_file(sf)
    return graph
