"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve        run the Theorem 4.1 agent on a generated tree
baseline     run the arbitrary-delay baseline under a chosen delay
delays       decide every delay θ ≤ Θ in one batch-solver pass
atlas        feasibility classification over all trees of a given size;
             subcommands ``init|import|stats|export|vacuum`` manage the
             durable atlas database (SQLite, spec_hash-memoized)
atlas-programs  the program memory atlas (lowered → minimized → γ → gaps)
gap          print the headline exponential-gap table (E7)
thm31        build + certify the Theorem 3.1 adversary for a walker family
thm42        build + certify the Theorem 4.2 adversary
thm43        build + certify the Theorem 4.3 adversary
verify       exhaustive Theorem 4.1 / Fact 1.1 verification
gather       gather k identical agents (the extension of §1.3)
gather-sweep decide a k-agent gathering grid (joint-configuration solver)
lower        lower a register program to explicit automata / traced tables
viz          render a tree as ASCII art or Graphviz DOT
report       the experiment report as markdown: the registry scenarios
             behind E1, E3a, E3b, E4, E7 and the program atlas, each
             table with one line read off its summary
experiments  print the same tables without the markdown
scenarios    list / run / diff declarative scenarios (the registry)
telemetry    summarize a JSONL telemetry event stream offline

The experiment-shaped commands (``delays``, ``atlas``,
``atlas-programs``, ``gap``, ``thm31``, ``thm42``, ``thm43``,
``verify``, ``report``, ``experiments``) are
aliases over the scenario registry (:mod:`repro.scenarios`): they build
or fetch a :class:`~repro.scenarios.spec.ScenarioSpec` and execute it
through the shared :class:`~repro.scenarios.runner.Runner`, so the CLI,
the benchmarks and programmatic callers all run the same code path.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Sequence
from typing import Optional

from .scenarios.spec import ScenarioError
from .scenarios.spec import build_tree as _build_tree
from .trees import Tree, random_relabel

__all__ = ["main", "build_tree"]


def build_tree(spec: str, seed: int = 0) -> Tree:
    """Parse a tree spec (see :func:`repro.scenarios.spec.build_tree`)."""
    try:
        return _build_tree(spec, seed)
    except ScenarioError as exc:
        raise SystemExit(str(exc))


def _runner(args: argparse.Namespace):
    from .scenarios import Runner

    return Runner(backend=getattr(args, "backend", None))


def _cmd_solve(args: argparse.Namespace) -> int:
    from .analysis import classify_pair
    from .core import solve

    tree = build_tree(args.tree, args.seed)
    if args.relabel:
        tree = random_relabel(tree, random.Random(args.seed))
    pc = classify_pair(tree, args.u, args.v)
    print(f"{tree}; pair ({args.u}, {args.v}): {pc.kind}")
    if not pc.feasible:
        print("infeasible (perfectly symmetrizable): no identical agents can meet")
        return 1
    result = solve(tree, args.u, args.v, max_outer=args.max_outer)
    print(
        f"met={result.met} round={result.outcome.meeting_round} "
        f"node={result.outcome.meeting_node}"
    )
    return 0 if result.met else 2


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .core import solve_with_delay

    tree = build_tree(args.tree, args.seed)
    if args.relabel:
        tree = random_relabel(tree, random.Random(args.seed))
    result = solve_with_delay(tree, args.u, args.v, args.delay, delayed=args.delayed)
    print(
        f"{tree}; delay={args.delay} on agent {args.delayed}: "
        f"met={result.met} round={result.outcome.meeting_round}"
    )
    return 0 if result.met else 2


def _fault_params(specs) -> dict:
    """``--fault`` occurrences -> a ``faults`` param (JSON form), or {}."""
    if not specs:
        return {}
    from .sim.faults import FaultPlan

    plan = FaultPlan.parse_many(specs)
    return {"faults": plan.to_json()} if plan else {}


def _cmd_delays(args: argparse.Namespace) -> int:
    from .scenarios import DelayPolicy, ScenarioSpec

    spec = ScenarioSpec(
        name="delays-cli",
        kind="delay_sweep",
        tree=args.tree,
        agent=args.agent,
        pairs=((args.u, args.v),),
        delays=DelayPolicy.sweep(args.max_delay),
        seed=args.seed,
        params={"relabel": args.relabel, **_fault_params(args.fault)},
    )
    result = _runner(args).run(spec)
    met = result.summary["met"]
    tree = build_tree(args.tree, args.seed)
    print(
        f"{tree}; agent {args.agent}; pair ({args.u}, {args.v}); "
        f"θ = 0..{args.max_delay} ({len(result.rows)} adversary choices, "
        f"{met} met / {len(result.rows) - met} certified-never)"
    )
    print(f"{'delay':>7} {'delayed':>8} {'verdict':>16} {'round':>7}")
    for row in result.rows:
        rnd = row["round"] if row["round"] is not None else "-"
        print(f"{row['delay']:>7} {row['delayed']:>8} {row['verdict']:>16} {rnd:>7}")
    return 0 if result.summary["all_met"] else 2


def _cmd_atlas(args: argparse.Namespace) -> int:
    result = _runner(args).run("atlas", params={"n": args.n})
    print(result.table())
    return 0


def _cmd_atlas_db(args: argparse.Namespace) -> int:
    """The durable atlas database: ``repro atlas init|import|stats|
    export|vacuum``.  One SQLite file (WAL, versioned schema) keyed by
    ``spec_hash`` — the memoization substrate behind
    ``scenarios run --atlas``."""
    from .scenarios.atlas import AtlasStore, import_paths

    with AtlasStore(args.db) as store:
        if args.atlas_cmd == "init":
            # Opening is initializing (and migrating, when handed an
            # older schema) — print where it landed.
            print(f"atlas {store.path}: schema v{store.schema_version}, "
                  f"{len(store.names())} results")
            return 0

        if args.atlas_cmd == "import":
            names = import_paths(store, args.paths)
            for name in names:
                print(f"imported {name}")
            print(f"atlas {store.path}: {len(names)} results imported")
            return 0

        if args.atlas_cmd == "stats":
            stats = store.stats()
            for key in ("path", "schema_version", "results",
                        "distinct_spec_hashes", "db_bytes"):
                print(f"{key:>22}: {stats[key]}")
            for group in ("by_kind", "by_backend"):
                for key, n in stats[group].items():
                    print(f"{group + '/' + key:>22}: {n}")
            return 0

        if args.atlas_cmd == "export":
            names = store.names() if args.all else args.names
            if not names:
                raise SystemExit(
                    "error: atlas export needs result NAMEs or --all"
                )
            for name in names:
                print(f"wrote {store.export(name, args.out)}")
            return 0

        if args.atlas_cmd == "vacuum":
            before = store.stats()["db_bytes"]
            store.vacuum()
            print(f"atlas {store.path}: vacuumed "
                  f"({before} -> {store.stats()['db_bytes']} bytes, "
                  f"integrity ok)")
            return 0

    raise SystemExit(f"unknown atlas subcommand {args.atlas_cmd!r}")


def _cmd_atlas_programs(args: argparse.Namespace) -> int:
    """The program memory atlas: one row per (library register program,
    tree) — raw lowered states → minimized states → memory bits →
    circuit structure → gap against the lower-bound floors."""
    result = _runner(args).run("atlas-programs")
    print(result.table())
    s = result.summary
    print(
        f"\n{s['cells']} cells over {s['programs']} programs "
        f"(routes {'/'.join(s['routes'])}): {s['shrunk']} minimized strictly, "
        f"{s['states_dropped']} states dropped"
    )
    return 0 if result.ok else 1


def _cmd_gap(args: argparse.Namespace) -> int:
    subdivisions = [int(x) for x in args.subdivisions.split(",")]
    result = _runner(args).run("gap-table", params={"subdivisions": subdivisions})
    print(result.table())
    return 0 if result.ok else 1


def _cmd_thm31(args: argparse.Namespace) -> int:
    result = _runner(args).run(
        "thm31-sweep", params={"ks": list(range(1, args.max_k + 1))}
    )
    print(result.table())
    return 0 if result.ok else 1


def _cmd_thm42(args: argparse.Namespace) -> int:
    result = _runner(args).run(
        "thm42-sweep", params={"max_pause": args.max_pause}
    )
    print(result.table())
    return 0 if result.ok else 1


def _cmd_thm43(args: argparse.Namespace) -> int:
    result = _runner(args).run(
        "thm43",
        seed=args.seed,
        params={"states": args.states, "i_leaves": [args.i]},
    )
    (row,) = result.rows
    if row.get("error"):
        print(f"no defeating instance: {row['error']}")
        return 1
    print(
        f"agent: {row['states']} states; ℓ = {row['ell']}; "
        f"two-sided tree n = {row['n']}; certified = {row['certified']}"
    )
    print(f"side 1 choices: {row['side1']}")
    print(f"side 2 choices: {row['side2']}")
    return 0 if result.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    print(f"Theorem 4.1 exhaustive check up to n = {args.n} ...")
    result = _runner(args).run(
        "verify-small", params={"max_n": args.n, "labelings": args.labelings}
    )
    for row in result.rows:
        if row["check"] == "fact11":
            print("Fact 1.1 impossibility check (observational) ...")
        print(f"  trees: {row['trees']}, instances: {row['instances']}, "
              f"failures: {row['failures']}")
        if row["check"] == "thm41" and row["failures"]:
            return 1
    return 0 if result.ok else 1


def _cmd_gather_sweep(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioSpec

    start_sets = [
        [int(x) for x in chunk.split(",")] for chunk in args.starts.split(";")
    ]
    delay_vectors = [
        [int(x) for x in chunk.split(",")] for chunk in args.delays.split(";")
    ]
    spec = ScenarioSpec(
        name="gather-sweep-cli",
        kind="gathering_sweep",
        tree=args.tree,
        agent=args.agent,
        seed=args.seed,
        params={
            "start_sets": start_sets, "delay_vectors": delay_vectors,
            **_fault_params(args.fault),
        },
    )
    result = _runner(args).run(spec)
    print(result.table())
    s = result.summary
    print(
        f"\n{s['choices']} adversary choices: {s['met']} met / "
        f"{s['certified_never']} certified-never / {s['undecided']} undecided"
    )
    # 0/1 like `scenarios run`: not-ok means a choice was left undecided
    # (argparse reserves 2 for usage errors)
    return 0 if result.ok else 1


def _cmd_gather(args: argparse.Namespace) -> int:
    from .core import gather

    tree = build_tree(args.tree, args.seed)
    if args.relabel:
        tree = random_relabel(tree, random.Random(args.seed))
    starts = [int(x) for x in args.starts.split(",")]
    delays = [int(x) for x in args.delays.split(",")] if args.delays else None
    outcome, regime = gather(tree, starts, delays=delays)
    print(f"{tree}; regime: {regime.kind} (guaranteed: {regime.guaranteed})")
    print(f"gathered={outcome.gathered} round={outcome.gathering_round} "
          f"node={outcome.gathering_node}")
    return 0 if outcome.gathered else 2


def _cmd_lower(args: argparse.Namespace) -> int:
    """Lower an agent onto the compiled backend's representations.

    Route A (tree-independent): enumerate reachable machine states into
    an explicit automaton.  Route B (per tree, per start): trace the
    solo run from every start node into a lassoed action table.  Both
    print state counts and memory bits; failures print the reason and
    degrade — never a crash.
    """
    from .agents.lowering import lower_to_automaton
    from .errors import BudgetExceededError, LoweringError
    from .scenarios.spec import build_agent
    from .sim.compiled import supports_compilation
    from .sim.traced import ensure_lasso, solo_trace

    try:
        agent = build_agent(args.agent, args.seed)
    except (ScenarioError, ValueError) as exc:
        # ValueError: malformed numeric argument, e.g. "counting" sans :K
        raise SystemExit(f"error: bad agent spec {args.agent!r}: {exc}")
    tree = build_tree(args.tree, args.seed)
    support = supports_compilation(agent)
    print(f"agent {args.agent!r} on {tree}: {support or 'reference-only'}")

    if support == "native":
        print(
            f"already an explicit automaton: K={agent.num_states} states, "
            f"{agent.memory_bits} bits"
        )
        return 0
    if support != "lowerable":
        print("not lowerable: arbitrary duck-typed agents ride the reference engine")
        return 1

    # Route A: explicit automaton over the tree's degree alphabet.
    try:
        automaton = lower_to_automaton(
            agent, tree.degrees(), state_budget=args.state_budget
        )
        print(
            f"route A (explicit automaton): K={automaton.num_states} states, "
            f"{automaton.memory_bits} bits over degrees "
            f"{sorted(set(tree.degrees()))}"
        )
    # repro-lint: disable=RPR002 -- CLI diagnostics: `repro lower` exists to report expressibility, so the refusal IS the output (printed verbatim), not a swallowed degrade decision
    except (LoweringError, BudgetExceededError) as exc:
        print(f"route A (explicit automaton): not expressible — {exc}")

    # Route B: per-(tree, start) traced tables.
    print(f"route B (solo-run traces, budget {args.trace_budget} rounds):")
    total_states = 0
    lassoed = 0
    for start in range(tree.n):
        trace = solo_trace(tree, agent, start)
        try:
            ensure_lasso(trace, args.trace_budget)
        # repro-lint: disable=RPR002 -- CLI diagnostics: per-start lasso budget refusal is printed verbatim as the command's answer
        except BudgetExceededError:
            print(f"  start {start:>3}: no lasso within budget (degrades to "
                  f"the reference engine)")
            continue
        lassoed += 1
        states = trace.rounds_recorded
        total_states += states
        bits = max(1, (states - 1).bit_length())
        if trace.status == "finished":
            shape = f"finishes after {states} rounds"
        else:
            shape = (
                f"prefix {trace.cycle_start} + cycle {trace.cycle_len}"
            )
        print(f"  start {start:>3}: {states:>6} states, {bits:>2} bits ({shape})")
    print(
        f"lowered {lassoed}/{tree.n} starts; total table states: {total_states}"
    )
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from .trees import ascii_tree, to_dot

    tree = build_tree(args.tree, args.seed)
    if args.relabel:
        tree = random_relabel(tree, random.Random(args.seed))
    marks = {}
    if args.marks:
        for item in args.marks.split(","):
            node, _, label = item.partition("=")
            marks[int(node)] = label or "*"
    if args.dot:
        print(to_dot(tree, marks=marks))
    else:
        print(ascii_tree(tree, marks=marks))
    return 0


def _cmd_lint_invariants(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report, run_sections

    sections = run_sections(_runner(args), quick=not args.full)
    text = generate_report(sections)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0 if all(result.ok for _, result, _ in sections) else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Print the report's tables (:mod:`repro.analysis.report`'s plan)."""
    from .analysis.report import run_sections

    sections = run_sections(_runner(args), quick=args.quick)
    for idx, (heading, result, _) in enumerate(sections):
        prefix = "" if idx == 0 else "\n"
        print(f"{prefix}# {heading}")
        print(result.table())
    return 0 if all(result.ok for _, result, _ in sections) else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .scenarios import (
        ResultStore,
        Runner,
        get_scenario,
        scenario_names,
    )

    if args.scenarios_cmd == "list":
        from .scenarios.executors import spec_eligibility

        names = scenario_names()
        width = max(len(n) for n in names)
        kind_w = max(len(get_scenario(n).kind) for n in names)
        # backend eligibility: native (automata, compiled directly),
        # lowerable (register programs, compiled via lowering),
        # agnostic (the kind never consults a backend)
        elig = {name: spec_eligibility(get_scenario(name)) for name in names}
        elig_w = max(len(e) for e in elig.values())
        for name in names:
            spec = get_scenario(name)
            print(
                f"{name:<{width}}  {spec.kind:<{kind_w}}  "
                f"{elig[name]:<{elig_w}}  {spec.description}"
            )
        return 0

    if args.scenarios_cmd == "run":
        import json as _json

        params = {}
        for item in args.set or []:
            key, eq, value = item.partition("=")
            if not eq or not key:
                raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
            try:
                params[key] = _json.loads(value)
            except ValueError:
                params[key] = value
        telem = None
        sink = None
        if args.telemetry is not None:
            from .telemetry import JsonlSink, Telemetry

            if args.telemetry is not True:
                sink = JsonlSink(args.telemetry)
            telem = Telemetry(sink=sink)
        atlas_store = None
        if args.atlas is not None:
            from .scenarios.atlas import DEFAULT_ATLAS_PATH, AtlasStore

            atlas_store = AtlasStore(
                DEFAULT_ATLAS_PATH if args.atlas is True else args.atlas
            )
        runner = Runner(
            backend=args.backend, processes=args.processes, atlas=atlas_store
        )
        result = runner.run(
            args.name, seed=args.seed, params=params or None, telemetry=telem
        )
        print(result.table())
        atlas_note = ""
        if atlas_store is not None:
            atlas_note = (
                f" atlas={'hit' if result.cached_payload is not None else 'miss'}"
            )
        print(
            f"\nscenario={result.name} kind={result.spec.kind} "
            f"backend={result.backend} rows={len(result.rows)} "
            f"ok={result.ok} elapsed={result.elapsed_seconds:.3f}s "
            f"spec_hash={result.spec_hash()}{atlas_note}"
        )
        if telem is not None:
            from .scenarios.runner import format_rows
            from .telemetry import summary_rows

            if sink is not None:
                sink.close()
                print(f"telemetry events: {args.telemetry}")
            # The *live* snapshot, not the payload block: an atlas hit
            # returns the stored payload verbatim (whose telemetry, if
            # any, describes the original run), while this table must
            # describe what just happened — the atlas.hit event and the
            # absence of any backend dispatch.
            print("\n# telemetry")
            print(format_rows(summary_rows(telem.snapshot())))
        if atlas_store is not None:
            atlas_store.close()
        if args.save:
            path = ResultStore(args.out).save(result)
            print(f"wrote {path}")
        return 0 if result.ok else 1

    if args.scenarios_cmd == "diff":
        store = ResultStore(args.out)
        diffs = store.diff(args.a, args.b)
        if not diffs:
            print("results are equivalent (same spec, same outcome table)")
            return 0
        for line in diffs:
            print(line)
        return 1

    raise SystemExit(f"unknown scenarios subcommand {args.scenarios_cmd!r}")


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Aggregate a JSONL telemetry event stream offline (``--telemetry=PATH``
    output from ``scenarios run``) into the same summary table the live
    run prints.  Torn tails are skipped, not fatal — the stream may come
    from an interrupted run."""
    from .scenarios.runner import format_rows
    from .telemetry import aggregate_events, read_events, summary_rows

    if args.telemetry_cmd == "report":
        records, skipped = read_events(args.path)
        if not records and skipped == 0:
            print(f"no telemetry events in {args.path}")
            return 1
        snapshot = aggregate_events(records)
        print(format_rows(summary_rows(snapshot)))
        print(f"\n{len(records)} events from {args.path}"
              + (f" ({skipped} unparseable lines skipped)" if skipped else ""))
        return 0

    raise SystemExit(f"unknown telemetry subcommand {args.telemetry_cmd!r}")


def _add_backend_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=("auto", "reference", "compiled", "batched"),
        default=None,
        help="simulation backend (default: the scenario's own hint)",
    )


def _add_fault_option(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a fault (repeatable): crash:AGENT@ROUND, "
             "pause:AGENT@ROUND:DURATION, relabel@ROUND:SEED "
             "(agents are 0-based)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Fraigniaud-Pelc (SPAA 2010): rendezvous in trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the Theorem 4.1 agent")
    p.add_argument("--tree", default="binary:3", help="tree spec, e.g. line:9")
    p.add_argument("-u", type=int, default=7)
    p.add_argument("-v", type=int, default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relabel", action="store_true", help="random port labeling")
    p.add_argument("--max-outer", type=int, default=10, dest="max_outer")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("baseline", help="run the arbitrary-delay baseline")
    p.add_argument("--tree", default="line:9")
    p.add_argument("-u", type=int, default=1)
    p.add_argument("-v", type=int, default=5)
    p.add_argument("--delay", type=int, default=7)
    p.add_argument("--delayed", type=int, default=2, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relabel", action="store_true")
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser(
        "delays",
        help="decide every delay θ ≤ Θ at once (compiled batch solver)",
    )
    p.add_argument("--tree", default="line:9")
    p.add_argument("--agent", default="alternator",
                   help="alternator | counting:K | pausing:P | random:K")
    p.add_argument("-u", type=int, default=0)
    p.add_argument("-v", type=int, default=5)
    p.add_argument("--max-delay", type=int, default=16, dest="max_delay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relabel", action="store_true")
    _add_fault_option(p)
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_delays)

    # atlas/experiments wrap backend-agnostic analysis drivers; they take
    # no --backend since the flag would be a no-op.  The bare command
    # keeps its historical meaning (the feasibility table); the durable
    # atlas *database* lives behind the subcommands.
    p = sub.add_parser(
        "atlas",
        help="feasibility atlas over all n-node trees; with a subcommand, "
             "manage the durable atlas database",
    )
    p.add_argument("-n", type=int, default=7)
    p.set_defaults(fn=_cmd_atlas)
    asub = p.add_subparsers(dest="atlas_cmd", required=False)

    def _atlas_db_parser(name: str, help_: str):
        ap = asub.add_parser(name, help=help_)
        ap.add_argument("--db", default="benchmarks/atlas.sqlite",
                        help="atlas database path")
        ap.set_defaults(fn=_cmd_atlas_db)
        return ap

    _atlas_db_parser("init", "create (or migrate) the atlas database")
    ap = _atlas_db_parser("import", "bulk-import loose result JSON")
    ap.add_argument("paths", nargs="+",
                    help="result JSON files and/or directories "
                         "(directories are walked recursively)")
    _atlas_db_parser("stats", "row counts, schema version, file size")
    ap = _atlas_db_parser("export", "write rows back to loose JSON "
                                    "(byte-identical)")
    ap.add_argument("names", nargs="*", help="result names to export")
    ap.add_argument("--all", action="store_true", help="export every row")
    ap.add_argument("--out", default="benchmarks/results",
                    help="destination directory")
    _atlas_db_parser("vacuum", "checkpoint the WAL, compact, verify integrity")

    p = sub.add_parser(
        "atlas-programs",
        help="program memory atlas: minimized lowered automata + bound gaps",
    )
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_atlas_programs)

    p = sub.add_parser("gap", help="the headline gap table")
    p.add_argument("--subdivisions", default="0,1,3,7")
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("thm31", help="Theorem 3.1 adversary sweep")
    p.add_argument("--max-k", type=int, default=4, dest="max_k")
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_thm31)

    p = sub.add_parser("thm42", help="Theorem 4.2 adversary sweep")
    p.add_argument("--max-pause", type=int, default=3, dest="max_pause")
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_thm42)

    p = sub.add_parser("thm43", help="Theorem 4.3 adversary")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("-i", type=int, default=5, help="ℓ = 2i leaves")
    p.add_argument("--seed", type=int, default=41)
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_thm43)

    p = sub.add_parser("verify", help="exhaustive Thm 4.1 / Fact 1.1 verification")
    p.add_argument("-n", type=int, default=6)
    p.add_argument("--labelings", type=int, default=1)
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "lower",
        help="lower a register program to explicit automata / traced tables",
    )
    p.add_argument("agent", help="agent spec, e.g. baseline | thm41:2 | counting:2")
    p.add_argument("--tree", default="star:4", help="tree spec, e.g. line:9")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state-budget", type=int, default=2048, dest="state_budget",
                   help="route-A reachable-state budget")
    p.add_argument("--trace-budget", type=int, default=100_000, dest="trace_budget",
                   help="route-B per-start lasso budget (rounds)")
    p.set_defaults(fn=_cmd_lower)

    p = sub.add_parser(
        "gather-sweep",
        help="decide a k-agent gathering grid (joint-configuration solver)",
    )
    p.add_argument("--tree", default="line:9")
    p.add_argument("--agent", default="counting:2",
                   help="alternator | counting:K | pausing:P | tree-random:K")
    p.add_argument("--starts", default="0,1,3;0,2,4",
                   help="';'-separated start sets, e.g. 0,1,3;0,2,4")
    _add_fault_option(p)
    p.add_argument("--delays", default="0,0,0;0,1,2",
                   help="';'-separated per-agent delay vectors")
    p.add_argument("--seed", type=int, default=0)
    _add_backend_option(p)
    p.set_defaults(fn=_cmd_gather_sweep)

    p = sub.add_parser("gather", help="gather k identical agents")
    p.add_argument("--tree", default="spider:2,3,4")
    p.add_argument("--starts", default="1,4,8")
    p.add_argument("--delays", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relabel", action="store_true")
    p.set_defaults(fn=_cmd_gather)

    p = sub.add_parser("viz", help="render a tree (ASCII, or DOT with --dot)")
    p.add_argument("--tree", default="binary:2")
    p.add_argument("--marks", default="", help="e.g. 3=agent1,6=agent2")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relabel", action="store_true")
    p.set_defaults(fn=_cmd_viz)

    p = sub.add_parser(
        "lint-invariants",
        help="certify the engine's cross-layer code contracts (RPR001-RPR006)",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-rules", action="store_true")
    p.set_defaults(fn=_cmd_lint_invariants)

    p = sub.add_parser("report", help="regenerate the experiment report (markdown)")
    p.add_argument("--full", action="store_true", help="every scenario at its registered params")
    p.add_argument("-o", "--output", default="", help="write to a file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("experiments", help="run the main experiment tables")
    p.add_argument("--quick", action="store_true", help="small grids (smoke)")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("scenarios", help="the declarative scenario registry")
    ssub = p.add_subparsers(dest="scenarios_cmd", required=True)

    sp = ssub.add_parser("list", help="list registered scenarios")
    sp.set_defaults(fn=_cmd_scenarios)

    sp = ssub.add_parser("run", help="run a registered scenario")
    sp.add_argument("name")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a spec param (JSON value)")
    sp.add_argument("--save", action="store_true",
                    help="persist the JSON result to the result store")
    sp.add_argument("--out", default="benchmarks/results",
                    help="result store directory (with --save / diff)")
    sp.add_argument("--processes", type=int, default=None,
                    help="process pool size for the batched backend")
    sp.add_argument("--telemetry", nargs="?", const=True, default=None,
                    metavar="PATH",
                    help="collect telemetry and print a summary table; "
                         "with PATH, also stream events to a JSONL file")
    sp.add_argument("--atlas", nargs="?", const=True, default=None,
                    metavar="PATH",
                    help="memoize through the durable atlas database "
                         "(default benchmarks/atlas.sqlite): return the "
                         "stored result on a spec_hash hit, record the "
                         "result on a miss")
    _add_backend_option(sp)
    sp.set_defaults(fn=_cmd_scenarios)

    sp = ssub.add_parser("diff", help="diff two stored results")
    sp.add_argument("a", help="result name or JSON path")
    sp.add_argument("b", help="result name or JSON path")
    sp.add_argument("--out", default="benchmarks/results")
    sp.set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("telemetry", help="inspect telemetry event streams")
    tsub = p.add_subparsers(dest="telemetry_cmd", required=True)

    tp = tsub.add_parser("report", help="summarize a JSONL event stream")
    tp.add_argument("path", help="JSONL file from scenarios run --telemetry=PATH")
    tp.set_defaults(fn=_cmd_telemetry)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        # scenario-layer misuse (unknown spec/scenario/backend) is user
        # error: one clean line, not a traceback
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
