"""Command-line interface for the layered timing-testing framework.

Eleven sub-commands cover the everyday workflows on the registered
case-study systems (the GPCA pump by default)::

    python -m repro verify    [--extended]
    python -m repro codegen   [--extended] [--output FILE]
    python -m repro rtest     --scheme {1,2,3} [--samples N] [--seed S]
                              [--m-test] [--json FILE] [--csv FILE]
                              [--m-json FILE]
    python -m repro table1    [--samples N] [--output FILE]
    python -m repro campaign  [--grid NAME] [--workers N] [--samples N]
                              [--seed S] [--json FILE] [--csv FILE]
                              [--store DB] [--resume]
    python -m repro systems   [--list] [--json FILE]
    python -m repro explore   [--scheme {1,2,3}] [--system ID] [--model NAME]
                              [--episodes N] [--seed S] [--json FILE]
    python -m repro faults    [--samples N] [--workers N] [--seed S]
                              [--system ID] [--model NAME] [--hunt N]
                              [--list] [--json FILE] [--store DB] [--resume]
    python -m repro profile   [--grid NAME] [--index I] [--samples N]
                              [--seed S] [--timeline FILE] [--list]
    python -m repro store     {list | runs | diff | export} --db DB ...
    python -m repro serve     --store DB [--host HOST] [--port PORT] [--quiet]

Every command prints its report to stdout; the optional file arguments
additionally write machine-readable artefacts (JSON/CSV/C source/text).
``repro campaign`` runs a whole R-/M-testing grid — optionally sharded across
worker processes (``--workers 0`` auto-detects one worker per schedulable
CPU) — on the generated Python CODE(M); its aggregate is byte-identical for
any worker count, so ``--json`` at ``--workers 1`` and ``--workers N`` can be
compared with ``cmp``.
``repro systems`` lists the registered system packs (:mod:`repro.systems`);
``explore`` and ``faults`` take ``--system`` to aim at any registered pack.
``repro explore`` runs the seeded coverage-guided scenario generator
(:mod:`repro.scenarios`): it samples scenario programs, executes them against
one implementation scheme and steers generation toward uncovered model
transitions, printing the per-episode log and the final coverage summary.
``repro faults`` runs the fault-injection / mutation-analysis kill matrix
(:mod:`repro.faults`): the pack's seeded fault suite and the generated model
mutants fanned against its requirement scenarios, with ``--hunt`` aiming
the coverage-guided survivor hunter at any mutants the fixed scenarios miss.

Persistence (:mod:`repro.store`): ``--store DB`` on ``campaign``/``faults``
records every run and a campaign snapshot into a SQLite run store, and
``--resume`` re-executes only the grid points the store has never seen
(reassembled aggregates are byte-identical to cold runs); a store-backed
run also persists its live progress there.  ``repro store`` inspects a
store — ``list`` (snapshots), ``runs`` (stored runs), ``diff`` (regression
analysis between two snapshots), ``export`` (Table I / CSV from a
snapshot) — and ``repro serve`` exposes it as a JSON HTTP API with ETag
caching, live ``/metrics`` (JSON or Prometheus text) and
``/progress/<name>`` campaign progress, plus one structured JSON log line
per request (silence with ``--quiet``).  ``repro profile`` executes one grid
coordinate with the span tracer attached (:mod:`repro.obs`) and writes a
Chrome-trace timeline that opens in ``chrome://tracing`` or Perfetto; the
profiled record is byte-identical to the equivalent campaign run.
``repro --version`` prints the installed package version.

Exit codes, shared by every sub-command:

* ``0`` — the command completed; for ``verify``/``rtest`` this additionally
  means the model/scheme conformed.  Campaign-style commands (``campaign``,
  ``faults``) return 0 on *completion* — violating schemes and killed
  mutants are the paper's expected outcome, not an error.
* ``1`` — the command ran but the verdict was negative (``verify`` found an
  unmet requirement, ``rtest`` found violations, ``store diff`` found
  regressions with ``--fail-on-regression``) or a runtime precondition
  failed (e.g. an unknown snapshot id, a snapshot with no Table I at the
  requested case, a ``store``/``serve`` path that holds no run store).
* ``2`` — usage error: unknown flag or value rejected by validation
  (argparse also uses 2 for parse failures), including an output path
  that names a directory or a file in a directory that does not exist,
  which is rejected before anything runs.

Start-up: each handler imports the layers it runs, and the parser is built
from constants (the pack table in :mod:`repro.systems.base` and
:data:`GRIDS`), so ``--version``, argument parsing and usage errors load no
simulation code, and a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .systems.base import ALL_SCHEMES, DEFAULT_SYSTEM, generic_scheme_name, get_pack, iter_packs, pack_ids

if TYPE_CHECKING:
    from .store.store import RunStore

#: The stock grids ``campaign --grid`` and ``profile --grid`` accept: the
#: names of :data:`repro.campaign.spec.PRESETS`, spelled out here so that
#: building the parser loads no campaign code (``tests/core/test_cli.py``
#: checks that the two agree).
GRIDS = ("table1", "periods", "interference", "full", "scenarios")


def package_version() -> str:
    """The installed distribution's version, falling back to the module's."""
    try:
        from importlib import metadata

        return metadata.version("repro-layered-timing")
    except Exception:
        from . import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: looks the version up only when the flag is given."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, default=argparse.SUPPRESS, help=None):
        super().__init__(option_strings, dest=dest, default=default, nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {package_version()}")
        parser.exit()


def _chart_for(extended: bool):
    from .gpca.model import build_extended_statechart, build_fig2_statechart

    return build_extended_statechart() if extended else build_fig2_statechart()


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def cmd_verify(args: argparse.Namespace) -> int:
    """Verify the GPCA timing requirements on the model (Design-Verifier step)."""
    from .gpca.requirements import gpca_requirements
    from .model.verification import BoundedResponseChecker

    chart = _chart_for(args.extended)
    checker = BoundedResponseChecker(chart)
    all_passed = True
    print(f"model: {chart.name}")
    for requirement in gpca_requirements().with_model_counterpart():
        result = checker.check(requirement.to_model_requirement())
        all_passed &= result.passed
        print("  " + result.summary())
    return 0 if all_passed else 1


def cmd_codegen(args: argparse.Namespace) -> int:
    """Generate CODE(M) and print / write its C-like source."""
    from .codegen.generator import generate_code

    artifacts = generate_code(_chart_for(args.extended))
    print(artifacts.summary())
    for warning in artifacts.warnings:
        print(f"  warning: {warning}")
    if args.output:
        Path(args.output).write_text(artifacts.c_source, encoding="utf-8")
        print(f"C source written to {args.output}")
    else:
        print(artifacts.c_source)
    return 0


def cmd_rtest(args: argparse.Namespace) -> int:
    """R-test one implementation scheme against REQ1 (optionally M-test failures)."""
    if args.samples <= 0:
        print("repro rtest: error: sample count must be positive", file=sys.stderr)
        return 2
    if args.m_json and not args.m_test:
        print("repro rtest: error: --m-json needs --m-test", file=sys.stderr)
        return 2
    from functools import partial

    from .core.m_testing import MTestAnalyzer
    from .core.r_testing import execute_r_test
    from .core.report import render_m_report, render_r_report
    from .core.serialization import m_report_to_json, r_report_to_csv, r_report_to_json

    pack = get_pack(DEFAULT_SYSTEM)
    test_case = pack.schedule(
        pack.case_builders["bolus-request"](args.samples), args.seed, pack.default_model
    )
    r_report = execute_r_test(partial(pack.build_system, args.scheme, seed=args.seed), test_case)
    print(render_r_report(r_report))

    m_report = None
    if args.m_test and not r_report.passed:
        analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
        m_report = analyzer.analyze_violations(r_report)
        print()
        print(render_m_report(m_report))

    if args.json:
        Path(args.json).write_text(r_report_to_json(r_report, indent=2), encoding="utf-8")
        print(f"R-test report written to {args.json}")
    if args.csv:
        Path(args.csv).write_text(r_report_to_csv(r_report), encoding="utf-8")
        print(f"sample table written to {args.csv}")
    if args.m_json and m_report is None:
        requirement_id = test_case.requirement.requirement_id
        print(f"no M-test report written: no sample violated {requirement_id}")
    elif args.m_json:
        Path(args.m_json).write_text(m_report_to_json(m_report, indent=2), encoding="utf-8")
        print(f"M-test report written to {args.m_json}")
    return 0 if r_report.passed else 1


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table I across all three implementation schemes."""
    if args.samples <= 0:
        print("repro table1: error: sample count must be positive", file=sys.stderr)
        return 2
    from .campaign.runner import CampaignRunner
    from .campaign.spec import table_one_spec

    spec = table_one_spec(args.samples, case_seed=args.seed)
    rendered = CampaignRunner(spec).run().table_one().render()
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"table written to {args.output}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one grid coordinate: span timeline + per-phase self-time table.

    Executes exactly the run a campaign of the same grid would execute at
    ``--index`` (the record is byte-identical, pinned by the obs test suite),
    with the :mod:`repro.obs` span tracer attached: worker phases
    (codegen → build → execute → analyze) land on the wall-clock lane and
    every scheduler compute segment / deadline miss lands on the simulated
    micro-second lane.  ``--timeline`` writes the Chrome-trace JSON, which
    opens directly in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    from .campaign.spec import preset_spec

    try:
        spec = preset_spec(args.grid, samples=args.samples, seed=args.seed)
    except ValueError as error:
        print(f"repro profile: error: {error}", file=sys.stderr)
        return 2
    runs = spec.expand()
    if args.list:
        print(f"grid {spec.name!r}: {len(runs)} coordinates")
        for run in runs:
            print(f"  {run.index:>4}  scheme{run.scheme}/{run.case:<24} model={run.model}")
        return 0
    if not 0 <= args.index < len(runs):
        print(
            f"repro profile: error: index {args.index} outside grid "
            f"{spec.name!r} (0..{len(runs) - 1})",
            file=sys.stderr,
        )
        return 2
    run_spec = runs[args.index]
    print(
        f"profiling {spec.name!r}[{run_spec.index}]: scheme{run_spec.scheme}/"
        f"{run_spec.case} model={run_spec.model} system={run_spec.system} "
        f"({run_spec.samples} samples)"
    )
    from .campaign.profiler import profile_run

    result = profile_run(run_spec)
    record = result.record
    print(
        f"verdict: {'PASS' if record.passed else 'FAIL'} "
        f"(violations={record.violation_count}, timeouts={record.timeout_count})"
    )
    print()
    print(result.self_time_table())
    if result.counters:
        print()
        print("engine counters:")
        for name in sorted(result.counters):
            print(f"  {name:<28} {result.counters[name]}")
    result.write_timeline(args.timeline)
    print(f"timeline written to {args.timeline} (open in chrome://tracing or Perfetto)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one of the stock R-/M-testing campaign grids, optionally in parallel."""
    if args.workers < 0:
        print("repro campaign: error: worker count cannot be negative", file=sys.stderr)
        return 2
    from .campaign.spec import preset_spec

    try:
        spec = preset_spec(args.grid, samples=args.samples, seed=args.seed)
    except ValueError as error:
        print(f"repro campaign: error: {error}", file=sys.stderr)
        return 2
    if args.resume and not args.store:
        print("repro campaign: error: --resume needs --store", file=sys.stderr)
        return 2

    ran = _run_campaign("campaign", spec, args)
    if ran is None:
        return 1
    result, footer = ran
    print(result.render_summary())
    print(footer)
    if args.grid == "table1":
        print()
        print(result.table_one().render())
    elif args.grid == "periods":
        from .analysis.figures import render_sweep

        print()
        print(render_sweep(result.sweep_points("period_ms"), "period (ms)"))
    elif args.grid == "interference":
        from .analysis.figures import render_sweep

        print()
        print(render_sweep(result.sweep_points("interference_scale"), "interference scale"))

    if args.json:
        Path(args.json).write_text(result.to_json(indent=2) + "\n", encoding="utf-8")
        print(f"campaign result written to {args.json}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv(), encoding="utf-8")
        print(f"campaign summary written to {args.csv}")
    # Violating schemes are an expected campaign outcome (they are the paper's
    # result), so completion — not conformance — determines the exit code.
    return 0


def _run_campaign(command: str, spec, args: argparse.Namespace):
    """Run ``spec`` the way ``repro campaign`` and ``repro faults`` do.

    Opens the ``--store`` (``None`` after printing the error when it is not
    a usable run store), runs the grid on ``--workers`` with ``--resume``,
    closes the store and prints the pool-fallback warning.  Returns the
    result and the footer — the wall-clock line and, with a store, the
    ``store:`` line — that the command prints after its own report.
    """
    from .campaign.runner import CampaignRunner
    from .store.store import RunStore, StoreError

    try:
        store = RunStore(args.store) if args.store else None
    except StoreError as error:
        print(f"repro {command}: error: {error}", file=sys.stderr)
        return None
    try:
        runner = CampaignRunner(spec, workers=args.workers, store=store, resume=args.resume)
        result = runner.run()
    finally:
        if store is not None:
            store.close()
    if runner.fell_back_to_serial:
        print(f"warning: process pool unavailable ({runner.fallback_reason}); ran serially")
    footer = [
        f"wall clock: {result.wall_seconds:.2f} s "
        f"({result.workers} worker{'s' if result.workers != 1 else ''})"
    ]
    if store is not None:
        reuse = f", {runner.reused_count} reused from store" if args.resume else ""
        footer.append(
            f"store: {runner.executed_count} run(s) executed{reuse}; "
            f"snapshot {runner.campaign_id} saved to {args.store}"
        )
    return result, "\n".join(footer)


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection / mutation-analysis kill matrix.

    Expands the default seeded fault suite and the generated model mutants
    into a (faults × mutants × schemes × scenarios) grid, fans it through the
    campaign runner (optionally parallel) and prints the scored kill matrix:
    which requirement scenarios detect each platform fault class, which kill
    each mutant, and the resulting mutation score.  ``--hunt N`` afterwards
    aims the coverage-guided survivor hunter at the mutants the fixed
    scenarios missed.
    """
    if args.samples <= 0:
        print("repro faults: error: sample count must be positive", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("repro faults: error: worker count cannot be negative", file=sys.stderr)
        return 2
    if args.hunt < 0:
        print("repro faults: error: hunt episode count cannot be negative", file=sys.stderr)
        return 2
    from .faults.matrix import KillMatrix, default_matrix_spec

    resolved = _resolve_pack_model("faults", args)
    if resolved is None:
        return 2
    pack, model = resolved
    spec = default_matrix_spec(
        samples=args.samples, base_seed=args.seed, model=model, system=pack.system_id
    )

    if args.list:
        print(f"fault suite of system {pack.system_id!r} ({len(spec.fault_plans)} plans):")
        for plan in spec.fault_plans:
            print(f"  {plan.describe()}")
        print(f"mutants of model {model!r} ({len(spec.mutants)}):")
        for mutant in spec.mutants:
            print(f"  {mutant.mutant_id:<40} {mutant.description}")
        return 0

    if args.resume and not args.store:
        print("repro faults: error: --resume needs --store", file=sys.stderr)
        return 2
    print(
        f"kill matrix: {len(spec.fault_plans)} fault plans x {len(spec.mutants)} mutants "
        f"x schemes {spec.baseline_schemes} x {len(spec.cases)} scenarios "
        f"({spec.size} runs, {args.samples} samples each)"
    )
    ran = _run_campaign("faults", spec, args)
    if ran is None:
        return 1
    result, footer = ran
    matrix = KillMatrix.from_campaign(spec, result)
    print(matrix.render())
    print(footer)

    hunt_report = None
    if args.hunt > 0 and matrix.surviving_mutants():
        from .faults.hunt import SurvivorHunter

        surviving = set(matrix.surviving_mutants())
        survivors = [mutant for mutant in spec.mutants if mutant.mutant_id in surviving]
        hunter = SurvivorHunter(
            pack.scenario_space(),
            survivors,
            scheme=spec.mutant_schemes[0],
            model=model,
            system=pack.system_id,
            seed=args.seed,
        )
        hunt_report = hunter.hunt(args.hunt)
        print()
        print(hunt_report.summary())
    elif args.hunt > 0:
        print("no surviving mutants to hunt")

    if args.json:
        payload = {
            "matrix": matrix.to_dict(),
            "hunt": None if hunt_report is None else hunt_report.to_dict(),
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"kill-matrix report written to {args.json}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv(), encoding="utf-8")
        print(f"per-run summary written to {args.csv}")
    # Like `repro campaign`, completion — not conformance — sets the exit
    # code: killed mutants and detected faults are the *expected* outcome.
    return 0


def _open_existing_store(command: str, path: str) -> Optional[RunStore]:
    """Open the run store at ``path`` for reading, or report why not.

    ``RunStore`` creates a missing file, which a read-only command must not
    do: a mistyped path would print an empty store and leave a new file.
    """
    from .store.store import RunStore, StoreError

    if not Path(path).exists():
        print(f"repro {command}: error: no run store at {path}", file=sys.stderr)
        return None
    try:
        return RunStore(path)
    except StoreError as error:
        print(f"repro {command}: error: {error}", file=sys.stderr)
        return None


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect a persistent run store: snapshots, runs, diffs and exports."""
    from .store.store import StoreError

    store = _open_existing_store("store", args.db)
    if store is None:
        return 1
    try:
        return _store_action(store, args)
    except StoreError as error:
        print(f"repro store: error: {error}", file=sys.stderr)
        return 1
    finally:
        store.close()


def _store_action(store: RunStore, args: argparse.Namespace) -> int:
    counts = store.counts()
    if args.action == "list":
        rows = store.campaign_rows(name=args.name)
        print(
            f"store {args.db}: {counts['runs']} stored run(s), "
            f"{counts['campaigns']} campaign snapshot(s)"
        )
        for row in rows:
            print(
                f"  {row['campaign_id']}  {row['name']:<14} {row['size']:>4} runs  "
                f"{row['created_at']}"
            )
        return 0

    if args.action == "runs":
        try:
            rows = store.run_rows(
                scheme=args.scheme,
                case=args.case,
                system=args.system,
                limit=args.limit,
                offset=args.offset,
                order="slowest" if args.slowest else "newest",
            )
        except ValueError as error:
            print(f"repro store: error: {error}", file=sys.stderr)
            return 2
        order_note = "slowest first" if args.slowest else "newest first"
        print(
            f"store {args.db}: {len(rows)} matching run(s) of {counts['runs']} "
            f"({order_note})"
        )
        for row in rows:
            injected = row["fault_plan"] or row["mutant"] or "-"
            timing = row.get("timing")
            if timing is not None:

                def _fmt(value):
                    return "-" if value is None else f"{value:.2f}"

                phases = "/".join(
                    _fmt(timing.get(key)) for key in ("codegen_s", "execute_s", "analyze_s")
                )
                timed = f"  {_fmt(timing.get('elapsed_s'))}s (c/e/a {phases})"
            else:
                timed = ""
            print(
                f"  {row['key'][:16]}  scheme{row['scheme']}/{row['case']:<22} "
                f"{'PASS' if row['passed'] else 'FAIL':>4}  viol={row['violations']:<3} "
                f"MAX={row['timeouts']:<3} inject={injected}{timed}"
            )
        return 0

    if args.action == "diff":
        from .store.diff import diff_snapshots

        diff = diff_snapshots(store, args.old, args.new, name=args.name)
        print(diff.render())
        if args.json:
            Path(args.json).write_text(
                json.dumps(diff.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"diff report written to {args.json}")
        if args.fail_on_regression and diff.regressions():
            return 1
        return 0

    if args.action == "export":
        campaign_id = store.resolve_campaign_id(args.campaign, name=args.name)
        result = store.load_campaign(campaign_id)
        print(f"snapshot {campaign_id}: campaign {result.spec.name!r}, {len(result)} runs")
        table = None
        if args.table1 or args.table1_csv:
            from .analysis.export import table_one_to_csv, table_one_to_markdown

            # Built before any file is written, so a snapshot with no
            # Table I at this case leaves no partial export behind.
            try:
                table = result.table_one(args.case)
            except LookupError as error:
                print(f"repro store: error: {error}", file=sys.stderr)
                return 1
        if args.json:
            Path(args.json).write_text(result.to_json(indent=2) + "\n", encoding="utf-8")
            print(f"campaign result written to {args.json}")
        if args.csv:
            Path(args.csv).write_text(result.to_csv(), encoding="utf-8")
            print(f"per-run summary written to {args.csv}")
        if args.table1:
            text = (
                table_one_to_markdown(table)
                if args.table1.endswith(".md")
                else table.render() + "\n"
            )
            Path(args.table1).write_text(text, encoding="utf-8")
            print(f"Table I written to {args.table1}")
        if args.table1_csv:
            Path(args.table1_csv).write_text(table_one_to_csv(table), encoding="utf-8")
            print(f"Table I rows written to {args.table1_csv}")
        return 0

    raise AssertionError(f"unhandled store action {args.action!r}")  # pragma: no cover


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a run store as a JSON HTTP API (``repro serve``)."""
    if not 0 <= args.port <= 65535:
        print(f"repro serve: error: port {args.port} outside 0..65535", file=sys.stderr)
        return 2
    store = _open_existing_store("serve", args.store)
    if store is None:
        return 1
    from .store.server import ENDPOINTS, StoreServer

    server = StoreServer(store, host=args.host, port=args.port, verbose=not args.quiet)
    counts = store.counts()
    print(
        f"serving {args.store} ({counts['runs']} runs, {counts['campaigns']} snapshots) "
        f"on {server.url}"
    )
    for endpoint, description in sorted(ENDPOINTS.items()):
        print(f"  GET {endpoint:<16} {description}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive serving
        print("shutting down")
    finally:
        server.shutdown()
        store.close()
    return 0


def _resolve_pack_model(command: str, args: argparse.Namespace):
    """Resolve (pack, model) from --system/--model, or None after a usage error."""
    try:
        pack = get_pack(args.system)
    except ValueError as error:
        print(f"repro {command}: error: {error}", file=sys.stderr)
        return None
    model = args.model if args.model is not None else pack.default_model
    if model not in pack.model_builders:
        known = ", ".join(sorted(pack.model_builders))
        print(
            f"repro {command}: error: unknown model {model!r} for system "
            f"{pack.system_id!r} (known: {known})",
            file=sys.stderr,
        )
        return None
    return pack, model


def cmd_systems(args: argparse.Namespace) -> int:
    """List the registered system packs and their inventory counts."""
    rows = []
    for pack in iter_packs():
        space = pack.scenario_space()
        rows.append(
            {
                "system": pack.system_id,
                "title": pack.title,
                "description": pack.description,
                "default_model": pack.default_model,
                "models": sorted(pack.model_builders),
                "schemes": list(ALL_SCHEMES),
                "cases": sorted(pack.case_builders),
                "requirement_count": len(pack.requirements()),
                "case_count": len(pack.case_builders),
                "model_count": len(pack.model_builders),
                "scheme_count": len(ALL_SCHEMES),
                "scenario_space": {
                    "requirement_count": len(space.requirements),
                    "setup_variable_count": len(space.setup_variables),
                    "teardown_variable_count": len(space.teardown_variables),
                },
            }
        )
    print(f"registered systems ({len(rows)}):")
    for row in rows:
        print(f"  {row['system']:<10} {row['title']} — {row['description']}")
        print(
            f"  {'':<10} models: {', '.join(row['models'])} (default {row['default_model']}); "
            f"schemes: {', '.join(str(s) for s in row['schemes'])}"
        )
        space = row["scenario_space"]
        print(
            f"  {'':<10} {row['requirement_count']} requirements, {row['case_count']} scenarios, "
            f"space: {space['requirement_count']} reqs x "
            f"{space['setup_variable_count']} setup / "
            f"{space['teardown_variable_count']} teardown vars"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps({"systems": rows}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"system inventory written to {args.json}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Run seeded coverage-guided scenario exploration against one scheme.

    Samples scenario programs from the chosen system pack's scenario space,
    executes each compiled program against a fresh system of the requested
    scheme, and biases further sampling toward programs that covered new
    generated transitions.  The whole run is a pure function of the
    arguments, so the same seed always prints the same episode log and
    coverage summary.
    """
    if args.episodes <= 0:
        print("repro explore: error: episode count must be positive", file=sys.stderr)
        return 2
    resolved = _resolve_pack_model("explore", args)
    if resolved is None:
        return 2
    pack, model = resolved
    from .campaign.cache import process_cache
    from .scenarios.explore import CoverageGuidedExplorer

    artifacts = process_cache().artifacts_for_model(model)

    def factory():
        return pack.build_system(
            args.scheme, model=model, seed=args.sut_seed, artifacts=artifacts
        )

    explorer = CoverageGuidedExplorer(
        pack.scenario_space(),
        factory,
        artifacts.code_model,
        seed=args.seed,
        schedule=lambda program, seed: pack.schedule(program, seed, model),
    )
    report = explorer.explore(args.episodes)
    print(f"system: {pack.system_id}, scheme: {generic_scheme_name(args.scheme)}, model: {model}")
    print(report.summary())
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"exploration report written to {args.json}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Layered timing testing for model-based implementations (DATE 2014 reproduction).",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print the installed package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="verify the GPCA requirements on the model")
    verify.add_argument("--extended", action="store_true", help="use the extended GPCA chart")
    verify.set_defaults(handler=cmd_verify)

    codegen = subparsers.add_parser("codegen", help="generate CODE(M) and emit its C source")
    codegen.add_argument("--extended", action="store_true", help="use the extended GPCA chart")
    codegen.add_argument("--output", help="write the C source to this file")
    codegen.set_defaults(handler=cmd_codegen)

    rtest = subparsers.add_parser("rtest", help="R-test one implementation scheme against REQ1")
    rtest.add_argument("--scheme", type=int, choices=sorted(ALL_SCHEMES), required=True)
    rtest.add_argument("--samples", type=int, default=10)
    rtest.add_argument("--seed", type=int, default=7)
    rtest.add_argument("--m-test", action="store_true", help="run M-testing on violating samples")
    rtest.add_argument("--json", help="write the R-test report as JSON")
    rtest.add_argument("--csv", help="write the per-sample table as CSV")
    rtest.add_argument("--m-json", help="write the M-test report as JSON (needs --m-test)")
    rtest.set_defaults(handler=cmd_rtest)

    table1 = subparsers.add_parser("table1", help="regenerate Table I across all schemes")
    table1.add_argument("--samples", type=int, default=10)
    table1.add_argument("--seed", type=int, default=7)
    table1.add_argument("--output", help="write the rendered table to this file")
    table1.set_defaults(handler=cmd_table1)

    profile = subparsers.add_parser(
        "profile",
        help="profile one grid coordinate: Chrome-trace timeline + self-time table",
    )
    profile.add_argument(
        "--grid",
        choices=GRIDS,
        default="table1",
        help="which stock grid the coordinate comes from (default: table1)",
    )
    profile.add_argument(
        "--index",
        type=int,
        default=0,
        help="grid coordinate to profile (default: 0; see --list)",
    )
    profile.add_argument(
        "--samples", type=int, default=None, help="samples per test case (default: grid-specific)"
    )
    profile.add_argument(
        "--seed", type=int, default=None, help="campaign seed (default: grid-specific)"
    )
    profile.add_argument(
        "--timeline",
        default="timeline.json",
        help="write the Chrome-trace timeline here (default: timeline.json)",
    )
    profile.add_argument(
        "--list",
        action="store_true",
        help="list the grid's coordinates (index, scheme, case) without running",
    )
    profile.set_defaults(handler=cmd_profile)

    campaign = subparsers.add_parser(
        "campaign", help="run an R-/M-testing campaign grid (optionally in parallel)"
    )
    campaign.add_argument(
        "--grid",
        choices=GRIDS,
        default="table1",
        help="which stock grid to run (default: table1)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the grid across "
        "(default: 1, serial; 0 = one per schedulable CPU)",
    )
    campaign.add_argument(
        "--samples", type=int, default=None, help="samples per test case (default: grid-specific)"
    )
    campaign.add_argument(
        "--seed", type=int, default=None, help="campaign seed (default: grid-specific)"
    )
    campaign.add_argument("--json", help="write the full campaign aggregate as JSON")
    campaign.add_argument("--csv", help="write the per-run summary as CSV")
    campaign.add_argument(
        "--store",
        help="persist every run and a campaign snapshot into this SQLite run store",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="with --store: execute only grid points the store has never seen",
    )
    campaign.set_defaults(handler=cmd_campaign)

    systems = subparsers.add_parser(
        "systems", help="list the registered system packs (repro.systems)"
    )
    systems.add_argument(
        "--list",
        action="store_true",
        help="print the pack inventory (the default behaviour, for symmetry)",
    )
    systems.add_argument("--json", help="write the pack inventory as JSON")
    systems.set_defaults(handler=cmd_systems)

    explore = subparsers.add_parser(
        "explore",
        help="coverage-guided scenario generation against one implementation scheme",
    )
    explore.add_argument(
        "--scheme",
        type=int,
        choices=sorted(ALL_SCHEMES),
        default=1,
        help="implementation scheme to explore (default: 1, single-threaded)",
    )
    explore.add_argument(
        "--system",
        default=DEFAULT_SYSTEM,
        help=f"registered system pack to explore (default: {DEFAULT_SYSTEM}; "
        f"known: {', '.join(pack_ids())})",
    )
    explore.add_argument(
        "--model",
        default=None,
        help="model whose generated transitions are the coverage target "
        "(default: the system's default model)",
    )
    explore.add_argument(
        "--episodes",
        type=int,
        default=24,
        help="exploration episodes to run (default: 24)",
    )
    explore.add_argument(
        "--seed", type=int, default=0, help="exploration seed (default: 0)"
    )
    explore.add_argument(
        "--sut-seed",
        type=int,
        default=11,
        help="seed of the systems under test (default: 11)",
    )
    explore.add_argument("--json", help="write the exploration report as JSON")
    explore.set_defaults(handler=cmd_explore)

    faults = subparsers.add_parser(
        "faults",
        help="fault-injection / mutation-analysis kill matrix (repro.faults)",
    )
    faults.add_argument(
        "--samples", type=int, default=3, help="samples per scenario run (default: 3)"
    )
    faults.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the matrix across "
        "(default: 1, serial; 0 = one per schedulable CPU)",
    )
    faults.add_argument("--seed", type=int, default=0, help="matrix seed (default: 0)")
    faults.add_argument(
        "--system",
        default=DEFAULT_SYSTEM,
        help=f"registered system pack the matrix runs against (default: "
        f"{DEFAULT_SYSTEM}; known: {', '.join(pack_ids())})",
    )
    faults.add_argument(
        "--model",
        default=None,
        help="model the mutants are generated from (default: the system's "
        "default model)",
    )
    faults.add_argument(
        "--hunt",
        type=int,
        default=0,
        help="run up to N survivor-hunter episodes on mutants the fixed "
        "scenarios miss (default: 0, off)",
    )
    faults.add_argument(
        "--list",
        action="store_true",
        help="list the fault suite and generated mutants without running",
    )
    faults.add_argument("--json", help="write the kill-matrix (and hunt) report as JSON")
    faults.add_argument("--csv", help="write the per-run summary as CSV")
    faults.add_argument(
        "--store",
        help="persist every matrix run and a snapshot into this SQLite run store",
    )
    faults.add_argument(
        "--resume",
        action="store_true",
        help="with --store: execute only matrix points the store has never seen",
    )
    faults.set_defaults(handler=cmd_faults)

    store = subparsers.add_parser(
        "store", help="inspect a persistent run store (snapshots, runs, diffs, exports)"
    )
    store_actions = store.add_subparsers(dest="action", required=True)

    store_list = store_actions.add_parser("list", help="list stored campaign snapshots")
    store_list.add_argument("--db", required=True, help="run-store file")
    store_list.add_argument("--name", help="only snapshots of this campaign name")
    store_list.set_defaults(handler=cmd_store)

    store_runs = store_actions.add_parser("runs", help="list stored runs")
    store_runs.add_argument("--db", required=True, help="run-store file")
    store_runs.add_argument("--scheme", type=int, help="only runs of this scheme")
    store_runs.add_argument("--case", help="only runs of this scenario")
    store_runs.add_argument("--system", help="only runs of this system pack")
    store_runs.add_argument("--limit", type=int, help="at most this many rows")
    store_runs.add_argument(
        "--offset", type=int, default=0, help="skip this many rows first (default: 0)"
    )
    store_runs.add_argument(
        "--slowest",
        action="store_true",
        help="order by stored wall-clock, slowest first (default: newest first)",
    )
    store_runs.set_defaults(handler=cmd_store)

    store_diff = store_actions.add_parser(
        "diff", help="regression diff between two stored snapshots"
    )
    store_diff.add_argument("--db", required=True, help="run-store file")
    store_diff.add_argument("old", help="old snapshot id, or 'latest' / 'prev'")
    store_diff.add_argument("new", help="new snapshot id, or 'latest' / 'prev'")
    store_diff.add_argument("--name", help="resolve latest/prev within this campaign name")
    store_diff.add_argument("--json", help="write the diff report as JSON")
    store_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when the diff contains regressions (for CI gates)",
    )
    store_diff.set_defaults(handler=cmd_store)

    store_export = store_actions.add_parser(
        "export", help="export a stored snapshot (JSON / CSV / Table I)"
    )
    store_export.add_argument("--db", required=True, help="run-store file")
    store_export.add_argument(
        "--campaign", default="latest", help="snapshot id, or 'latest' / 'prev' (default: latest)"
    )
    store_export.add_argument("--name", help="resolve latest/prev within this campaign name")
    store_export.add_argument("--case", default="bolus-request", help="Table I scenario")
    store_export.add_argument("--json", help="write the full campaign aggregate as JSON")
    store_export.add_argument("--csv", help="write the per-run summary as CSV")
    store_export.add_argument(
        "--table1", help="write Table I (Markdown for .md files, plain text otherwise)"
    )
    store_export.add_argument("--table1-csv", help="write the structured Table I rows as CSV")
    store_export.set_defaults(handler=cmd_store)

    serve = subparsers.add_parser(
        "serve", help="serve a run store as a JSON HTTP API (ETag-cached)"
    )
    serve.add_argument("--store", required=True, help="run-store file to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8035, help="TCP port (default: 8035; 0 = ephemeral)"
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-request structured log lines on stderr",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


#: The argparse destinations of every flag that names a file to write.
OUTPUT_FLAGS = ("output", "json", "csv", "m_json", "timeline", "table1", "table1_csv")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Files are written after the work, so a path no file can be written to
    # is caught here rather than as a traceback that loses the result.
    for dest in OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            flag = "--" + dest.replace("_", "-")
            print(
                f"repro {args.command}: error: {flag} {path}: not a file in an existing directory",
                file=sys.stderr,
            )
            return 2
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
