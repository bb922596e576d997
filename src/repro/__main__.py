"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list                 # available experiments
    python -m repro run fig10            # run one experiment, print its table
    python -m repro run all              # run everything (slow)
    python -m repro bench Conv2d         # quick speedup check for one benchmark
    python -m repro trace summarize t.jsonl   # report on a REPRO_TRACE file
    python -m repro profile MatMul       # hot-region table + folded stacks
    python -m repro report --html ...    # render the run dashboard
    python -m repro report --live        # dashboard from the REPRO_STORE cache
    python -m repro chaos --seed 7       # seeded fault-injection campaign
    python -m repro serve --store .cache # content-addressed experiment service
    python -m repro submit MatMul --mode swp --bits 8   # job -> anytime stream

``run`` also writes a provenance manifest when ``--manifest <path>`` is
passed or ``REPRO_MANIFEST=<path>`` is set (see docs/OBSERVABILITY.md);
``profile`` and ``report`` are documented in docs/PROFILING.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def _print_result(name: str, result) -> None:
    if hasattr(result, "as_text"):
        try:
            print(result.as_text())
            return
        except TypeError:
            # Some results (fig10/fig11) take a title argument.
            print(result.as_text(name))
            return
    print(result)


def cmd_list(_args) -> int:
    """List runnable experiment ids."""
    from .experiments import EXPERIMENTS

    print("available experiments (python -m repro run <id>):")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def cmd_run(args) -> int:
    """Run one experiment (or all), optionally writing a manifest.

    An experiment that cannot finish (a forward-progress livelock, or a
    sample past its simulated or real time budget) ends the run with one
    ``error:`` line on stderr and exit code 1; the manifest is still
    written. Any other error, such as a broken crash-consistency
    invariant, is a bug and raises with its traceback."""
    from .errors import IncompleteRun, ProgressStall, SampleTimeout
    from .experiments import EXPERIMENTS, ExperimentSetup
    from .observability.manifest import (
        begin_manifest, finish_manifest, manifest_path_from_env,
    )

    setup = ExperimentSetup(
        scale=args.scale, trace_count=args.traces, invocations=args.invocations
    )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    manifest_path = args.manifest or manifest_path_from_env()
    if manifest_path:
        begin_manifest(command=f"run {args.experiment}")
    try:
        for name in names:
            if name not in EXPERIMENTS:
                print(f"unknown experiment {name!r}; try 'python -m repro list'",
                      file=sys.stderr)
                return 2
            print(f"== {name} ==")
            try:
                result = EXPERIMENTS[name](setup)
            except (ProgressStall, IncompleteRun, SampleTimeout) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            _print_result(name, result)
            print()
    finally:
        if manifest_path:
            finish_manifest(manifest_path)
            print(f"wrote manifest {manifest_path}")
    return 0


def cmd_trace(args) -> int:
    """Summarize a REPRO_TRACE file (text report or --json)."""
    import os

    from .observability.summarize import (
        format_summary, summarize_trace, summary_to_dict,
    )

    try:
        summary = summarize_trace(args.file)
    except OSError as exc:
        print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            import json

            print(json.dumps(summary_to_dict(summary)))
        else:
            print(format_summary(summary, limit=args.limit))
    except BrokenPipeError:
        # Piped into `head` and the reader closed early: that is fine,
        # but Python would print a noisy traceback at shutdown unless
        # stdout is parked on devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_profile(args) -> int:
    """Continuous-power cycle profile: hot-region table + folded stacks."""
    from .core import AnytimeConfig, AnytimeKernel
    from .experiments.report import format_table
    from .observability.profiler import fold_cpu, format_folded, region_rows
    from .workloads import ALL_BENCHMARKS, make_workload

    if args.benchmark not in ALL_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; choose from {ALL_BENCHMARKS}",
              file=sys.stderr)
        return 2
    workload = make_workload(args.benchmark, args.scale)
    mode = args.mode or workload.technique
    bits = None if mode == "precise" else args.bits
    kernel = AnytimeKernel(workload.kernel, AnytimeConfig(mode=mode, bits=bits))
    cpu = kernel.make_cpu(workload.inputs)
    # Drive to halt via run_cycles: unlike cpu.run(), it never touches
    # .stats, so the per-PC counters stay unflushed for fold_cpu.
    while not cpu.halted:
        if cpu.run_cycles(1_000_000) == 0:
            break
    label = f"{args.benchmark}/{mode}{'' if bits is None else bits}"
    stacks = fold_cpu(cpu, label)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(format_folded(stacks))
        print(f"wrote folded profile {args.output} ({len(stacks)} stacks)")
    total = sum(stacks.values())
    rows = region_rows(stacks, top=args.top)
    print(format_table(
        ("region", "cycles", "share", "hottest"), rows,
        title=f"Hot regions: {label} ({total:,} cycles, continuous power)",
    ))
    return 0


def cmd_report(args) -> int:
    """Render the run dashboard from whatever artifacts were passed."""
    import os

    from .observability.dashboard import (
        load_report_data, render_html_report, render_report,
    )

    from . import benchmarking

    store = args.store
    if store is None and args.live:
        store = os.environ.get("REPRO_STORE", "").strip() or None
        if store is None:
            print("--live needs --store <dir> or REPRO_STORE set", file=sys.stderr)
            return 2
    history = args.history or str(benchmarking.DEFAULT_HISTORY)
    try:
        data = load_report_data(
            manifest=args.manifest,
            metrics=args.metrics,
            ledger=args.ledger,
            trace=args.trace,
            history=history,
            store=store,
        )
    except (OSError, ValueError) as exc:
        print(f"cannot load report inputs: {exc}", file=sys.stderr)
        return 2
    text = render_html_report(data, title=args.title) if args.html \
        else render_report(data)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_chaos_service(args) -> int:
    """The host-level campaign behind ``chaos --service``.

    Spawns real server subprocesses and SIGKILLs them at the job
    journal's commit boundaries, tears journal/store files and corrupts
    wire bytes; exit 0 only if the end-to-end oracle (no lost jobs, no
    duplicates, byte-identical results) holds for every scenario."""
    from .fault.service_chaos import (
        run_service_campaign,
        service_report_to_json,
    )

    scenarios = 50 if args.scenarios is None else args.scenarios

    def narrate(index: int, total: int, scenario: dict) -> None:
        point = scenario.get("point")
        print(
            f"  [{index + 1}/{total}] {scenario['kind']}"
            f"{'' if point is None else f'@{point}'}",
            flush=True,
        )

    print(f"service chaos campaign: seed={args.seed} scenarios={scenarios}")
    report = run_service_campaign(
        seed=args.seed, count=scenarios, progress=narrate
    )
    for kind in sorted(report["kinds"]):
        print(f"  {kind:>16}: {report['kinds'][kind]}")
    for point in sorted(report["kill_points"]):
        print(f"  kill@{point:>11}: {report['kill_points'][point]}")
    if not report["passed"]:
        print(
            f"{report['violation_count']} ORACLE VIOLATIONS:", file=sys.stderr
        )
        for violation in report["violations"]:
            print(
                f"  scenario {violation['index']} [{violation['kind']}/"
                f"{violation['config']}] {violation['check']}: "
                f"{violation['detail']}",
                file=sys.stderr,
            )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as file:
            file.write(service_report_to_json(report))
        print(f"wrote report {args.report}")
    return 0 if report["passed"] else 1


def cmd_chaos(args) -> int:
    """Seeded fault-injection campaign against the shipped runtimes.

    Exit 0 only if the campaign reports zero crash-consistency
    violations — and, with ``--mutants``, if every deliberately broken
    mutant runtime IS flagged (proving the oracle can see a bug)."""
    from .fault.campaign import report_to_json, run_campaign
    from .fault.mutants import MUTANTS

    if args.service:
        return _cmd_chaos_service(args)

    scenarios = 500 if args.scenarios is None else args.scenarios
    report = run_campaign(seed=args.seed, count=scenarios)
    print(
        f"chaos campaign: seed={args.seed} scenarios={scenarios} "
        f"runtimes={','.join(report['runtimes'])} "
        f"workloads={','.join(report['workloads'])}"
    )
    for outcome, count in report["outcomes"].items():
        print(f"  {outcome:>16}: {count}")
    ok = report["violation_count"] == 0
    if not ok:
        print(f"{report['violation_count']} INVARIANT VIOLATIONS:", file=sys.stderr)
        for violation in report["violations"]:
            print(
                f"  scenario {violation['index']} "
                f"[{violation['runtime']}/{violation['workload']}/"
                f"{violation['mode']}] {violation['invariant']}: "
                f"{violation['detail']}",
                file=sys.stderr,
            )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as file:
            file.write(report_to_json(report))
        print(f"wrote report {args.report}")
    if args.mutants:
        for name in sorted(MUTANTS):
            mutant_report = run_campaign(
                seed=args.seed, count=scenarios, mutant=name
            )
            flagged = mutant_report["violation_count"] > 0
            invariants = sorted(
                {v["invariant"] for v in mutant_report["violations"]}
            )
            print(
                f"mutant {name}: {mutant_report['violation_count']} "
                f"violations {invariants if flagged else ''}".rstrip()
            )
            if not flagged:
                print(
                    f"MUTANT NOT DETECTED: {name} ran clean — the oracle "
                    "has lost its sensitivity",
                    file=sys.stderr,
                )
                ok = False
    return 0 if ok else 1


def cmd_serve(args) -> int:
    """Run the asyncio experiment service until shutdown/SIGINT.

    The store directory comes from ``--store`` or ``REPRO_STORE``;
    without either the service still runs but caches nothing (every
    submission computes). ``--journal`` arms the durable job journal and
    crash recovery. See docs/SERVICE.md."""
    import asyncio
    import os

    from .errors import SocketInUseError
    from .service.journal import JOURNAL_FSYNC_ENV
    from .service.protocol import default_socket_path
    from .service.server import ExperimentService

    store_dir = args.store or os.environ.get("REPRO_STORE", "").strip() or None
    journal_path = args.journal or None
    journal_fsync = os.environ.get(JOURNAL_FSYNC_ENV, "").strip() not in (
        "", "0", "false", "no",
    )
    socket_path = None if args.port is not None else (
        args.socket or default_socket_path()
    )
    service = ExperimentService(
        store_dir=store_dir,
        max_workers=args.workers,
        journal_path=journal_path,
        journal_fsync=journal_fsync,
        job_timeout=args.job_timeout,
        max_pending=args.max_pending,
        recover=args.recover,
    )

    def announce(endpoint: str) -> None:
        print(
            f"repro service listening on {endpoint}; "
            f"store {store_dir or 'disabled'}; "
            f"journal {journal_path or 'disabled'}",
            flush=True,
        )

    try:
        asyncio.run(
            service.serve(
                socket_path=socket_path, host=args.host, port=args.port,
                on_ready=announce,
            )
        )
    except SocketInUseError as exc:
        print(
            f"cannot bind: {exc} (another server owns the socket; "
            "pick a different --socket or stop it first)",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)
    return 0


def cmd_store(args) -> int:
    """Inspect and repair the content-addressed result store.

    ``store fsck`` verifies every entry parses, matches its filename
    digest, carries the current schema version and an intact content
    checksum; ``--repair`` quarantines defects (and sweeps tmp debris),
    ``--gc`` deletes them outright. Exit 0 only when the store is
    clean."""
    import json
    import os

    from .store.cas import ResultStore

    store_dir = args.store or os.environ.get("REPRO_STORE", "").strip() or None
    if not store_dir:
        print("no store: pass --store DIR or set REPRO_STORE", file=sys.stderr)
        return 2
    store = ResultStore(store_dir)
    report = store.fsck(repair=args.repair, gc=args.gc)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["clean"] else 1
    print(
        f"store fsck {report['root']}: {report['checked']} entries checked, "
        f"{report['ok']} ok, {report['defect_count']} defective, "
        f"{len(report['tmp_debris'])} tmp debris"
    )
    for category, paths in report["defects"].items():
        for path in paths:
            print(f"  {category}: {path}", file=sys.stderr)
    for path in report["quarantined"]:
        print(f"  quarantined: {path}")
    for path in report["deleted"]:
        print(f"  deleted: {path}")
    if report["clean"]:
        print("store is clean")
        return 0
    print(
        "store is DIRTY (re-run with --repair to quarantine, --gc to delete)",
        file=sys.stderr,
    )
    return 1


def cmd_submit(args) -> int:
    """Submit one job to a running service and stream its results."""
    import json

    from .service.client import ServiceClient, ServiceError
    from .service.protocol import default_socket_path
    from .workloads import ALL_BENCHMARKS, make_workload

    if args.benchmark not in ALL_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; choose from {ALL_BENCHMARKS}",
              file=sys.stderr)
        return 2
    mode = args.mode
    if mode is None:
        mode = make_workload(args.benchmark, "tiny").technique
    job = {
        "workload": args.benchmark,
        "mode": mode,
        "bits": None if mode == "precise" else args.bits,
        "runtime": args.runtime,
        "scale": args.scale,
        "trace_count": args.traces,
        "invocations": args.invocations,
    }

    def narrate(event: dict) -> None:
        kind = event.get("event")
        if kind == "ack":
            state = ("cache hit" if event.get("cached")
                     else "deduped (already computing)" if event.get("deduped")
                     else "computing")
            print(f"submitted {event.get('fingerprint', '')[:12]}: {state}")
        elif kind == "progressive":
            sample = event.get("sample", {})
            skim = "skim taken" if sample.get("skim_taken") else "no skim"
            print(
                f"  {event.get('stage')}: first answer after "
                f"{event.get('samples_done')}/{event.get('samples_total')} "
                f"samples — error {sample.get('error', 0.0):.2f}% ({skim}), "
                f"{sample.get('wall_ms')} ms wall"
            )

    try:
        with ServiceClient.connect(
            socket_path=None if args.port is not None else (
                args.socket or default_socket_path()
            ),
            host=args.host,
            port=args.port,
            timeout=args.timeout,
            retries=args.retries,
        ) as client:
            result = client.submit(
                job, full=args.full,
                on_event=None if args.json else narrate,
                on_retry=None if args.json else (
                    lambda attempt, exc, delay: print(
                        f"  retry {attempt + 1}: {exc} "
                        f"(backing off {delay:.2f}s)",
                        file=sys.stderr,
                    )
                ),
            )
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach the service: {exc} "
              "(is 'python -m repro serve' running?)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result))
        return 0
    config = result.get("config") or {}
    summary = config.get("summary") or {}
    bits = config.get("bits")
    accuracy = summary.get("median_accuracy")
    acc_part = "" if accuracy is None else f", top-1 accuracy {accuracy:.3f}"
    print(
        f"result [{result.get('source')}] {config.get('workload')}/"
        f"{config.get('mode')}{'' if bits is None else bits}/"
        f"{config.get('runtime')}: {config.get('samples')} samples, "
        f"median wall {summary.get('median_wall_ms')} ms, "
        f"median NRMSE {summary.get('median_error', 0.0):.2f}%, "
        f"skim rate {summary.get('skim_rate', 0.0):.2f}"
        f"{acc_part}"
    )
    return 0


def cmd_bench(args) -> int:
    """Dispatch the bench subcommand to the right harness."""
    if args.grid:
        return _bench_grid(args)
    if args.benchmark == "interp":
        return _bench_interp(args)
    return _bench_workload(args)


def _bench_grid(args) -> int:
    """Grid harness: interpreter vs replay engine on the fig10 grid."""
    import pathlib

    from . import benchmarking

    output = pathlib.Path(args.output) if args.output else None
    history = _history_path(args)
    payload = benchmarking.run_grid_bench(reps=args.reps or 3, scale=args.scale)
    print(benchmarking.format_grid_bench(payload))
    if not payload["grid"]["identical"]:
        print("GRID CHECK FAILED: engine results diverged from the interpreter",
              file=sys.stderr)
        return 1
    if not payload["nn"]["identical"]:
        print("GRID CHECK FAILED: NN cross-check diverged from the interpreter",
              file=sys.stderr)
        return 1
    failures = benchmarking.check_grid_history(payload, history) \
        if history is not None else []
    if failures:
        # Gate before persisting: a regressed run must not seed the
        # rolling median it just failed against.
        for failure in failures:
            print(f"SPEED REGRESSION: {failure}", file=sys.stderr)
        return 1
    benchmarking.save_grid_bench(payload, output, history)
    print(f"wrote {output or benchmarking.DEFAULT_GRID_OUTPUT}")
    return 0


def _history_path(args):
    """The bench history path an invocation should use (None = skip)."""
    import pathlib

    from . import benchmarking

    if args.no_history:
        return None
    return pathlib.Path(args.history) if args.history \
        else benchmarking.DEFAULT_HISTORY


def _bench_interp(args) -> int:
    """Interpreter speed harness: regenerate or check BENCH_interp.json."""
    import pathlib

    from . import benchmarking

    output = pathlib.Path(args.output) if args.output else None
    history = _history_path(args)
    if args.check:
        try:
            failures = benchmarking.check_bench(
                path=output, reps=args.reps or 3, history=history
            )
        except FileNotFoundError as exc:
            print(f"no committed baseline to check against: {exc}", file=sys.stderr)
            print("run 'python -m repro bench' first to create it", file=sys.stderr)
            return 1
        if failures:
            for failure in failures:
                print(f"SPEED REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("interpreter speed within tolerance of committed baseline "
              "and rolling history median")
        return 0
    payload = benchmarking.write_bench(
        path=output, reps=args.reps or 5, history=history
    )
    print(benchmarking.format_bench(payload))
    print(f"wrote {output or benchmarking.DEFAULT_OUTPUT}")
    if history is not None:
        print(f"appended history record to {history}")
    return 0


def _bench_workload(args) -> int:
    from .experiments import ExperimentSetup, median_speedup, run_benchmark
    from .experiments.common import worker_workload
    from .workloads import ALL_BENCHMARKS

    if args.benchmark not in ALL_BENCHMARKS:
        print(f"unknown benchmark {args.benchmark!r}; choose from {ALL_BENCHMARKS}",
              file=sys.stderr)
        return 2
    setup = ExperimentSetup(
        scale=args.scale, trace_count=args.traces, invocations=args.invocations
    )
    workload = worker_workload(args.benchmark, setup.scale)
    baseline = run_benchmark(workload, "precise", None, args.runtime, setup)
    for bits in (8, 4):
        wn = run_benchmark(workload, workload.technique, bits, args.runtime, setup)
        accuracy = wn.median_accuracy
        acc_part = "" if accuracy is None else f", top-1 accuracy {accuracy:.3f}"
        print(
            f"{args.benchmark} {bits}-bit on {args.runtime}: "
            f"{median_speedup(baseline, wn):.2f}x speedup, "
            f"{wn.median_error:.2f}% NRMSE, skim rate {wn.skim_rate:.2f}"
            f"{acc_part}"
        )
    return 0


def _positive_seconds(raw: str) -> float:
    """argparse type of ``serve --job-timeout``: a watchdog of zero or
    less would fail every job, so it is a usage error."""
    try:
        seconds = float(raw)
        if seconds > 0:
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"want a positive number of seconds, got {raw!r}"
    )


def main(argv: Optional[list] = None) -> int:
    """Argparse entry point; returns the process exit code."""
    from .runtime.table import RUNTIME_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the What's Next intermittent computing architecture (HPCA 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments").set_defaults(func=cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--scale", default="default", choices=("tiny", "default", "paper"))
    run_parser.add_argument("--traces", type=int, default=3)
    run_parser.add_argument("--invocations", type=int, default=1)
    run_parser.add_argument("--manifest", default=None,
                            help="write a run manifest (provenance + metric "
                                 "rollups) to this path; REPRO_MANIFEST works too")
    run_parser.set_defaults(func=cmd_run)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a REPRO_TRACE event file"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="report event counts, fallback reasons and per-sample timelines",
    )
    summarize_parser.add_argument("file")
    summarize_parser.add_argument("--limit", type=int, default=12,
                                  help="timelines to print (default 12)")
    summarize_parser.add_argument("--json", action="store_true",
                                  help="emit the machine-readable summary "
                                       "(stable schema, all samples) instead "
                                       "of the text report")
    summarize_parser.set_defaults(func=cmd_trace)

    profile_parser = subparsers.add_parser(
        "profile",
        help="profile one benchmark under continuous power: top-N hot "
             "regions, optionally folded stacks for flamegraph/speedscope",
    )
    profile_parser.add_argument("benchmark")
    profile_parser.add_argument("--mode", default=None,
                                choices=("precise", "swp", "swv"),
                                help="build to profile (default: the "
                                     "workload's anytime technique)")
    profile_parser.add_argument("--bits", type=int, default=8,
                                help="anytime bit width (default 8)")
    profile_parser.add_argument("--scale", default="default",
                                choices=("tiny", "default", "paper"))
    profile_parser.add_argument("--top", type=int, default=10,
                                help="hot regions to list (default 10)")
    profile_parser.add_argument("--output", default=None,
                                help="also write folded stacks to this path")
    profile_parser.set_defaults(func=cmd_profile)

    report_parser = subparsers.add_parser(
        "report",
        help="render the run dashboard from manifest/metrics/ledger/trace/"
             "history artifacts (text, or one self-contained HTML page)",
    )
    report_parser.add_argument("--manifest", default=None,
                               help="REPRO_MANIFEST json from a run")
    report_parser.add_argument("--metrics", default=None,
                               help="REPRO_METRICS rollup jsonl")
    report_parser.add_argument("--ledger", default=None,
                               help="REPRO_LEDGER rollup jsonl")
    report_parser.add_argument("--trace", default=None,
                               help="REPRO_TRACE event jsonl (summarized)")
    report_parser.add_argument("--history", default=None,
                               help="bench history jsonl (default: the "
                                    "committed benchmarks/results/history.jsonl)")
    report_parser.add_argument("--store", default=None,
                               help="content-addressed result store directory "
                                    "(REPRO_STORE); adds a store section")
    report_parser.add_argument("--live", action="store_true",
                               help="render from the result store (falls back "
                                    "to REPRO_STORE when --store is omitted)")
    report_parser.add_argument("--html", action="store_true",
                               help="render a self-contained HTML page "
                                    "instead of text")
    report_parser.add_argument("--title", default="repro run report")
    report_parser.add_argument("--output", default=None,
                               help="write to this path instead of stdout")
    report_parser.set_defaults(func=cmd_report)

    serve_parser = subparsers.add_parser(
        "serve",
        help="start the async experiment service (unix socket by default; "
             "--port for localhost TCP); submissions are fingerprinted, "
             "deduped, cached in REPRO_STORE and streamed back anytime-first",
    )
    serve_parser.add_argument("--socket", default=None,
                              help="unix socket path (default: "
                                   "$TMPDIR/repro-service.sock)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="TCP bind host (with --port)")
    serve_parser.add_argument("--port", type=int, default=None,
                              help="serve TCP on this port instead of the "
                                   "unix socket (0 picks a free port)")
    serve_parser.add_argument("--store", default=None,
                              help="result store directory (default: "
                                   "REPRO_STORE; unset disables caching)")
    serve_parser.add_argument("--journal", default=None,
                              help="durable job journal path (unset = no "
                                   "journal)")
    serve_parser.add_argument("--no-recover", dest="recover",
                              action="store_false",
                              help="skip replaying the journal's pending "
                                   "jobs on boot")
    serve_parser.add_argument("--job-timeout", type=_positive_seconds,
                              default=None,
                              help="per-job wall-clock watchdog in seconds, "
                                   "> 0 (unset = no watchdog)")
    serve_parser.add_argument("--max-pending", type=int, default=None,
                              help="bound on concurrent in-flight jobs; "
                                   "overflow is load-shed with a typed "
                                   "'busy' event (unset = unbounded)")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="compute thread pool size "
                                   "(default: min(8, cpus))")
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit one configuration to a running service and stream "
             "its anytime + final results",
    )
    submit_parser.add_argument("benchmark")
    submit_parser.add_argument("--mode", default=None,
                               choices=("precise", "swp", "swv"),
                               help="execution mode (default: the workload's "
                                    "native approximation technique)")
    submit_parser.add_argument("--bits", type=int, default=8,
                               choices=(1, 2, 3, 4, 8),
                               help="approximation bit width (non-precise)")
    submit_parser.add_argument("--runtime", default="clank",
                               choices=RUNTIME_NAMES)
    submit_parser.add_argument("--scale", default="default",
                               choices=("tiny", "default", "paper"))
    submit_parser.add_argument("--traces", type=int, default=9)
    submit_parser.add_argument("--invocations", type=int, default=3)
    submit_parser.add_argument("--socket", default=None,
                               help="unix socket path of the server")
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=None,
                               help="connect over TCP instead of the unix "
                                    "socket")
    submit_parser.add_argument("--retries", type=int, default=None,
                               help="resubmission attempts after a "
                                    "disconnect or busy rejection "
                                    "(default 5)")
    submit_parser.add_argument("--timeout", type=float, default=30.0,
                               help="connect timeout in seconds (retries "
                                    "until then)")
    submit_parser.add_argument("--json", action="store_true",
                               help="print the raw result event as JSON")
    submit_parser.add_argument("--full", action="store_true",
                               help="include per-sample runs in the result")
    submit_parser.set_defaults(func=cmd_submit)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign (forced outages, torn "
             "checkpoints, bit flips, fuzzed traces) and check the "
             "crash-consistency oracle; exit 1 on any violation",
    )
    chaos_parser.add_argument("--seed", type=int, default=20260806,
                              help="campaign seed (default 20260806); the "
                                   "same seed is byte-identical every run")
    chaos_parser.add_argument("--service", action="store_true",
                              help="attack the experiment service host "
                                   "(SIGKILL at journal boundaries, torn "
                                   "files, wire corruption) instead of "
                                   "the simulated device")
    chaos_parser.add_argument("--scenarios", type=int, default=None,
                              help="scenario count (default 500 device, "
                                   "50 service)")
    chaos_parser.add_argument("--report", default=None,
                              help="write the full JSON report to this path")
    chaos_parser.add_argument("--mutants", action="store_true",
                              help="also run the deliberately broken mutant "
                                   "runtimes and fail unless each is flagged")
    chaos_parser.set_defaults(func=cmd_chaos)

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and repair the content-addressed result store",
    )
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)
    fsck_parser = store_sub.add_parser(
        "fsck",
        help="verify every entry's digest, schema and content checksum",
    )
    fsck_parser.add_argument("--store", default=None,
                             help="store directory (default $REPRO_STORE)")
    fsck_parser.add_argument("--repair", action="store_true",
                             help="quarantine defective entries and sweep "
                                  "tmp debris")
    fsck_parser.add_argument("--gc", action="store_true",
                             help="delete defective entries, tmp debris and "
                                  "the quarantine outright")
    fsck_parser.add_argument("--json", action="store_true",
                             help="emit the full report as JSON")
    fsck_parser.set_defaults(func=cmd_store)

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmarks: 'interp' (default) times the interpreter and "
             "writes BENCH_interp.json; a benchmark name runs a quick "
             "speedup check",
    )
    bench_parser.add_argument("benchmark", nargs="?", default="interp")
    bench_parser.add_argument("--runtime", default="clank",
                              choices=RUNTIME_NAMES)
    bench_parser.add_argument("--scale", default="default", choices=("tiny", "default", "paper"))
    bench_parser.add_argument("--traces", type=int, default=3)
    bench_parser.add_argument("--invocations", type=int, default=1)
    bench_parser.add_argument("--check", action="store_true",
                              help="interp only: fail on >30%% regression vs BENCH_interp.json")
    bench_parser.add_argument("--grid", action="store_true",
                              help="time the fig10 grid on both engines "
                                   "(interpreter, replay) and write "
                                   "BENCH_grid.json; fails if the engines "
                                   "diverge or the replay rate regresses "
                                   ">30%% vs the history median")
    bench_parser.add_argument("--reps", type=int, default=None,
                              help="interp/grid: timing repetitions per config")
    bench_parser.add_argument("--output", default=None,
                              help="interp/grid: output path for the JSON payload")
    bench_parser.add_argument("--history", default=None,
                              help="interp/grid: bench history jsonl (default: "
                                   "benchmarks/results/history.jsonl); writes "
                                   "append a record, --check also gates against "
                                   "the rolling median")
    bench_parser.add_argument("--no-history", action="store_true",
                              help="interp/grid: skip the history append/gate")
    bench_parser.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
