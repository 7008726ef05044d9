"""Command-line interface: run benchmarks and regenerate paper artifacts.

Usage (installed as ``agave-repro`` or ``python -m repro``)::

    python -m repro list
    python -m repro run music.mp3.view --duration 4
    python -m repro suite --out suite.json --jobs 4 --progress
    python -m repro suite --shard 1/2 --cache .agave-cache --out shard1.json
    python -m repro --cpus 4 suite --out suite-smp.json --jobs 4
    python -m repro sweep --axis jit=on,off --axis seed=1,2 --jobs 4
    python -m repro sweep --axis cpus=1,2,4 --bench music.mp3.view
    python -m repro sweep --axis seed=1,2 --shard 2/2 --out shard2.json
    python -m repro figures --results suite.json --figure 1
    python -m repro table1 --results suite.json
    python -m repro claims --cache .agave-cache
    python -m repro --cpus 4 smp --cache .agave-cache
    python -m repro cache stats .agave-cache
    python -m repro cache gc .agave-cache --max-bytes 50000000 --dry-run
    python -m repro cache gc .agave-cache --max-entries 100 --lru
    python -m repro sweep --axis cal.preset=baseline,lowend,highend
    python -m repro --faults chaos run vlc.mp4.view
    python -m repro sweep --axis faults=none,binder-flaky,sf-kill
    python -m repro faults --bench vlc.mp4.view --plan sf-kill
    python -m repro fleet --devices 1000 --profile-mix none=3,2+2=1 \\
        --preset-mix baseline=2,lowend=1 --jobs 4 --progress
    python -m repro fleet --devices 1000 --shard 1/2 --out shard1.json
    python -m repro fleet --merge shard1.json shard2.json
    python -m repro serve .agave-cache --port 8750
    python -m repro sweep --axis seed=1,2 --cache .local \\
        --cache-url http://cachehost:8750

Execution flags (``--jobs``, ``--backend``, ``--cache``, ``--progress``)
apply wherever benchmarks may actually run: ``suite``, ``sweep``,
``faults``, ``fleet``, and any artifact command invoked without
``--results``.  ``--jobs N`` with N > 1 runs on a pool of N worker
processes (``--backend process`` and ``--backend async`` name the same
pool), whose result I/O (cache writes, progress) overlaps in-flight
simulations through an in-flight window that adapts to observed result
sizes.  ``--cpus`` selects the simulated core count everywhere
(``cpus=1`` stays byte-identical to the pre-SMP engine, hitting the
same cache keys).  ``--shard`` is for ``suite``, ``sweep`` and
``fleet`` only — their outputs can be merged back together — never for
figures/tables/claims/smp/faults, which over a partial suite would be
silently wrong.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.calibration import profile_cpu_count
# Only orchestration is imported here: none of these modules loads the
# simulator.  It loads when the first unit actually has to run (see
# repro.core.runner.execute_with_cache), in this process and before any
# pool forks, so a warm-cache replay never pays for it.  Everything only
# one subcommand needs (sweep, fleet, pools, analysis, the service) is
# imported inside that command.
from repro.core import (
    BACKEND_NAMES,
    ResultCache,
    RunConfig,
    RunResult,
    SuiteResult,
    SuiteRunner,
    benchmarks,
    make_backend,
    parse_shard,
)
from repro.errors import AnalysisError, ConfigError, ReproError
from repro.faults import fault_plan, plan_names
from repro.sim.ticks import millis, seconds


def _config(args: argparse.Namespace) -> RunConfig:
    cpus = args.cpus
    if cpus is not None and cpus < 1:
        raise ConfigError(f"--cpus must be >= 1, got {cpus}")
    profile = args.cpu_profile
    if profile is not None:
        count = profile_cpu_count(profile)  # parse-validates
        if cpus is None:
            cpus = count
        elif cpus != count:
            raise ConfigError(
                f"--cpu-profile {profile} describes {count} cores "
                f"but --cpus is {cpus}"
            )
    return RunConfig(
        duration_ticks=seconds(args.duration),
        settle_ticks=millis(args.settle_ms),
        seed=args.seed,
        jit_enabled=not args.no_jit,
        cpus=cpus if cpus is not None else 1,
        cpu_profile=profile,
        faults=fault_plan(args.faults) if args.faults else None,
    )


def _add_exec_flags(
    parser: argparse.ArgumentParser, sharding: bool = False
) -> None:
    """Execution-backend knobs, shared by every command that may run.

    ``--shard`` is only offered where a partial result is meaningful
    (``suite``, ``sweep`` and ``fleet``, whose output files can be
    merged); artifact commands would silently draw paper-level
    conclusions from a fraction of the benchmarks.
    """
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (N>1 runs on the process "
                             "pool; serial takes no --jobs)")
    parser.add_argument("--backend", choices=BACKEND_NAMES,
                        help="execution backend: serial, or the process "
                             "pool (process and async both name it; "
                             "default: serial, or the pool when --jobs > 1)")
    if sharding:
        parser.add_argument("--shard", metavar="K/N",
                            help="run only the K-th of N deterministic shards")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--cache-url", metavar="URL",
                        help="result-service URL (see 'repro serve') used "
                             "as a second cache tier: local miss -> remote "
                             "GET with local write-through, fresh runs "
                             "published back with PUT")
    parser.add_argument("--progress", action="store_true",
                        help="print a line as each benchmark completes")


def _make_cache(args: argparse.Namespace):
    """The cache tier(s) a command runs through.

    ``--cache`` alone is the classic local directory; adding
    ``--cache-url`` stacks the remote service behind it (and with no
    local directory at all, lookups go straight to the service).
    """
    url = getattr(args, "cache_url", None)
    local = ResultCache(args.cache) if args.cache else None
    if not url:
        return local
    from repro.service import CacheClient, RemoteCacheBackend

    return RemoteCacheBackend(CacheClient(url), local=local)


def _shard(args: argparse.Namespace) -> "tuple[int, int] | None":
    """The parsed ``--shard K/N`` (None on commands that do not take it)."""
    text = getattr(args, "shard", None)
    return parse_shard(text) if text else None


def _make_runner(args: argparse.Namespace) -> SuiteRunner:
    return SuiteRunner(
        _config(args),
        backend=make_backend(args.backend, jobs=args.jobs),
        cache=_make_cache(args),
        shard=_shard(args),
    )


def _progress_printer(
    args: argparse.Namespace,
    label: "Callable[[object], str]" = str,
    width: int = 22,
):
    """A progress callback printing one line per completed unit.

    *label* maps the callback's first argument (a bench id, or a
    SweepPoint for sweeps) to the printed name.
    """
    if not args.progress:
        return None

    def emit(unit, elapsed: "float | None", result: RunResult) -> None:
        # elapsed=None means the result came from the cache; a real run
        # that happened to clock 0.00s still prints its timing.
        tag = "cached" if elapsed is None else f"{elapsed:6.2f}s"
        print(f"  {label(unit):<{width}} {tag:>8} "
              f"{result.total_refs:>15,} refs", flush=True)

    return emit


def _load_or_run(args: argparse.Namespace) -> SuiteResult:
    if args.results:
        return SuiteResult.load(args.results)
    runner = _make_runner(args)
    return runner.run_suite(progress=_progress_printer(args))


def cmd_list(args: argparse.Namespace) -> int:
    for bench in benchmarks():
        kind = "agave" if bench.is_android else "spec "
        print(f"{bench.bench_id:<22} [{kind}] {bench.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    runner = SuiteRunner(_config(args))
    run = runner.run(args.benchmark)
    print(f"{run.bench_id}: {run.total_refs:,} references "
          f"({run.total_instr:,} instr / {run.total_data:,} data)")
    print(f"processes {run.live_processes}, threads {run.thread_count()}, "
          f"regions {run.code_region_count()}c/{run.data_region_count()}d")
    for axis, table in (
        ("instruction regions", run.instr_by_region),
        ("data regions", run.data_by_region),
        ("processes (instr)", run.instr_by_proc),
    ):
        total = sum(table.values())
        print(f"\ntop {axis}:")
        for key, value in sorted(table.items(), key=lambda kv: -kv[1])[:8]:
            share = 100 * value / total if total else 0.0
            print(f"  {key:<30} {share:6.1f}%")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    suite = runner.run_suite(
        ids=args.bench or None, progress=_progress_printer(args)
    )
    if args.out:
        suite.save(args.out)
        print(f"saved {len(suite.ids())} runs to {args.out}")
    else:
        for bench_id in suite.ids():
            print(f"{bench_id:<22} {suite.get(bench_id).total_refs:>15,} refs")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import render_sweep_table, resolve_metric, sweep_tables
    from repro.core import SweepRunner, SweepSpec, parse_axis

    resolve_metric(args.metric)  # reject a typo'd metric before simulating
    axes = tuple(parse_axis(text) for text in args.axis or [])
    ids = args.bench or [spec.bench_id for spec in benchmarks()]
    spec = SweepSpec(benches=tuple(ids), axes=axes, base=_config(args))
    runner = SweepRunner(
        backend=make_backend(args.backend, jobs=args.jobs),
        cache=_make_cache(args),
        shard=_shard(args),
    )
    result = runner.run(
        spec,
        progress=_progress_printer(args, label=lambda p: p.label, width=40),
    )
    if args.out:
        result.save(args.out)
        print(f"saved {len(result.runs)} sweep cells to {args.out}")
    if axes:
        for table in sweep_tables(result, metric=args.metric):
            print(render_sweep_table(table))
    elif not args.out:
        for (bench_id, variant), run in result.runs.items():
            print(f"{bench_id:<22} [{variant}] {run.total_refs:>15,} refs")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Absorbed-vs-amplified fault report over a ``faults`` sweep.

    With ``--results`` the report reads a saved sweep (which must have
    swept a ``faults`` axis); otherwise it runs a small faults sweep —
    the fault-free baseline plus each requested plan — over the given
    benchmarks and reports on that.
    """
    from repro.analysis import (
        evaluate_fault_claims,
        fault_report,
        render_claims,
        render_fault_report,
    )
    from repro.core import SweepResult, SweepRunner, SweepSpec, parse_axis

    if args.results:
        result = SweepResult.load(args.results)
    else:
        plans = args.plan or ["binder-flaky", "sf-kill"]
        for plan in plans:
            fault_plan(plan)  # reject typos before simulating
        axes = (parse_axis("faults=none," + ",".join(plans)),)
        ids = args.bench or ["vlc.mp4.view"]
        spec = SweepSpec(benches=tuple(ids), axes=axes, base=_config(args))
        runner = SweepRunner(
            backend=make_backend(args.backend, jobs=args.jobs),
            cache=_make_cache(args),
        )
        result = runner.run(
            spec,
            progress=_progress_printer(args, label=lambda p: p.label,
                                       width=40),
        )
        if args.out:
            result.save(args.out)
            print(f"saved {len(result.runs)} sweep cells to {args.out}")
    print(render_fault_report(fault_report(result)))
    try:
        claims = evaluate_fault_claims(result)
    except AnalysisError:
        # Neither headline plan was swept: the report stands on its own
        # and there is nothing to assert.
        return 0
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.analysis import render_fleet_report
    from repro.core import (
        FleetResult,
        FleetSpec,
        ProgressMeter,
        parse_mix,
        run_fleet,
    )
    from repro.core.runner import owned_by

    if args.merge:
        # Merge mode: no simulation — fold saved shard results together.
        if args.devices is not None or args.shard:
            raise ConfigError(
                "fleet --merge combines saved result files; it takes no "
                "--devices or --shard"
            )
        merged: FleetResult | None = None
        for path in args.merge:
            shard_result = FleetResult.load(path)
            if merged is None:
                merged = shard_result
            else:
                merged.merge(shard_result)
        assert merged is not None  # argparse nargs="+" guarantees one
        if args.out:
            merged.save(args.out)
            print(f"saved merged fleet result to {args.out}")
        print(render_fleet_report(merged))
        return 0

    if args.devices is None:
        raise ConfigError("fleet needs --devices N (or --merge FILES)")
    none_aware = lambda s: None if s.lower() == "none" else s
    spec = FleetSpec(
        devices=args.devices,
        seed=args.seed,
        bench_mix=parse_mix(args.bench_mix) if args.bench_mix else (),
        profile_mix=(
            parse_mix(args.profile_mix, none_aware)
            if args.profile_mix
            else ((None, 1.0),)
        ),
        preset_mix=(
            parse_mix(args.preset_mix)
            if args.preset_mix
            else (("baseline", 1.0),)
        ),
        scale_mix=(
            parse_mix(args.scale_mix, float)
            if args.scale_mix
            else ((1.0, 1.0),)
        ),
        base=_config(args),
        capacity=args.capacity,
        fault_mix=(
            parse_mix(args.fault_mix, none_aware)
            if args.fault_mix
            else ((None, 1.0),)
        ),
    )
    backend = make_backend(args.backend, jobs=args.jobs)
    shard = _shard(args)
    progress = None
    if args.progress:
        units_total = len(owned_by(spec.units(), shard))
        progress = ProgressMeter(units_total, every=args.progress_every)
    result = run_fleet(
        spec,
        backend=backend,
        cache=_make_cache(args),
        progress=progress,
        shard=shard,
    )
    if args.out:
        result.save(args.out)
        print(f"saved fleet result ({result.devices_done} devices, "
              f"{result.units_total} units) to {args.out}")
    print(render_fleet_report(result))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the result service daemon until interrupted."""
    from repro.service import make_server

    server = make_server(
        args.dir,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    print(f"result service: serving {args.dir} on http://{host}:{port}/",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    # A stats query must not conjure the directory into existence: a
    # typo'd path should error, not report a healthy empty cache.
    if not os.path.isdir(args.dir):
        raise ConfigError(f"no cache directory at {args.dir!r}")
    cache = ResultCache(args.dir)
    stats = cache.stats()
    print(f"cache:   {cache.root}")
    print(f"entries: {stats.entries}")
    print(f"bytes:   {stats.total_bytes:,}")
    print(f"hits:    {stats.hits}")
    print(f"misses:  {stats.misses}")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    # Like stats: a GC of a mistyped path must error, not mint an empty
    # directory and report a successful no-op.
    if not os.path.isdir(args.dir):
        raise ConfigError(f"no cache directory at {args.dir!r}")
    if args.max_bytes is None and args.max_age is None \
            and args.max_entries is None:
        raise ConfigError(
            "cache gc needs --max-bytes, --max-age and/or --max-entries"
        )
    cache = ResultCache(args.dir)
    report = cache.gc(max_bytes=args.max_bytes, max_age=args.max_age,
                      max_entries=args.max_entries, dry_run=args.dry_run,
                      lru=args.lru)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"cache:   {cache.root}")
    print(f"{verb}: {report.removed_entries} entries "
          f"({report.removed_bytes:,} bytes)")
    print(f"kept:    {report.kept_entries} entries "
          f"({report.kept_bytes:,} bytes)")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import (
        build_figure,
        render_breakdown_csv,
        render_breakdown_table,
        render_stacked_ascii,
    )

    suite = _load_or_run(args)
    numbers = [args.figure] if args.figure else [1, 2, 3, 4]
    for number in numbers:
        fig = build_figure(number, suite)
        if args.csv:
            print(render_breakdown_csv(fig))
        else:
            print(render_breakdown_table(fig))
            if args.ascii:
                print(render_stacked_ascii(fig))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import render_table1, table1
    from repro.analysis.paper import compare_table1

    suite = _load_or_run(args)
    table = table1(suite)
    print(render_table1(table, top_n=args.top))
    print(compare_table1(table))
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    from repro.analysis import evaluate_claims, render_claims

    suite = _load_or_run(args)
    claims = evaluate_claims(suite)
    print(render_claims(claims))
    return 0 if all(c.holds for c in claims) else 1


def cmd_smp(args: argparse.Namespace) -> int:
    from repro.analysis import (
        cpu_breakdown,
        render_breakdown_table,
        render_smp_table,
        smp_rows,
    )

    suite = _load_or_run(args)
    print(render_smp_table(smp_rows(suite)))
    print(render_breakdown_table(cpu_breakdown(suite)))
    return 0


class _SweepHelpFormatter(argparse.HelpFormatter):
    """Lists the sweep metrics only when help is printed: they live in
    the analysis layer, which the parser must not import."""

    def _get_help_string(self, action: argparse.Action) -> "str | None":
        if action.dest != "metric":
            return action.help
        from repro.analysis import METRICS

        return (f"{action.help}: {', '.join(sorted(METRICS))}, "
                "or per-core cpuN_refs/cpuN_share/cpuN_busy")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agave-repro",
        description="Agave (ISPASS 2016) reproduction harness",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="measurement window in simulated seconds")
    parser.add_argument("--settle-ms", type=int, default=400,
                        help="boot settle before the window opens")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-jit", action="store_true",
                        help="disable the Dalvik trace JIT")
    parser.add_argument("--cpus", type=int, default=None, metavar="N",
                        help="simulated cores (default 1, or the core count "
                             "of --cpu-profile; cpus=1 reproduces the "
                             "single-core results byte-for-byte)")
    parser.add_argument("--cpu-profile", metavar="B+L",
                        help="big.LITTLE core profile, e.g. 2+2 or 4+4: "
                             "B full-speed big cores then L half-speed "
                             "LITTLE cores, scheduled by the CFS vruntime "
                             "policy (default: symmetric cores, round-robin)")
    parser.add_argument("--faults", metavar="PLAN",
                        help="deterministic fault plan injected inside the "
                             "measurement window: "
                             + ", ".join(plan_names())
                             + " (default: no faults; the fault-free "
                             "config keeps its exact cache keys)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 25 benchmarks").set_defaults(
        func=cmd_list
    )

    p_run = sub.add_parser("run", help="run one benchmark")
    p_run.add_argument("benchmark")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run the whole suite")
    p_suite.add_argument("--out", help="save results JSON here")
    p_suite.add_argument("--bench", action="append", metavar="ID",
                         help="run only this benchmark (repeatable)")
    _add_exec_flags(p_suite, sharding=True)
    p_suite.set_defaults(func=cmd_suite)

    p_sweep = sub.add_parser(
        "sweep", help="run a parameter grid and show per-axis deltas",
        formatter_class=_SweepHelpFormatter,
    )
    p_sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                         help="sweep axis: jit=on,off | seed=1,2,3 | "
                              "duration=0.5,1.0 | cal.preset=baseline,lowend "
                              "| cal.<field>=A,B | faults=none,binder-flaky "
                              "(repeatable; order fixes the grid)")
    p_sweep.add_argument("--bench", action="append", metavar="ID",
                         help="sweep only this benchmark (repeatable; "
                              "default: the whole suite)")
    p_sweep.add_argument("--out", help="save sweep results JSON here")
    p_sweep.add_argument("--metric", default="total_refs",
                         help="metric shown in the per-axis delta tables")
    _add_exec_flags(p_sweep, sharding=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_faults = sub.add_parser(
        "faults",
        help="absorbed-vs-amplified fault report over a faults sweep",
    )
    p_faults.add_argument("--results", help="load a saved sweep JSON (must "
                                            "sweep a faults axis) instead "
                                            "of re-running")
    p_faults.add_argument("--plan", action="append", metavar="NAME",
                          help="fault plan to inject (repeatable; default "
                               "binder-flaky and sf-kill): "
                               + ", ".join(plan_names()))
    p_faults.add_argument("--bench", action="append", metavar="ID",
                          help="benchmark to fault (repeatable; default "
                               "vlc.mp4.view)")
    p_faults.add_argument("--out", help="save the sweep results JSON here")
    _add_exec_flags(p_faults)
    p_faults.set_defaults(func=cmd_faults)

    p_fleet = sub.add_parser(
        "fleet",
        help="Monte-Carlo a device population and report metric "
             "distributions (streaming reduction: O(metrics) memory)",
    )
    p_fleet.add_argument("--devices", type=int, metavar="N",
                         help="population size to sample")
    p_fleet.add_argument("--bench-mix", metavar="ID=W,ID=W",
                         help="weighted benchmark mix (default: uniform "
                              "over the Agave app suite)")
    p_fleet.add_argument("--profile-mix", metavar="P=W,P=W",
                         help="weighted cpu-profile mix, e.g. "
                              "none=3,2+2=1 (none = the symmetric base "
                              "machine)")
    p_fleet.add_argument("--preset-mix", metavar="NAME=W,NAME=W",
                         help="weighted calibration-preset mix, e.g. "
                              "baseline=2,lowend=1,highend=1")
    p_fleet.add_argument("--scale-mix", metavar="F=W,F=W",
                         help="weighted calibration scale-factor mix, "
                              "e.g. 1=3,1.2=1 (per-device unit variation)")
    p_fleet.add_argument("--fault-mix", metavar="PLAN=W,PLAN=W",
                         help="weighted fault-plan mix, e.g. "
                              "none=9,binder-flaky=1 (none = fault-free; "
                              "an all-none mix samples the exact fleet a "
                              "pre-fault spec did)")
    p_fleet.add_argument("--capacity", type=int, default=1024, metavar="K",
                         help="bottom-k percentile sample bound per metric "
                              "(percentiles are exact up to K devices)")
    p_fleet.add_argument("--out", help="save the fleet result JSON here")
    p_fleet.add_argument("--merge", nargs="+", metavar="FILE",
                         help="merge saved shard results instead of running")
    p_fleet.add_argument("--progress-every", type=int, default=16,
                         metavar="K",
                         help="with --progress: print rate/ETA every K "
                              "completed units instead of one line per unit")
    _add_exec_flags(p_fleet, sharding=True)
    p_fleet.set_defaults(func=cmd_fleet)

    p_serve = sub.add_parser(
        "serve",
        help="serve a result-cache directory over HTTP (GET entries by "
             "key, PUT to publish checked runs)",
    )
    p_serve.add_argument("dir", metavar="DIR",
                         help="store directory: a --cache directory "
                              "(or a copy of one) serves its entries "
                              "as they are; created if missing")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1; use "
                              "0.0.0.0 to serve worker hosts)")
    p_serve.add_argument("--port", type=int, default=8750,
                         help="bind port (default 8750; 0 picks a free one)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every request")
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser("cache", help="result-cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="show hits/misses/entries/bytes for a cache directory"
    )
    p_stats.add_argument("dir", metavar="DIR",
                         help="cache directory (as passed to --cache)")
    p_stats.set_defaults(func=cmd_cache_stats)
    p_gc = cache_sub.add_parser(
        "gc", help="evict cached runs oldest-first to fit size/age bounds"
    )
    p_gc.add_argument("dir", metavar="DIR",
                      help="cache directory (as passed to --cache)")
    p_gc.add_argument("--max-bytes", type=int, metavar="N",
                      help="evict oldest entries until the cache fits N bytes")
    p_gc.add_argument("--max-age", type=float, metavar="SECONDS",
                      help="evict entries last written more than SECONDS ago")
    p_gc.add_argument("--max-entries", type=int, metavar="N",
                      help="evict oldest entries until at most N remain")
    p_gc.add_argument("--lru", action="store_true",
                      help="evict by last hit instead of write age: "
                           "never-hit entries go first, recently-used "
                           "entries survive however old their bytes are "
                           "(--max-age still cuts on write age)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be evicted without deleting")
    p_gc.set_defaults(func=cmd_cache_gc)

    for name, func, extra in (
        ("figures", cmd_figures, True),
        ("table1", cmd_table1, False),
        ("claims", cmd_claims, False),
        ("smp", cmd_smp, False),
    ):
        help_text = (
            "per-CPU utilisation report (TLP + core breakdown)"
            if name == "smp" else f"regenerate {name}"
        )
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--results", help="load a saved suite JSON "
                                         "instead of re-running")
        _add_exec_flags(p)
        if extra:
            p.add_argument("--figure", type=int, choices=(1, 2, 3, 4))
            p.add_argument("--csv", action="store_true")
            p.add_argument("--ascii", action="store_true")
        if name == "table1":
            p.add_argument("--top", type=int, default=10)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream consumer (| head, | grep -q) closed the pipe.
        # Don't traceback, but don't claim success either: the command
        # was cut short mid-stream (later side effects like --out may
        # not have happened).  128+SIGPIPE matches the shell convention.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
