"""Traced in-process run of one ``repro`` command: per-layer counters.

Usage::

    PYTHONPATH=src python perfbench/tracer.py SPOOL_DIR OUT.json -- <repro argv>

Installs timing wrappers around the public callables of each layer,
then runs ``repro.__main__.main(argv)`` in this process.  Pool workers
are forked, so they inherit the wrappers; each worker spools its own
counters to ``SPOOL_DIR/<pid>.json`` after every unit, and this process
merges them when the command returns.  Profiler self time comes from a
``SIGPROF`` sampler armed only inside ``execute_one``: each sample is
charged to the package of the innermost ``repro`` frame, and a
package's self time is its share of the samples times the
``execute_one`` wall time.

The wrapped callables, by layer:

- ``core.runner``: ``execute_one`` (units, per-unit wall, total refs);
- ``sim``: ``System.__init__`` (part of boot) and ``System.run_for``
  (the first call of a unit is the settle, later calls the window,
  both net of any SPEC calibration that runs inside them);
- ``android``: ``boot_android``;
- ``apps.spec``: every SPEC model's ``calibrate``;
- ``core.results``: ``ResultCache.get``/``put``,
  ``RunResult.to_json_dict``/``from_json_dict`` and ``SuiteResult.save``;
- ``core.backends``: ``ProcessPoolExecutor.__init__``/``submit`` seen
  from the parent, matched against the workers' ``execute_one`` spans;
- ``core.stats``: ``SketchSet.observe``;
- ``service``: ``CacheClient.get_entry``.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

#: SIGPROF period (CPU seconds) of the self-time sampler.
SAMPLE_INTERVAL_S = 0.002

#: Packages whose sampled self time is reported.
SELF_PACKAGES = ("sim", "kernel", "android", "dalvik", "libs", "apps")


def unit_key(bench_id: str, cfg: object) -> str:
    """Identifies one work unit on both sides of the pool boundary."""
    return f"{bench_id}|{cfg!r}"


class Tracer:
    """Counters of one process, merged across forked workers by spooling."""

    def __init__(self, spool_dir: str, repro_root: str) -> None:
        self.spool_dir = spool_dir
        self.repro_root = repro_root.rstrip(os.sep) + os.sep
        self.root_pid = os.getpid()
        self._packages: "dict[str, str | None]" = {}
        self.reset()

    def reset(self) -> None:
        """Empty counters (also run in each forked child, which must not
        re-report what its parent had counted before the fork)."""
        self._lock = threading.Lock()
        self.seconds: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.samples: Counter = Counter()
        #: Worker-side ``execute_one`` spans: ``[key, pid, start, end]``.
        self.units: "list[list]" = []
        #: Parent-side pool submissions: ``[key, submitted, done]``.
        self.submits: "list[list]" = []
        self.refs = 0
        self.pool_workers = 0
        self.run_for_calls = 0

    def record(self, name: str, seconds: float, hit: "bool | None" = None) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1
            if hit:
                self.hits[name] += 1

    def package_of(self, filename: str) -> "str | None":
        """The top-level ``repro`` package a source file belongs to."""
        pkg = self._packages.get(filename, "")
        if pkg == "":
            pkg = None
            if filename.startswith(self.repro_root):
                head = filename[len(self.repro_root):].split(os.sep, 1)[0]
                pkg = head[:-3] if head.endswith(".py") else head
            self._packages[filename] = pkg
        return pkg

    def on_sample(self, signum, frame) -> None:
        while frame is not None:
            pkg = self.package_of(frame.f_code.co_filename)
            if pkg is not None:
                self.samples[pkg] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def state(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "hits": dict(self.hits),
                "samples": dict(self.samples),
                "units": list(self.units),
                "submits": list(self.submits),
                "refs": self.refs,
                "pool_workers": self.pool_workers,
            }

    def spool(self) -> None:
        """Publish this worker's cumulative counters (atomic replace)."""
        path = os.path.join(self.spool_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh)
        os.replace(tmp, path)

    def merged(self) -> dict:
        """This process's counters plus every worker's last spool."""
        total = self.state()
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.spool_dir, name), encoding="utf-8") as fh:
                part = json.load(fh)
            for field in ("seconds", "calls", "hits", "samples"):
                for key, value in part[field].items():
                    total[field][key] = total[field].get(key, 0) + value
            total["units"] += part["units"]
            total["submits"] += part["submits"]
            total["refs"] += part["refs"]
        return total


def _timed(tracer: Tracer, name: str, fn, is_hit=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        hit = None
        try:
            result = fn(*args, **kwargs)
            if is_hit is not None:
                hit = is_hit(result)
            return result
        finally:
            tracer.record(name, time.perf_counter() - started, hit)

    return wrapper


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, is_hit=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_timed(tracer, name, raw.__func__, is_hit)))
    else:
        setattr(cls, attr, _timed(tracer, name, raw, is_hit))


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of *original* at
    *replacement* (``from x import f`` copies the reference)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary this tracer reports on."""
    import repro.__main__  # noqa: F401 — binds the CLI's imports first
    import repro.apps.spec  # noqa: F401 — defines every SPEC model
    from repro.android import boot
    from repro.apps.spec.base import SpecModel
    from repro.core import results, runner, stats
    from repro.service import client
    from repro.sim.system import System

    original_execute = runner.execute_one

    def execute_one(bench_id, cfg):
        tracer.run_for_calls = 0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        started = time.perf_counter()
        try:
            result = original_execute(bench_id, cfg)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            ended = time.perf_counter()
        with tracer._lock:
            tracer.units.append(
                [unit_key(bench_id, cfg), os.getpid(), started, ended]
            )
            tracer.refs += result.total_refs
        if os.getpid() != tracer.root_pid:
            tracer.spool()
        return result

    functools.update_wrapper(execute_one, original_execute)
    _rebind(original_execute, execute_one)

    original_run_for = System.run_for

    @functools.wraps(original_run_for)
    def run_for(self, duration, max_ops=None):
        name = "sim.settle" if tracer.run_for_calls == 0 else "sim.window"
        tracer.run_for_calls += 1
        # SPEC models calibrate lazily, inside the window's first ops:
        # that host time is reported as apps.spec_calibrate_s, not sim.
        calibrating = tracer.seconds["apps.spec_calibrate"]
        started = time.perf_counter()
        try:
            return original_run_for(self, duration, max_ops)
        finally:
            tracer.record(name, time.perf_counter() - started
                          - (tracer.seconds["apps.spec_calibrate"] - calibrating))

    System.run_for = run_for
    _wrap_method(tracer, System, "__init__", "sim.system_init")
    original_boot = boot.boot_android
    _rebind(original_boot, _timed(tracer, "android.boot_android", original_boot))
    for cls in _subclasses(SpecModel):
        if "calibrate" in cls.__dict__:
            _wrap_method(tracer, cls, "calibrate", "apps.spec_calibrate")

    found = lambda result: result is not None
    _wrap_method(tracer, results.ResultCache, "get", "results.get", found)
    _wrap_method(tracer, results.ResultCache, "put", "results.put")
    _wrap_method(tracer, results.RunResult, "to_json_dict", "results.encode")
    _wrap_method(tracer, results.RunResult, "from_json_dict", "results.decode")
    _wrap_method(tracer, results.SuiteResult, "save", "results.save")
    _wrap_method(tracer, stats.SketchSet, "observe", "stats.consume")
    _wrap_method(tracer, client.CacheClient, "get_entry", "service.get",
                 lambda response: response[0] == 200)

    original_init = ProcessPoolExecutor.__init__
    original_submit = ProcessPoolExecutor.submit

    @functools.wraps(original_init)
    def pool_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        with tracer._lock:
            tracer.pool_workers = max(tracer.pool_workers, self._max_workers)

    @functools.wraps(original_submit)
    def submit(self, fn, /, *args, **kwargs):
        submitted = time.perf_counter()
        future = original_submit(self, fn, *args, **kwargs)
        if len(args) == 2:
            key = unit_key(*args)

            def done(_future):
                with tracer._lock:
                    tracer.submits.append([key, submitted, time.perf_counter()])

            future.add_done_callback(done)
        return future

    ProcessPoolExecutor.__init__ = pool_init
    ProcessPoolExecutor.submit = submit

    signal.signal(signal.SIGPROF, tracer.on_sample)
    os.register_at_fork(after_in_child=tracer.reset)


def dispatch_overhead(units: "list[list]", submits: "list[list]") -> float:
    """Summed pool overhead: per unit, parent-observed wall minus the
    worker's ``execute_one`` wall.

    A unit's parent-observed wall runs from the moment it could start
    (submitted, and its worker done with the previous unit) to the
    parent seeing its result, so queueing behind busy workers is not
    counted as overhead.
    """
    span = {key: (pid, start, end) for key, pid, start, end in units}
    previous_end: "dict[str, float]" = {}
    by_worker: "defaultdict[int, list]" = defaultdict(list)
    for key, (pid, start, end) in span.items():
        by_worker[pid].append((start, end, key))
    for spans in by_worker.values():
        spans.sort()
        for (_, end, _), (_, _, key) in zip(spans, spans[1:]):
            previous_end[key] = end
    total = 0.0
    for key, submitted, done in submits:
        if key not in span:
            continue
        _, start, end = span[key]
        ready = max(submitted, previous_end.get(key, submitted))
        total += (done - ready) - (end - start)
    return total


def layer_metrics(state: dict, main_wall_s: float) -> "dict[str, float]":
    """Per-layer metric values from merged counters."""
    secs = lambda name: state["seconds"].get(name, 0.0)
    calls = lambda name: state["calls"].get(name, 0)
    ratio = lambda num, den: num / den if den else 0.0
    exec_s = sum(end - start for _, _, start, end in state["units"])
    samples = state["samples"]
    sampled = sum(samples.values())
    metrics = {
        "apps.spec_calibrate_s": secs("apps.spec_calibrate"),
        "android.boot_s": secs("sim.system_init") + secs("android.boot_android"),
        "android.boot_calls": calls("android.boot_android"),
        "sim.settle_s": secs("sim.settle"),
        "sim.window_s": secs("sim.window"),
        "sim.refs_per_s": ratio(state["refs"], secs("sim.window")),
    }
    for pkg in SELF_PACKAGES:
        metrics[f"self_s.{pkg}"] = exec_s * ratio(samples.get(pkg, 0), sampled)
    metrics.update({
        "results.put_s": secs("results.put"),
        "results.put_calls": calls("results.put"),
        "results.encode_s": secs("results.encode"),
        "results.get_s": secs("results.get"),
        "results.get_calls": calls("results.get"),
        "results.hit_ratio": ratio(state["hits"].get("results.get", 0),
                                   calls("results.get")),
        "results.decode_s": secs("results.decode"),
        "results.save_s": secs("results.save"),
        "backends.units": len(state["units"]),
        "backends.dispatch_overhead_s": dispatch_overhead(
            state["units"], state["submits"]),
        "backends.worker_busy_frac": ratio(
            exec_s, max(state["pool_workers"], 1) * main_wall_s),
        "stats.consume_s": secs("stats.consume"),
        "service.get_s": secs("service.get"),
        "service.get_calls": calls("service.get"),
        "service.hit_ratio": ratio(state["hits"].get("service.get", 0),
                                   calls("service.get")),
    })
    return metrics


def main(argv: "list[str]") -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPOOL_DIR OUT.json -- <repro argv>",
              file=sys.stderr)
        return 2
    spool_dir, out_path, command = argv[0], argv[1], argv[3:]
    os.makedirs(spool_dir, exist_ok=True)
    import repro

    tracer = Tracer(spool_dir, os.path.dirname(os.path.abspath(repro.__file__)))
    install(tracer)
    from repro.__main__ import main as repro_main

    started = time.perf_counter()
    code = repro_main(command)
    wall = time.perf_counter() - started
    state = tracer.merged()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": code,
            "main_wall_s": wall,
            "metrics": layer_metrics(state, wall),
            "counters": {k: v for k, v in state.items()
                         if k not in ("units", "submits")},
        }, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
