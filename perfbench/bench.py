"""The repository benchmark: four ``repro`` CLI workloads timed from outside.

Every timed repetition is a fresh ``python -m repro`` process, so each
one pays what a CLI user pays on every invocation: interpreter start,
imports and SPEC calibration (the in-process ``SpecModel._profiles``
memo and the module cache would hide both after a first repetition).
Each repetition gets its own cache directory and output path, and every
output file is checked by sha256 (see :func:`check_output`).

Host times are compensated for the speed of the cores they ran on.
Every command of a run is pinned to the run's cores, and a probe
(``probe.py``) on each of those cores times a fixed piece of Python work
every 50 ms.  On hosts whose cores share their physical core with other
tenants, the same command can take 1.8 times longer from one minute to
the next; the probe slows down with it.  So ``wall_s``, ``cpu_s`` and
``setup_s`` are reported in seconds on a reference core: measured
seconds times :data:`PROBE_REF_S` over the median probe time of the
samples taken while the command ran.  The raw record keeps the measured
seconds and probe time of every sample.

``--trace 1`` runs the workload once untraced and once through
``tracer.py`` (in-process, with timing wrappers around each layer's
public callables), and reports the per-layer metrics plus the tracing
overhead: traced wall time minus untraced wall time.

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; run ``python3 perfbench/run.py --help`` for usage.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass
from pathlib import Path

#: The checkout: the program under ``src/``, ``BENCHMARK.json`` at the top.
ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
#: Scratch space and kept raw records, inside the checkout (gitignored).
STATE = ".perfbench"

DEFAULT_SEED = 1234
#: Fleet size of the two fleet workloads (200 devices dedupe to ~110 units).
FLEET_DEVICES = 200
#: Pool size of the two fleet workloads: one worker per core of the
#: two-core hosts the benchmark was sized on.
FLEET_JOBS = 2
#: Fewest timed repetitions per run, however long each one takes.
MIN_REPS = 2
#: No repetition starts once a run has taken this long, so a run of a
#: slow program still ends within three minutes.
RUN_BUDGET_S = 120.0
#: Kill a single command after this long (counted as a failure).
COMMAND_TIMEOUT_S = 90.0
#: ``python -c pass`` / ``import repro.__main__`` pairs behind
#: ``cli.import_s``.
IMPORT_PAIRS = 5
#: ``probe.work()`` CPU time on the reference core: a reported second is
#: a measured second on a core where the probe takes this long (about
#: the fastest the probe ran on the two-core hosts the benchmark was
#: sized on).
PROBE_REF_S = 0.0006
#: Probe samples this long before and after a command still count for it.
PROBE_PAD_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``suite`` or ``fleet``: which CLI command runs.
    command: str
    #: Replays read a cache that setup fills; cold runs start empty.
    replay: bool
    #: Set-ups timed per run (``setup_s`` is their median).
    setups: int = 3
    #: Cores the timed command (and a replay's server) is pinned to.
    cores: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite_cold", "suite", replay=False),
        Workload("fleet_pool", "fleet", replay=False, cores=FLEET_JOBS),
        # A replay's set-up includes a whole cold run as its fill (10 s
        # for the suite, 5 s for the fleet): two set-ups, not three.
        Workload("replay_warm", "suite", replay=True, setups=2),
        # Simulates nothing, so client and server share one core: each
        # GET is then a switch on that core, not a wake-up of another.
        Workload("replay_remote", "fleet", replay=True, setups=2),
    )
}

#: Per-layer metrics that must be nonzero on a workload in a traced run
#: (the rest read zero there because the layer is not on its path).
APPLIES = {
    "cli.import_s": set(WORKLOADS),
    "apps.spec_calibrate_s": {"suite_cold"},
    "android.boot_s": {"suite_cold", "fleet_pool"},
    "android.boot_calls": {"suite_cold", "fleet_pool"},
    "sim.settle_s": {"suite_cold", "fleet_pool"},
    "sim.window_s": {"suite_cold", "fleet_pool"},
    "sim.refs_per_s": {"suite_cold", "fleet_pool"},
    "self_s.sim": {"suite_cold", "fleet_pool"},
    "self_s.kernel": {"suite_cold", "fleet_pool"},
    "self_s.android": {"suite_cold", "fleet_pool"},
    "self_s.dalvik": {"suite_cold", "fleet_pool"},
    "self_s.libs": {"suite_cold", "fleet_pool"},
    "self_s.apps": {"suite_cold"},
    "results.put_s": {"suite_cold"},
    "results.put_calls": {"suite_cold"},
    "results.encode_s": {"suite_cold", "replay_warm"},
    "results.get_s": {"suite_cold", "replay_warm"},
    "results.get_calls": {"suite_cold", "replay_warm"},
    "results.hit_ratio": {"replay_warm"},
    "results.decode_s": {"replay_warm", "replay_remote"},
    "results.save_s": {"suite_cold", "replay_warm"},
    "backends.units": {"suite_cold", "fleet_pool"},
    "backends.dispatch_overhead_s": {"fleet_pool"},
    "backends.worker_busy_frac": {"suite_cold", "fleet_pool"},
    "stats.consume_s": {"fleet_pool", "replay_remote"},
    "service.get_s": {"replay_remote"},
    "service.get_calls": {"replay_remote"},
    "service.hit_ratio": {"replay_remote"},
    # Traced minus untraced wall time: may be any sign, so never gated.
    "trace.overhead_s": set(),
}


class SetupError(RuntimeError):
    """A workload could not be prepared; the run reports no result."""


# ---------------------------------------------------------------------------
# Commands


@dataclass
class Sample:
    """One timed command: host cost plus what its output hashed to."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    digest: "str | None"
    #: ``time.monotonic()`` span of the command.
    started: float = 0.0
    ended: float = 0.0
    #: Median probe time on the command's cores while it ran.
    probe_s: "float | None" = None
    failure: "str | None" = None

    @property
    def scale(self) -> float:
        """Measured seconds to reference-core seconds."""
        return PROBE_REF_S / self.probe_s


def sha256_file(path: Path) -> "str | None":
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def timed_command(argv: "list[str]", env: dict, log: Path,
                  out: "Path | None" = None, cwd: Path = ROOT,
                  cpus: "set[int] | None" = None,
                  timeout: float = COMMAND_TIMEOUT_S) -> Sample:
    """Run *argv* to completion, pinned to *cpus*, and measure it from
    outside.

    ``os.wait4`` returns the child's resource usage, which includes
    every descendant it reaped (pool workers): CPU is user + sys of the
    whole tree and peak RSS the largest single process in it.
    """
    killed = threading.Event()
    with open(log, "wb") as log_fh:
        begun = time.monotonic()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log_fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        if cpus is not None:
            os.sched_setaffinity(proc.pid, cpus)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        timed_out=killed.is_set(),
        digest=sha256_file(out) if out is not None else None,
        started=begun,
        ended=time.monotonic(),
    )


def check_output(sample: Sample, expected: "list[tuple[str, str]]") -> Sample:
    """Mark *sample* failed on a nonzero exit, a timeout, a missing
    output or a digest differing from any ``(what, digest)`` expected."""
    if sample.timed_out:
        sample.failure = "timed out"
    elif sample.exit_code != 0:
        sample.failure = f"exit code {sample.exit_code}"
    elif sample.digest is None:
        sample.failure = "no output file"
    else:
        for what, digest in expected:
            if digest is not None and sample.digest != digest:
                sample.failure = f"output digest differs from {what}"
                break
    return sample


class Probes:
    """One ``probe.py`` process per core, for the length of a run."""

    def __init__(self, cores: "list[int]", directory: Path, env: dict) -> None:
        self.files = {core: directory / f"probe{core}.txt" for core in cores}
        self.procs = [
            subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"),
                              str(core), str(path)],
                             stdin=subprocess.DEVNULL, env=env)
            for core, path in self.files.items()
        ]
        try:
            deadline = time.monotonic() + 10
            while not all(p.exists() and p.stat().st_size
                          for p in self.files.values()):
                if time.monotonic() > deadline:
                    raise SetupError("the core-speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def median(self, cores: "list[int]", started: float,
               ended: float) -> float:
        """Median probe time on *cores* from *started* to *ended*."""
        times = []
        for path in map(self.files.get, cores):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    fields = line.split()
                    if (len(fields) == 2 and started - PROBE_PAD_S
                            <= float(fields[0]) <= ended + PROBE_PAD_S):
                        times.append(float(fields[1]))
        if not times:
            raise SetupError("the core-speed probe took no samples")
        return statistics.median(times)

    def close(self) -> None:
        for proc in self.procs:
            stop_process(proc)


# ---------------------------------------------------------------------------
# One benchmark invocation


@dataclass
class Prepared:
    """What a workload's set-up leaves for its timed repetitions."""

    directory: Path
    #: Filled cache to copy per repetition (``replay_warm``).
    cache: "Path | None" = None
    #: Result-service process and URL (``replay_remote``).
    server: "subprocess.Popen | None" = None
    url: "str | None" = None
    #: Digest of the fill's own output (the cold run behind a replay).
    fill_digest: "str | None" = None
    #: Entries the fill stored, each of which a replay must hit.
    entries: int = 0

    def close(self) -> None:
        if self.server is not None:
            stop_process(self.server)
            self.server = None


def stop_process(proc: subprocess.Popen) -> None:
    """Terminate *proc* and wait for it to end."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Bench:
    """One run of one workload at one seed, inside its own directory."""

    def __init__(self, workload: Workload, seed: int, root: Path,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(root / "src"), TMPDIR=str(self.tmp))
        # Fixed cores, so every command of every run sees the same
        # placement: one for the serial suite, one per fleet worker (the
        # replay's fill simulates a whole fleet).
        width = FLEET_JOBS if workload.command == "fleet" else 1
        self.cores = sorted(os.sched_getaffinity(0))[:width]
        self.rep_cores = self.cores[:workload.cores]
        self.probes: "Probes | None" = None
        self._counter = 0

    def fresh_dir(self, label: str) -> Path:
        self._counter += 1
        path = self.work / f"{label}{self._counter}"
        path.mkdir()
        return path

    def python(self, *args: str) -> "list[str]":
        return [sys.executable, *args]

    def timed(self, argv: "list[str]", log: Path, out: "Path | None" = None,
              cores: "list[int] | None" = None) -> Sample:
        """Time ``python argv`` in the checkout with the run's environment,
        on *cores* (default: all the run's cores)."""
        cores = cores or self.cores
        sample = timed_command(self.python(*argv), self.env, log, out,
                               cwd=self.root, cpus=set(cores))
        if self.probes is not None:
            sample.probe_s = self.probes.median(cores, sample.started,
                                                sample.ended)
        return sample

    def repro_argv(self, out: Path, cache: "Path | None" = None,
                   url: "str | None" = None) -> "list[str]":
        """The workload's command line: the seed goes only to ``--seed``."""
        argv = ["-m", "repro", "--seed", str(self.seed), self.workload.command]
        if self.workload.command == "fleet":
            argv += ["--devices", str(FLEET_DEVICES), "--jobs", str(FLEET_JOBS)]
        if cache is not None:
            argv += ["--cache", str(cache)]
        if url is not None:
            argv += ["--cache-url", url]
        return argv + ["--out", str(out)]

    def run_checked(self, argv: "list[str]", directory: Path,
                    name: str = "cmd") -> Sample:
        """A set-up command that must succeed."""
        out = directory / f"{name}.json"
        sample = self.timed(argv, directory / f"{name}.log", out)
        if sample.timed_out or sample.exit_code != 0 or sample.digest is None:
            log = (directory / f"{name}.log").read_text(errors="replace")
            raise SetupError(f"{' '.join(argv)} failed "
                             f"(exit {sample.exit_code}):\n{log[-2000:]}")
        return sample

    # -- set-up -------------------------------------------------------------

    def setup(self) -> Prepared:
        """Prepare one set of inputs: directories, an import check, and
        for the replays the cache fill (local) or server start + fill."""
        prepared = Prepared(self.fresh_dir("setup"))
        try:
            if not self.workload.replay:
                # The program must import before anything is timed; this
                # also leaves its bytecode cached as a user's would be.
                check = self.timed(["-c", "import repro.__main__"],
                                   prepared.directory / "import.log")
                if check.exit_code != 0:
                    log = (prepared.directory / "import.log").read_text()
                    raise SetupError(f"repro does not import:\n{log[-2000:]}")
            elif self.workload.command == "suite":
                prepared.cache = prepared.directory / "cache"
                fill = self.run_checked(
                    self.repro_argv(prepared.directory / "fill.json",
                                    cache=prepared.cache),
                    prepared.directory, "fill")
                prepared.fill_digest = fill.digest
                prepared.entries = len(cache_entries(prepared.cache))
            else:
                prepared.server, prepared.url = self.start_server(
                    prepared.directory)
                fill = self.run_checked(
                    self.repro_argv(prepared.directory / "fill.json",
                                    url=prepared.url),
                    prepared.directory, "fill")
                prepared.fill_digest = fill.digest
                prepared.entries = service_stats(prepared.url)["puts"]
            if self.workload.replay and prepared.entries == 0:
                raise SetupError("the cache fill stored no entries")
        except BaseException:
            prepared.close()
            raise
        return prepared

    def start_server(self, directory: Path):
        """``repro serve`` on a free port; returns ``(process, url)``."""
        log = directory / "serve.log"
        with open(log, "wb") as log_fh:
            proc = subprocess.Popen(
                self.python("-m", "repro", "serve", str(directory / "store"),
                            "--port", "0"),
                stdout=log_fh, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
        try:
            os.sched_setaffinity(proc.pid, set(self.rep_cores))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                found = re.search(r"on (http://[\d.]+:\d+)/",
                                  log.read_text(errors="replace"))
                if found:
                    return proc, found.group(1)
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            raise SetupError("repro serve did not start:\n"
                             + log.read_text(errors="replace")[-2000:])
        except BaseException:
            stop_process(proc)
            raise

    # -- timed repetitions --------------------------------------------------

    def expected(self, prepared: Prepared, reference: "str | None"):
        """The digests a repetition's output must equal."""
        expected = [("the same command's other runs", reference)]
        if prepared.fill_digest is not None:
            expected.append(("the cold run behind the replay",
                             prepared.fill_digest))
        if self.seed == DEFAULT_SEED:
            expected.append(("the digest recorded at the default seed",
                             recorded_digests()[self.workload.command]))
        return expected

    def repetition(self, prepared: Prepared, reference: "str | None",
                   traced: bool = False) -> "tuple[Sample, Path]":
        """One timed command (or traced run) on fresh paths, checked;
        returns the sample and the repetition's directory."""
        rep = self.fresh_dir("rep")
        cache = None
        if self.workload.command == "suite":
            cache = rep / "cache"
            if prepared.cache is not None:
                shutil.copytree(prepared.cache, cache)
        before = service_stats(prepared.url) if prepared.url else None
        argv = self.repro_argv(rep / "out.json", cache=cache, url=prepared.url)
        if traced:
            argv = [str(BENCH_DIR / "tracer.py"), str(rep / "spool"),
                    str(rep / "trace.json"), "--", *argv[2:]]
        sample = self.timed(argv, rep / "cmd.log", rep / "out.json",
                            cores=self.rep_cores)
        check_output(sample, self.expected(prepared, reference))
        if sample.failure is None and self.workload.replay:
            sample.failure = self.replay_miss(prepared, cache, before)
        return sample, rep

    def replay_miss(self, prepared: Prepared, cache: "Path | None",
                    before: "dict | None") -> "str | None":
        """Why a replay was not served wholly from its cache, if it was not."""
        if cache is not None:
            now, then = cache_stats(cache), cache_stats(prepared.cache)
        else:
            now, then = service_stats(prepared.url), before
            now = {"hits": now["hot_hits"] + now["store_hits"],
                   "misses": now["misses"]}
            then = {"hits": then["hot_hits"] + then["store_hits"],
                    "misses": then["misses"]}
        hits = now["hits"] - then["hits"]
        misses = now["misses"] - then["misses"]
        if hits != prepared.entries or misses:
            return (f"replay served {hits} of {prepared.entries} entries "
                    f"from its cache ({misses} misses)")
        return None

    def measure(self, seconds: float) -> dict:
        """Untraced run: repeat the command for *seconds*, report medians
        of reference-core seconds."""
        self.probes = Probes(self.cores, self.work, self.env)
        try:
            return self._measure(seconds)
        finally:
            self.probes.close()

    def _measure(self, seconds: float) -> dict:
        setups, prepared = self.timed_setups()
        samples: "list[Sample]" = []
        try:
            started = time.monotonic()
            reference = None
            while (len(samples) < MIN_REPS
                   or time.monotonic() - started < seconds):
                if time.monotonic() - started > RUN_BUDGET_S:
                    break
                sample, _ = self.repetition(prepared, reference)
                if reference is None and sample.exit_code == 0:
                    reference = sample.digest
                samples.append(sample)
                progress(f"{self.workload.name} rep {len(samples)}: "
                         f"{sample.wall_s:.3f} s wall, {sample.cpu_s:.3f} s cpu, "
                         f"probe {sample.probe_s * 1e3:.3f} ms"
                         + (f" FAILED ({sample.failure})"
                            if sample.failure else ""))
        finally:
            prepared.close()
        ok = [s for s in samples if s.failure is None] or samples
        metrics = {
            "wall_s": statistics.median(s.wall_s * s.scale for s in ok),
            "cpu_s": statistics.median(s.cpu_s * s.scale for s in ok),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
            "setup_s": statistics.median(
                t["wall_s"] * PROBE_REF_S / t["probe_s"] for t in setups),
        }
        return {"samples": samples, "setups": setups, "metrics": metrics}

    def timed_setups(self) -> "tuple[list[dict], Prepared]":
        """Set up ``workload.setups`` times; keep only the last.  Returns
        each set-up's measured seconds and probe time, and the last."""
        times: "list[dict]" = []
        prepared = None
        for _ in range(self.workload.setups):
            if prepared is not None:
                prepared.close()
            begun, started = time.monotonic(), time.perf_counter()
            prepared = self.setup()
            took = time.perf_counter() - started
            try:
                probe = self.probes.median(self.cores, begun, time.monotonic())
            except BaseException:
                prepared.close()
                raise
            times.append({"wall_s": took, "probe_s": probe})
        return times, prepared

    def measure_traced(self) -> dict:
        """Traced run: per-layer metrics and the tracing overhead."""
        prepared = self.setup()
        try:
            plain, _ = self.repetition(prepared, None)
            traced, rep = self.repetition(
                prepared, plain.digest if plain.exit_code == 0 else None,
                traced=True)
        finally:
            prepared.close()
        trace = None
        metrics = {}
        if traced.failure is None:
            with open(rep / "trace.json", encoding="utf-8") as fh:
                trace = json.load(fh)
            metrics = dict(trace["metrics"])
        metrics["cli.import_s"] = self.import_seconds()
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        return {"samples": [plain, traced], "metrics": metrics, "trace": trace}

    def import_seconds(self) -> float:
        """Import time of ``repro.__main__`` in a fresh interpreter, minus
        a bare interpreter start (median of interleaved pairs)."""
        log = self.work / "import.log"
        diffs = []
        for _ in range(IMPORT_PAIRS):
            bare = self.timed(["-c", "pass"], log, cores=self.rep_cores)
            full = self.timed(["-c", "import repro.__main__"], log,
                              cores=self.rep_cores)
            diffs.append(full.wall_s - bare.wall_s)
        return statistics.median(diffs)


# ---------------------------------------------------------------------------
# Cache and service probes


def cache_entries(cache: Path) -> "list[str]":
    return [p.name for p in cache.iterdir()
            if p.suffix == ".json" and not p.name.startswith("_")]


def cache_stats(cache: Path) -> dict:
    """Persisted hit/miss counters of a ``ResultCache`` directory."""
    try:
        with open(cache / "_stats.json", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        return {"hits": 0, "misses": 0}
    return {"hits": raw.get("hits", 0), "misses": raw.get("misses", 0)}


def service_stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


# ---------------------------------------------------------------------------
# Records


def metric_units(trace: bool) -> "dict[str, str]":
    """Units of the metrics a run reports, as ``BENCHMARK.json`` declares
    them: the end-to-end list untraced, the per-layer list traced."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def recorded_digests() -> dict:
    """Output digests at the default seed, by command (``digests.json``)."""
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def source_digest(root: Path) -> str:
    """sha256 over the program's sources (the checkout may not be a git
    repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_context() -> dict:
    return {
        "time": time.time(),
        "loadavg_1m": os.getloadavg()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path = ROOT) -> dict:
    """One benchmark invocation of the program under *root*; returns the
    result object to print.

    Keeps the raw record (every sample, set-up times, host context
    before and after) under ``.perfbench/runs/`` in *root*.
    """
    if not (root / "src" / "repro" / "__main__.py").is_file():
        raise SetupError(f"no program to benchmark under {root / 'src'}")
    workload = WORKLOADS[workload_name]
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(), "host_before": host_context(),
    }
    work = root / STATE / "work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(workload, seed, root, work)
        measured = bench.measure_traced() if trace else bench.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["host_after"] = host_context()
    samples = measured.pop("samples")
    record["samples"] = [asdict(s) for s in samples]
    record.update(measured)
    failed = sum(1 for s in samples if s.failure is not None)
    units = metric_units(trace)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in measured["metrics"].items()},
    }
    record["result"] = result
    record["error_rate"] = failed / len(samples)
    runs = root / STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs / f"{stamp}-{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    progress(f"raw record: {path}")
    return result
