"""Tests of the benchmark's own code: declared names, failure counting,
and the traced run's per-layer metrics on miniature workloads."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from perfbench import bench, tracer

with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
#: Metrics bench.py adds to the tracer's own.
ADDED_LAYER_METRICS = {"cli.import_s", "trace.overhead_s"}


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]] + PER_LAYER
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))


def test_declarations_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.APPLIES) == set(PER_LAYER)
    for workloads in bench.APPLIES.values():
        assert workloads <= set(bench.WORKLOADS)
    reported = set(tracer.layer_metrics(
        tracer.Tracer("unused", "/nowhere/repro").state(), 1.0))
    assert reported | ADDED_LAYER_METRICS == set(PER_LAYER)
    assert not reported & ADDED_LAYER_METRICS


# ---------------------------------------------------------------------------
# Failure counting, against a fake program

FAKE_MAIN = '''
import os
import sys

here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
if __name__ == "__main__":
    with open(os.path.join(here, "mode")) as fh:
        mode = fh.read()
    calls_path = os.path.join(here, "calls")
    calls = int(open(calls_path).read()) + 1 if os.path.exists(calls_path) else 1
    with open(calls_path, "w") as fh:
        fh.write(str(calls))
    if mode == "exit3":
        sys.exit(3)
    args = sys.argv[1:]
    with open(args[args.index("--out") + 1], "w") as fh:
        fh.write("run %d" % calls if mode == "drift" else "steady")
'''


@pytest.mark.parametrize("mode, seed, failed", [
    ("steady", 7, 0),
    ("drift", 7, 1),      # the second run's output differs from the first's
    ("exit3", 7, 2),      # nonzero exit
    ("steady", 1234, 2),  # default seed: differs from the recorded digest
])
def test_failed_runs_are_counted(tmp_path, mode, seed, failed):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(FAKE_MAIN)
    (tmp_path / "mode").write_text(mode)
    result = bench.run("suite_cold", seed, seconds=0, trace=False,
                       root=tmp_path)
    assert result["attempted"] == bench.MIN_REPS == 2
    assert result["failed"] == failed
    assert result["correct"] is (failed == 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_missing_program_is_an_error(tmp_path):
    with pytest.raises(bench.SetupError):
        bench.run("suite_cold", 1234, seconds=0, trace=False, root=tmp_path)


def test_probe_samples_are_taken_from_the_command_span(tmp_path):
    path = tmp_path / "probe0.txt"
    path.write_text("1.0 0.5\n10.0 0.001\n10.2 0.003\n10.4 0.002\n20.0 0.9\n")
    probes = bench.Probes.__new__(bench.Probes)  # the file, no processes
    probes.files = {0: path, 1: tmp_path / "unused"}
    assert probes.median([0], 10.0, 10.3) == pytest.approx(0.002)
    with pytest.raises(bench.SetupError):
        probes.median([0], 30.0, 31.0)


# ---------------------------------------------------------------------------
# Per-layer arithmetic


def test_self_time_is_charged_to_the_innermost_repro_package():
    trace = tracer.Tracer("unused", "/x/repro")
    namespace: dict = {}
    exec(compile("import sys\ndef grab(cb):\n    cb(sys._getframe())\n",
                 "/elsewhere/heapq.py", "exec"), namespace)
    exec(compile("def run(grab, cb):\n    grab(cb)\n",
                 "/x/repro/sim/engine.py", "exec"), namespace)
    namespace["run"](namespace["grab"], lambda f: trace.on_sample(0, f))
    assert dict(trace.samples) == {"sim": 1}

    state = trace.state()
    state["samples"] = {"sim": 3, "kernel": 1}
    state["units"] = [["a", 1, 10.0, 12.0]]
    metrics = tracer.layer_metrics(state, 4.0)
    assert metrics["self_s.sim"] == pytest.approx(1.5)
    assert metrics["self_s.kernel"] == pytest.approx(0.5)
    assert metrics["backends.worker_busy_frac"] == pytest.approx(0.5)


def test_dispatch_overhead_excludes_queueing():
    units = [["u1", 7, 1.0, 3.0], ["u2", 7, 3.1, 5.0]]
    submits = [["u1", 0.5, 3.2], ["u2", 0.6, 5.3]]
    # u1 could start at 0.5; u2 only once u1 left the worker at 3.0.
    assert tracer.dispatch_overhead(units, submits) == pytest.approx(
        (3.2 - 0.5 - 2.0) + (5.3 - 3.0 - 1.9))


# ---------------------------------------------------------------------------
# Miniature traced runs: every metric is reported, and every metric that
# applies to a workload is nonzero on its miniature.

MINI = ["--duration", "0.05", "--settle-ms", "20"]


def traced(tmp_path, name: str, argv: "list[str]") -> dict:
    out = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(bench.ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "tracer.py"),
         str(tmp_path / f"{name}-spool"), str(out), "--", *MINI, *argv],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def assert_applies(workload: str, metrics: dict) -> None:
    assert set(metrics) | ADDED_LAYER_METRICS == set(PER_LAYER)
    for name, workloads in bench.APPLIES.items():
        # Sampled self time is too coarse for a miniature run.
        if workload in workloads and name in metrics and not name.startswith("self_s."):
            assert metrics[name] > 0, (workload, name)


def test_suite_layers(tmp_path):
    argv = ["suite", "--cache", str(tmp_path / "cache"),
            "--bench", "countdown.main", "--bench", "999.specrand"]
    cold = traced(tmp_path, "cold", argv + ["--out", str(tmp_path / "a.json")])
    assert_applies("suite_cold", cold)
    assert cold["backends.units"] == 2
    warm = traced(tmp_path, "warm", argv + ["--out", str(tmp_path / "b.json")])
    assert_applies("replay_warm", warm)
    assert warm["results.hit_ratio"] == 1.0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_fleet_layers(tmp_path):
    from repro.service import make_server

    argv = ["fleet", "--devices", "6", "--jobs", "2"]
    pool = traced(tmp_path, "pool", argv + ["--out", str(tmp_path / "a.json")])
    assert_applies("fleet_pool", pool)
    server = make_server(str(tmp_path / "store"), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://127.0.0.1:%d" % server.server_address[1]
        remote = argv + ["--cache-url", url]
        traced(tmp_path, "fill", remote + ["--out", str(tmp_path / "b.json")])
        replay = traced(tmp_path, "replay",
                        remote + ["--out", str(tmp_path / "c.json")])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_applies("replay_remote", replay)
    assert replay["service.hit_ratio"] == 1.0
    assert replay["backends.units"] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()
