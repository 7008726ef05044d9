"""Import budget: the CLI loads only what the subcommand it runs needs,
the simulator loads only when a unit actually has to run, and the lazy
package re-exports still resolve every public name."""

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: The simulator: loaded only when a unit has to run, never by the CLI,
#: the catalog, the result codec, the caches or the service client.
SIMULATOR = (
    "repro.core.execute",
    "repro.sim.engine",
    "repro.sim.system",
    "repro.android",
    "repro.kernel",
    "repro.apps",
    "repro.dalvik",
    "repro.libs",
)

#: Modules a plain ``repro suite`` never uses; importing the CLI must not
#: load them.
NOT_AT_CLI_IMPORT = (
    "concurrent.futures.process",
    "multiprocessing",
    "repro.analysis",
    "repro.core.fleet",
    "repro.core.sweep",
    "repro.core.backends.pool",
    *SIMULATOR,
)


def test_cli_import_skips_unused_layers():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = (
        "import sys, repro.__main__\n"
        f"print(','.join(m for m in {NOT_AT_CLI_IMPORT!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "", f"imported by repro.__main__: {out}"


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.core", "repro.analysis", "repro.core.backends",
     "repro.sim", "repro.faults", "repro.kernel"],
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    import repro

    assert set(repro.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name  # noqa: B018


# ----------------------------------------------------------------------
# The orchestration/simulator boundary, observed on whole CLI commands

#: Runs ``repro.__main__.main(argv)`` in this interpreter and prints, as
#: JSON, its exit code, the simulator modules loaded when it returns, how
#: many times it forked, and — appended by each forked child to the file
#: named by ``FORK_LOG`` — the simulator modules each child started with.
PROBE = f"""
import json, os, sys
SIMULATOR = {SIMULATOR!r}
loaded = lambda: [m for m in SIMULATOR if m in sys.modules]
forks = []
def child():
    with open(os.environ["FORK_LOG"], "a") as fh:
        fh.write(json.dumps(loaded()) + "\\n")
os.register_at_fork(before=lambda: forks.append(1), after_in_child=child)
from repro.__main__ import main
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": loaded(), "forks": len(forks)}}))
"""

#: Short windows: these tests are about what loads, not what runs.
WINDOW = ["--duration", "0.3", "--settle-ms", "100"]


def run_cli(tmp_path, *argv):
    """Run the CLI under :data:`PROBE`; returns its report plus the
    simulator modules each forked child started with."""
    log = tmp_path / "forks.log"
    log.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, FORK_LOG=str(log))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stdout
    children = log.read_text().splitlines() if log.exists() else []
    report["children"] = [json.loads(line) for line in children]
    return report


def test_warm_suite_replay_never_loads_the_simulator(tmp_path):
    argv = [*WINDOW, "suite", "--cache", "cache",
            "--bench", "countdown.main", "--bench", "999.specrand"]
    cold = run_cli(tmp_path, *argv, "--out", "cold.json")
    assert cold["loaded"] == list(SIMULATOR)
    warm = run_cli(tmp_path, *argv, "--out", "warm.json")
    assert warm["loaded"] == [] and warm["forks"] == 0
    assert (tmp_path / "warm.json").read_bytes() == \
        (tmp_path / "cold.json").read_bytes()


def test_pooled_fleet_loads_the_simulator_once_before_forking(tmp_path):
    argv = [*WINDOW, "fleet", "--devices", "20", "--jobs", "2",
            "--cache", "cache"]
    cold = run_cli(tmp_path, *argv, "--out", "cold.json")
    # Every pool worker forks with the simulator already imported by the
    # parent, so none of them imports it again.
    assert cold["forks"] == 2
    assert cold["children"] == [list(SIMULATOR)] * 2
    warm = run_cli(tmp_path, *argv, "--out", "warm.json")
    assert warm["loaded"] == [] and warm["forks"] == 0
    assert (tmp_path / "warm.json").read_bytes() == \
        (tmp_path / "cold.json").read_bytes()


@pytest.mark.parametrize("argv", [["list"], ["cache", "stats", "."]])
def test_catalog_and_cache_commands_never_load_the_simulator(tmp_path, argv):
    report = run_cli(tmp_path, *argv)
    assert report["loaded"] == [] and report["forks"] == 0
