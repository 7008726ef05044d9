"""Import budget: the CLI loads only what the subcommand it runs needs,
and the lazy package re-exports still resolve every public name."""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Modules a plain ``repro suite`` never uses; importing the CLI must not
#: load them.
NOT_AT_CLI_IMPORT = (
    "concurrent.futures.process",
    "multiprocessing",
    "repro.analysis",
    "repro.core.fleet",
    "repro.core.sweep",
    "repro.core.backends.async_",
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
    "package", ["repro", "repro.core", "repro.analysis", "repro.core.backends"]
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
