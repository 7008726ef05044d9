"""The command-line interface."""

import pytest

from repro.__main__ import main, make_parser


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "aard.main" in out
    assert "999.specrand" in out
    assert out.count("[agave]") == 19
    assert out.count("[spec ]") == 6


def test_run_command(capsys):
    code = main(["--duration", "0.5", "--settle-ms", "200",
                 "run", "countdown.main"])
    assert code == 0
    out = capsys.readouterr().out
    assert "countdown.main" in out
    assert "references" in out
    assert "top instruction regions" in out


def test_suite_save_and_figures_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "mini.json")
    # A mini-suite via the API, then CLI analysis over the saved file.
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner(RunConfig(duration_ticks=millis(500),
                                   settle_ticks=millis(200)))
    suite = runner.run_suite(["countdown.main", "401.bzip2"])
    suite.save(path)

    assert main(["figures", "--results", path, "--figure", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "countdown.main" in out

    assert main(["table1", "--results", path]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out

    main(["claims", "--results", path])  # exit code may be non-zero on a mini-suite
    out = capsys.readouterr().out
    assert "claims hold" in out


def test_figures_csv_mode(tmp_path, capsys):
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner(RunConfig(duration_ticks=millis(400),
                                   settle_ticks=millis(200)))
    suite = runner.run_suite(["countdown.main"])
    path = str(tmp_path / "one.json")
    suite.save(path)
    assert main(["figures", "--results", path, "--figure", "2", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("benchmark,category,percent")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["not-a-command"])


def test_parser_global_flags():
    args = make_parser().parse_args(["--no-jit", "--seed", "7", "list"])
    assert args.no_jit
    assert args.seed == 7


@pytest.mark.parametrize("argv", [
    ["suite", "--cache-revalidate", "--bench", "countdown.main"],
    ["sweep", "--cache", "{cache}", "--cache-url", "http://127.0.0.1:9",
     "--cache-revalidate", "--bench", "countdown.main"],
    ["fleet", "--devices", "1", "--cache-url", "http://127.0.0.1:9",
     "--cache-revalidate"],
    ["serve", "{cache}", "--hot-bytes", "0"],
    ["serve", "{cache}", "--max-age", "60"],
])
def test_removed_service_flags_are_rejected(argv, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [arg.replace("{cache}", str(cache)) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""           # nothing ran
    assert not cache.exists()           # and no directory was made
