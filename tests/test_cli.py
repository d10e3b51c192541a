"""CLI surface: parsing and the cheap subcommands end to end."""

import pytest

from repro.cli import build_parser, main


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("stacks", "conformance", "heatmap", "fairness", "intercca",
                "fixes", "sweep", "serve", "submit", "watch"):
        assert sub in text


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_stacks_command(capsys):
    assert main(["stacks"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out
    assert "quiche" in out and "xquic" in out


def test_conformance_command_quick(capsys):
    code = main(
        [
            "conformance", "--stack", "quicgo", "--cca", "reno",
            "--bandwidth", "10", "--rtt", "20",
            "--duration", "8", "--trials", "2", "--plot",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "conf" in out
    assert "envelope" in out  # ASCII plots requested


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_stack_rejected():
    with pytest.raises(SystemExit):
        main(["conformance", "--stack", "nope", "--cca", "cubic"])


def test_chaos_matrix_choices(capsys):
    """A typo in ``chaos --matrix`` is a usage error (exit 2) that names
    every real matrix, not a traceback from the chaos runner."""
    from repro.faults.plan import MATRIX_CLASSES

    for name in MATRIX_CLASSES:
        args = build_parser().parse_args(["chaos", "--matrix", name])
        assert args.matrix == name
    with pytest.raises(SystemExit) as err:
        main(["chaos", "--matrix", "nope"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "invalid choice: 'nope'" in stderr
    assert all(name in stderr for name in MATRIX_CLASSES)
    assert "fleet-smoke" in stderr

