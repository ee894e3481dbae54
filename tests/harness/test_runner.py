"""The repro-experiments CLI."""

import subprocess
import sys

import pytest

from repro.harness.runner import EXPERIMENTS, main


def test_experiment_registry_covers_all_tables():
    assert set(EXPERIMENTS) == {
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "table10",
        "figure6",
    }


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out
    assert "figure6" in out


def test_run_single_experiment(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "Jess" in out


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_documented_module_invocation_runs_without_warnings():
    # ``python -m repro.harness.runner`` is the documented CLI; runpy
    # warns if importing the package already imported the module.
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::RuntimeWarning",
            "-m",
            "repro.harness.runner",
            "--list",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "figure6" in result.stdout.split()
