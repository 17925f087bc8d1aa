"""The examples must stay runnable — they are the first thing users try."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "validity check" in out
    assert "rolled back" in out


def test_scenario_fig1(capsys):
    run_example("scenario_fig1.py")
    out = capsys.readouterr().out
    assert "partial rollback" in out


def test_domino_effect(capsys):
    run_example("domino_effect.py")
    out = capsys.readouterr().out
    assert "domino" in out


def test_clustered_nas(capsys):
    run_example("clustered_nas.py", ["CG", "16"])
    out = capsys.readouterr().out
    assert "%log" in out and "%rl" in out


def test_recovery_timeline(capsys):
    run_example("recovery_timeline.py", ["6"])
    out = capsys.readouterr().out
    assert "rank" in out and "rolled back" in out


def test_checkpoint_interval_table_matches_the_live_protocol():
    """The interval table prints a row per kernel and cluster count (its
    cells against the live protocol: ``tests/analysis/test_cell_trace.py``)."""
    example = runpy.run_path(str(EXAMPLES / "checkpoint_interval.py"))
    lines = example["interval_table"](16, 4)
    assert len(lines) == 3 + 6 and lines[3].startswith("| LU 4cl |")
