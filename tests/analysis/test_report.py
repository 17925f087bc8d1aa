"""Tests for the paper-style report formatting."""

from repro.analysis.report import (
    Table1Cell,
    format_table,
    format_table1,
)


def test_format_table_alignment():
    out = format_table(["a", "long_header"], [[1, 2], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1  # rectangular


def test_format_table_empty_rows():
    out = format_table(["x", "y"], [])
    assert "x" in out and "y" in out


def test_format_table1_layout():
    cells = [
        Table1Cell("CG", 64, 4, 3.8, 62.5),
        Table1Cell("CG", 64, 8, 4.4, 56.3),
        Table1Cell("FT", 64, 4, 37.2, 62.4),
    ]
    out = format_table1(cells)
    assert "64/4cl %log" in out and "64/8cl %log" in out
    assert "3.8" in out and "37.2" in out
    # missing cell rendered as '-'
    assert "-" in out.splitlines()[-1]


def test_format_table1_sorted_configs():
    cells = [
        Table1Cell("CG", 128, 4, 1, 2),
        Table1Cell("CG", 64, 4, 3, 4),
    ]
    out = format_table1(cells)
    header = out.splitlines()[0]
    assert header.index("64/4cl") < header.index("128/4cl")
