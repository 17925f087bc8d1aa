"""Tests for the paper-style report formatting."""

from repro.analysis.report import format_table, format_table1


def row(kernel, ranks, clusters, pct_log, pct_rollback):
    """One :func:`repro.campaigns.table1_cell` result row."""
    return {"kernel": kernel, "ranks": ranks, "clusters": clusters,
            "pct_log": pct_log, "pct_rollback": pct_rollback}


def test_format_table_alignment():
    out = format_table(["a", "long_header"], [[1, 2], [333, 4]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines)) == 1  # rectangular


def test_format_table_empty_rows():
    out = format_table(["x", "y"], [])
    assert "x" in out and "y" in out


def test_format_table1_layout():
    rows = [
        row("CG", 64, 4, 3.8, 62.5),
        row("CG", 64, 8, 4.4, 56.3),
        row("FT", 64, 4, 37.2, 62.4),
    ]
    out = format_table1(rows)
    assert "64/4cl %log" in out and "64/8cl %log" in out
    assert "3.8" in out and "37.2" in out
    # missing cell rendered as '-'
    assert "-" in out.splitlines()[-1]


def test_format_table1_sorted_configs():
    rows = [
        row("CG", 128, 4, 1, 2),
        row("CG", 64, 4, 3, 4),
    ]
    out = format_table1(rows)
    header = out.splitlines()[0]
    assert header.index("64/4cl") < header.index("128/4cl")
