"""Tests for the ASCII recovery timeline."""

from repro.analysis import Timeline, render_timeline
from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world


def run(failure=True):
    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=25, cells=4),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    if failure:
        ctl.inject_failure(5e-5, 2)
        ctl.arm()
    world.launch()
    duration = world.run()
    return world, duration


def test_timeline_shows_failure_and_restores():
    world, duration = run()
    art = render_timeline(world.tracer, duration)
    assert "X" in art            # the failure
    assert "r" in art            # at least one restore
    assert "c" in art            # checkpoints
    assert art.count("rank") == 4
    assert "legend" not in art   # legend is symbols, not the word


def row_bodies(art):
    return [l.split("|", 1)[1] for l in art.splitlines() if l.startswith("rank")]


def test_timeline_failure_free_has_no_marks():
    world, duration = run(failure=False)
    body = "".join(row_bodies(render_timeline(world.tracer, duration)))
    assert "X" not in body and "r" not in body and "=" not in body
    assert "c" in body


def test_marks_list_every_checkpoint_failure_and_restore():
    # always on, and exactly what the tracer's full event log of the same
    # run used to hold for these three kinds (kind, time, rank, detail)
    world, _duration = run()
    assert world.tracer.marks == [
        ("checkpoint", 0.0, 0, (1,)),
        ("checkpoint", 0.0, 1, (1,)),
        ("checkpoint", 0.0, 2, (1,)),
        ("checkpoint", 0.0, 3, (1,)),
        ("checkpoint", 2.2453781512605047e-05, 0, (2,)),
        ("checkpoint", 2.2453781512605047e-05, 1, (2,)),
        ("checkpoint", 2.526050420168068e-05, 2, (2,)),
        ("checkpoint", 2.8067226890756313e-05, 3, (2,)),
        ("checkpoint", 4.490756302521009e-05, 0, (3,)),
        ("checkpoint", 4.490756302521009e-05, 1, (3,)),
        ("checkpoint", 4.771428571428572e-05, 2, (3,)),
        ("failure", 5e-05, 2, ()),
        ("restore", 5.308403361344538e-05, 2, (3,)),
        ("checkpoint", 6.863277310924375e-05, 2, (4,)),
        ("checkpoint", 7.401512605042021e-05, 0, (4,)),
        ("checkpoint", 7.401512605042021e-05, 1, (4,)),
        ("checkpoint", 7.401512605042021e-05, 3, (3,)),
        ("checkpoint", 9.08554621848739e-05, 2, (5,)),
    ]


def test_recovery_spans_follow_restores():
    world, duration = run()
    tl = Timeline.from_tracer(world.tracer, duration)
    spans = tl.recovery_spans(2)
    assert spans, "the failed rank must show a re-execution span"
    for start, end in spans:
        assert 0 <= start <= end <= duration


def test_rows_fixed_width():
    world, duration = run()
    art = render_timeline(world.tracer, duration, width=50)
    rows = [l for l in art.splitlines() if l.startswith("rank")]
    assert len({len(r) for r in rows}) == 1


# ----------------------------------------------------------------------
# Overlapping recovery intervals and multiple failures (synthetic marks
# drive recovery_spans; a two-failure run drives render_timeline)
# ----------------------------------------------------------------------
class _FakeTracer:
    def __init__(self, nprocs, marks):
        self.nprocs = nprocs
        self.marks = marks


def _Ev(time, rank, kind):
    return (kind, time, rank, ())


def test_recovery_spans_back_to_back_restores():
    # two restores with no mark in between: the first span must close at
    # the second restore, not swallow it (overlapping intervals)
    tl = Timeline(1, 10.0, {0: [(2.0, "r"), (5.0, "r")]})
    assert tl.recovery_spans(0) == [(2.0, 5.0), (5.0, 10.0)]


def test_recovery_spans_close_at_next_mark_or_duration():
    tl = Timeline(1, 10.0, {0: [(1.0, "X"), (2.0, "r"), (4.0, "c"),
                                (6.0, "X"), (7.0, "r")]})
    assert tl.recovery_spans(0) == [(2.0, 4.0), (7.0, 10.0)]


def test_recovery_spans_ignore_unsorted_mark_insertion():
    tl = Timeline(1, 8.0, {0: [(5.0, "r"), (1.0, "X"), (2.0, "r"), (6.0, "c")]})
    # sorted internally: spans are (2,5) and (5,6)
    assert tl.recovery_spans(0) == [(2.0, 5.0), (5.0, 6.0)]


def test_render_two_failures_two_recovery_stretches():
    events = [
        _Ev(1.0, 0, "checkpoint"), _Ev(1.2, 1, "checkpoint"),
        _Ev(3.0, 1, "failure"), _Ev(3.4, 1, "restore"),
        _Ev(5.0, 1, "checkpoint"),
        _Ev(7.0, 1, "failure"), _Ev(7.5, 1, "restore"),
        _Ev(9.0, 1, "checkpoint"),
    ]
    art = render_timeline(_FakeTracer(2, events), 10.0, width=60)
    rows = row_bodies(art)
    assert rows[1].count("X") == 2 and rows[1].count("r") == 2
    # re-execution shading appears after each restore, and execution
    # resumes ('-') between the two recovery stretches
    first_r = rows[1].index("r")
    second_x = rows[1].rindex("X")
    assert "=" in rows[1][first_r:second_x]
    assert "-" in rows[1][first_r:second_x]
    assert "=" in rows[1][second_x:]
    # rank 0 saw no failure: clean lifeline
    assert "X" not in rows[0] and "=" not in rows[0]


def test_two_real_failures_render_and_span_consistency():
    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=40, cells=4),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    ctl.inject_failure(5e-5, 2)
    ctl.inject_failure(9e-5, 1)
    ctl.arm()
    world.launch()
    duration = world.run()
    assert len(ctl.recovery_reports) == 2
    art = render_timeline(world.tracer, duration)
    body = "".join(row_bodies(art))
    assert body.count("X") >= 2
    tl = Timeline.from_tracer(world.tracer, duration)
    for rank in range(4):
        spans = tl.recovery_spans(rank)
        # spans are ordered and lie within the run
        assert all(0 <= s <= e <= duration for s, e in spans)
        assert spans == sorted(spans)
    # both killed ranks re-executed at least once
    assert tl.recovery_spans(2) and tl.recovery_spans(1)
