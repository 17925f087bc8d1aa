"""Unit tests for the metrics registry (counters, gauges, histograms,
trace stream) and for ``None`` being what "observability off" means."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.obs import DEPTH_BUCKETS, MetricsRegistry


def test_counter_unlabelled():
    reg = MetricsRegistry()
    c = reg.counter("a")
    c.inc()
    c.inc(2.5)
    assert c.total == 3.5
    assert reg.counter("a") is c  # idempotent by name


def test_counter_labelled():
    reg = MetricsRegistry()
    c = reg.counter("channel.msgs", ("src", "dst"))
    c.inc(labels=(0, 1))
    c.inc(labels=(0, 1))
    c.inc(labels=(1, 0))
    assert c.get((0, 1)) == 2
    assert c.get((1, 0)) == 1
    assert c.total == 3


def test_counter_label_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("x", ("a",))
    with pytest.raises(SimulationError):
        reg.counter("x", ("b",))


def test_instrument_type_clash_rejected():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(SimulationError):
        reg.gauge("m")


def test_gauge_high_water():
    reg = MetricsRegistry()
    g = reg.gauge("depth")
    g.inc(5)
    g.set(2)
    g.inc(1)
    assert g.value == 3
    assert g.high_water == 5


def test_histogram_buckets_and_stats():
    reg = MetricsRegistry()
    h = reg.histogram("h", (1.0, 10.0, 100.0))
    for v in (0.5, 1.0, 5.0, 50.0, 500.0):
        h.observe(v)
    # bucket edges are inclusive upper bounds; last bucket is overflow
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(556.5)
    assert h.min == 0.5 and h.max == 500.0
    assert h.mean == pytest.approx(556.5 / 5)


def test_histogram_rejects_unsorted_bounds():
    reg = MetricsRegistry()
    with pytest.raises(SimulationError):
        reg.histogram("bad", (3.0, 1.0))


def test_depth_buckets_strictly_increasing():
    assert list(DEPTH_BUCKETS) == sorted(set(DEPTH_BUCKETS))


def test_bind_time_source_stamps_events():
    reg = MetricsRegistry()
    reg.flight.record(1, "send")  # no clock yet: time 0
    clock = SimpleNamespace(now=42.0)
    reg.bind_time_source(clock)
    reg.flight.record(1, "send")
    clock.now = 43.5
    reg.flight.record(0, "send")
    assert [rec[0] for rec in reg.flight.records()] == [0.0, 42.0, 43.5]


def test_histogram_bounds_mismatch_rejected():
    # re-registration with different bounds must fail loudly, like
    # counter() label mismatches — not silently keep the first bounds
    reg = MetricsRegistry()
    reg.histogram("h", (1.0, 10.0))
    with pytest.raises(SimulationError):
        reg.histogram("h", (1.0, 10.0, 100.0))
    # same bounds (even as ints) re-register fine
    assert reg.histogram("h", (1, 10)).bounds == (1.0, 10.0)


def test_snapshot_merge_counters_gauges_histograms():
    def build():
        reg = MetricsRegistry()
        reg.counter("c", ("k",)).inc(2, labels=("x",))
        g = reg.gauge("g")
        g.inc(5)
        g.set(3)
        reg.histogram("h", (1.0, 10.0)).observe(3.0)
        return reg

    a, b = build(), build()
    merged = MetricsRegistry()
    merged.merge(a.snapshot())
    merged.merge(b.snapshot())
    assert merged.counter("c", ("k",)).get(("x",)) == 4
    assert merged.gauge("g").value == 6
    # per-worker high waters were 5 each, but the merged aggregate value
    # (6) exceeds both — high_water clamps so high_water >= value holds
    assert merged.gauge("g").high_water == 6
    h = merged.histogram("h", (1.0, 10.0))
    assert h.count == 2 and h.sum == pytest.approx(6.0)
    assert h.min == 3.0 and h.max == 3.0


def test_counter_slot_resolution():
    reg = MetricsRegistry()
    c = reg.counter("hot", ("k",))
    cell = c.slot(("x",))
    assert c.slot(("x",)) is cell  # idempotent: one cell per series
    cell.n += 2.0
    cell.n += 0.5
    assert c.get(("x",)) == 2.5
    assert c.total == 2.5
    assert c.values == {("x",): 2.5}
    # resolving again through the registry finds the same cell
    assert reg.counter("hot", ("k",)).slot(("x",)) is cell


def test_counter_label_arity_rejected():
    reg = MetricsRegistry()
    c = reg.counter("c", ("src", "dst"))
    with pytest.raises(SimulationError):
        c.slot((1,))
    with pytest.raises(SimulationError):
        c.inc(labels=(1, 2, 3))
    with pytest.raises(SimulationError):
        reg.counter("plain").inc(labels=("oops",))
    # the failed resolutions must not have created phantom series
    assert c.values == {}


def test_merged_gauge_high_water_never_below_value():
    # N workers each peak at 5 then settle at 3: the merged aggregate
    # value (9) exceeds every per-worker high water, so the clamp keeps
    # the high_water >= value invariant
    def worker():
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.inc(5)
        g.set(3)
        return reg.snapshot()

    merged = MetricsRegistry()
    for _ in range(3):
        merged.merge(worker())
    g = merged.gauge("depth")
    assert g.value == 9
    assert g.high_water == 9
    assert g.high_water >= g.value


def test_empty_histogram_min_max_survive_merge():
    # min=inf/max=-inf sentinels must propagate through snapshot/merge
    # without poisoning a populated histogram on the other side
    empty = MetricsRegistry()
    empty.histogram("h", (1.0, 10.0))
    full = MetricsRegistry()
    full.histogram("h", (1.0, 10.0)).observe(3.0)

    merged = MetricsRegistry()
    merged.merge(empty.snapshot())
    merged.merge(full.snapshot())
    h = merged.histogram("h", (1.0, 10.0))
    assert h.count == 1
    assert h.min == 3.0 and h.max == 3.0

    still_empty = MetricsRegistry()
    still_empty.merge(empty.snapshot())
    e = still_empty.histogram("h", (1.0, 10.0))
    assert e.count == 0
    assert e.min == float("inf") and e.max == float("-inf")


def test_empty_histogram_exports_none_min_max_after_merge():
    from repro.obs import metric_rows

    merged = MetricsRegistry()
    src = MetricsRegistry()
    src.histogram("h", (1.0, 10.0))
    merged.merge(src.snapshot())
    row = next(r for r in metric_rows(merged) if r["metric"] == "h")
    assert row["count"] == 0
    assert row["min"] is None and row["max"] is None


def test_histogram_sampling_records_every_nth():
    # a per-event histogram strides on a count its component keeps: the
    # log store's logged-size samples land on log entries 1, 1 + 8, ...
    from repro.core.logstore import SenderChannel
    from repro.obs import SIZE_BUCKETS

    reg = MetricsRegistry()
    assert reg.hist_sample == 8
    sender = SenderChannel(obs=reg)
    for size in range(1, 10):  # sent and logged in one go, entry = size
        sender._log_entry(size, 1, 2, None, size)
    h = reg.histogram("logstore.logged_size", SIZE_BUCKETS)
    assert h.count == 2 and h.sum == 1 + 9  # entries 1 and 9 of 9
    assert reg.get_counter_total("logstore.messages_logged") == 9


def test_merge_rejects_histogram_bounds_clash():
    a = MetricsRegistry()
    a.histogram("h", (1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.histogram("h", (2.0,)).observe(0.5)
    b_snap = b.snapshot()
    with pytest.raises(SimulationError):
        a.merge(b_snap)


class _Owner:
    """A component keeping its own count (weak-referenceable)."""

    def __init__(self):
        self.n = 0


def test_derived_counter_reads_its_owner_mid_run_and_after():
    reg = MetricsRegistry()
    owner = _Owner()
    reg.derive(owner, "d", lambda: [((0,), owner.n), ((1,), 2 * owner.n)],
               ("k",))
    c = reg.counter("d", ("k",))
    c.inc(labels=(1,))  # a cell and the owner's count add up
    owner.n = 3
    # labels with a cell come first, then the owner's in its order
    assert list(c.values.items()) == [((1,), 7), ((0,), 3)]
    assert c.total == 10 == reg.get_counter_total("d")
    assert c.get((0,)) == 3
    owner.n = 4  # every read sees the owner's current count
    assert reg.snapshot()["instruments"]["d"]["values"] == [((1,), 9), ((0,), 4)]
    merged = MetricsRegistry()
    merged.merge(reg.snapshot())
    assert merged.counter("d", ("k",)).values == c.values


def test_settle_keeps_the_final_counts_and_lets_the_owner_go():
    import gc
    import weakref

    reg = MetricsRegistry()
    owner = _Owner()
    reg.derive(owner, "d", lambda: [((), owner.n)])
    owner.n = 5
    before = reg.snapshot()
    reg.settle(owner)
    owner.n = 99  # no longer read
    assert reg.snapshot() == before
    ref = weakref.ref(owner)
    del owner
    gc.collect()
    assert ref() is None
    reg.settle(object())  # an owner that derived nothing: a no-op
