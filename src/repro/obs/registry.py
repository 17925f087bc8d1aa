"""Metrics registry: counters, gauges and histograms.

The observability subsystem gives every layer of the stack a shared place
to record *attributable* measurements — events dispatched per callback
class, bytes per channel, messages logged per epoch, recovery-round
durations — without coupling the layers to any output format.  Exporters
(:mod:`repro.obs.export`) turn a registry into JSON-lines or CSV.

All timestamps under a :class:`MetricsRegistry` (flight records, the
time-series grid) come from the *virtual* clock, never from wall time, so
an instrumented run stays bit-reproducible.  "Observability off"
is ``None``: every component takes ``obs=None`` by default and guards its
instrumentation with one identity comparison — there is no disabled
registry object.

Instruments are created lazily and idempotently by name; asking twice for
the same name returns the same object, asking for the same name with a
different type or label set raises.

The hot-path contract
---------------------
An instrumented world counts each thing once.  Components resolve their
instruments **once at construction**:

* A count the component keeps anyway — messages per channel, deliveries,
  acks — is *read*, not counted again (:meth:`MetricsRegistry.derive`,
  frozen by :meth:`MetricsRegistry.settle` when the owner closes).
* Anything else gets a :class:`CounterCell` from :meth:`Counter.slot`,
  bumped as ``cell.n += amount``.  Label arity is validated at
  slot-resolution time, so a mislabeled call site fails at registration,
  not by silently creating a phantom series.
* Per-event histograms sample **1 in** ``MetricsRegistry.hist_sample``
  (8) on strides of a count the component keeps: deterministic, so
  sampled output is still bit-reproducible and merge-stable across
  worker counts.

The ``counter(name).inc(labels=...)`` path resolves a slot per call and
is for cold paths.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator

from ..errors import SimulationError
from .flight import FlightRecorder
from .timeseries import TimeSeriesRecorder

__all__ = [
    "Counter",
    "CounterCell",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BUCKETS",
    "DEPTH_BUCKETS",
    "SIZE_BUCKETS",
]

#: histogram boundaries for virtual durations, in seconds (1 us .. 10 s)
DURATION_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 1) for m in (1.0, 2.5, 5.0)
)
#: histogram boundaries for queue/in-flight depths (powers of two)
DEPTH_BUCKETS: tuple[float, ...] = tuple(float(1 << k) for k in range(0, 17))
#: histogram boundaries for message sizes in bytes (powers of four)
SIZE_BUCKETS: tuple[float, ...] = tuple(float(1 << k) for k in range(0, 25, 2))


class CounterCell:
    """One ``(counter, label tuple)`` series, resolved to a bare float slot.

    The hot path increments ``cell.n`` directly; there is no name lookup,
    no tuple allocation and no dict probe per event.  Cells are shared:
    every :meth:`Counter.slot` call with the same labels returns the same
    cell.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0  # int until a float amount lands (small-int fast path)


#: an owner's share of a derived counter: ``(labels, count)`` pairs
_Read = Callable[[], Iterable[tuple[tuple, int]]]


class Counter:
    """Monotonically increasing value, optionally split by a label tuple.

    A series is counted in cells, read from counts an owner keeps
    (:meth:`MetricsRegistry.derive`), or both; every read adds them up,
    labels with a cell first, then each read's in its order."""

    __slots__ = ("name", "label_names", "_cells", "reads")

    def __init__(self, name: str, label_names: tuple[str, ...] = ()):
        self.name = name
        self.label_names = label_names
        self._cells: dict[tuple, CounterCell] = {}
        self.reads: list[_Read] = []

    def slot(self, labels: tuple = ()) -> CounterCell:
        """Resolve (and validate) one label series to its mutable cell.

        Label arity is checked here — once, at registration time — so a
        mislabeled call site raises instead of creating a phantom series
        that would corrupt CSV export headers.
        """
        labels = tuple(labels)
        if len(labels) != len(self.label_names):
            raise SimulationError(
                f"counter {self.name!r} takes {len(self.label_names)} "
                f"label(s) {self.label_names}, got {labels!r}"
            )
        cell = self._cells.get(labels)
        if cell is None:
            cell = self._cells[labels] = CounterCell()
        return cell

    def inc(self, amount: float = 1.0, labels: tuple = ()) -> None:
        """Cold-path increment: resolves (and arity-checks) the slot per
        call.  Hot paths cache :meth:`slot` results instead."""
        self.slot(labels).n += amount

    @property
    def values(self) -> dict[tuple, float]:
        """Read-only view: label tuple -> accumulated value."""
        values: dict[tuple, float] = {
            labels: cell.n for labels, cell in self._cells.items()}
        for read in self.reads:
            if values:
                for labels, n in read():
                    values[labels] = values.get(labels, 0) + n
            else:
                values.update(read())
        return values

    @property
    def total(self) -> float:
        return sum(self.values.values())

    def get(self, labels: tuple = ()) -> float:
        return self.values.get(tuple(labels), 0.0)


class Gauge:
    """Instantaneous value with a high-water mark (e.g. in-flight depth)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``bounds`` are the *upper* edges of the first ``len(bounds)`` buckets;
    one implicit overflow bucket catches everything above the last edge.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "min", "max",
                 "_keys")

    def __init__(self, name: str, bounds: tuple[float, ...] = DURATION_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise SimulationError(f"histogram {name}: bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        # the bounds as observe bisects them: ints where integral, so an
        # int value (a depth, a size) compares int to int, twice as fast
        self._keys = tuple(int(b) if b.is_integer() else b for b in self.bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        # first bucket whose upper edge >= value; bisect stays in C
        self.counts[bisect_left(self._keys, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Names → instruments, plus the protocol flight recorder
    (``flight=False``: ``flight`` is ``None``) and the optional
    virtual-time series (``timeseries_interval``).
    """

    #: per-event histograms (engine queue depth, network size/depth/transit,
    #: logged sizes) record events 1, 1 + N, ... of a count their component
    #: keeps: they are what a registry costs an instrumented world (≤1.10×
    #: on a campaign's cells).  Counters, gauge values and cold-path
    #: histograms (recovery round durations) are always exact.
    hist_sample = 8

    def __init__(self, flight: bool = True,
                 timeseries_interval: float | None = None):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: owner -> (reads list, index) of each read it derives, until settled
        self._derived: dict[Any, list[tuple[list[_Read], int]]] = {}
        self.flight = FlightRecorder() if flight else None
        # virtual-time metric series: None (the default) keeps the engine
        # dispatch loop on the recorder-free path entirely
        self.timeseries = (
            TimeSeriesRecorder(timeseries_interval)
            if timeseries_interval is not None else None
        )

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def bind_time_source(self, src: Any) -> None:
        """Attach an object exposing ``.now`` (the engine) as the virtual
        clock of flight records."""
        if self.flight is not None:
            self.flight.bind_time_source(src)

    # ------------------------------------------------------------------
    # Instrument factories (idempotent by name)
    # ------------------------------------------------------------------
    def _get(self, name: str, cls: type, factory: Callable[[], Any]) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise SimulationError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str, label_names: tuple[str, ...] = ()) -> Counter:
        c = self._get(name, Counter, lambda: Counter(name, label_names))
        if c.label_names != label_names:
            raise SimulationError(
                f"counter {name!r} label mismatch: {c.label_names} vs {label_names}"
            )
        return c

    def derive(self, owner: Any, name: str, read: _Read,
               label_names: tuple[str, ...] = ()) -> None:
        """Read ``owner``'s share of counter ``name`` — ``read()`` yields
        ``(labels, count)`` pairs from counts it keeps anyway — at every
        read of the counter, mid-run and after, until :meth:`settle`
        (``owner=None``: never)."""
        reads = self.counter(name, label_names).reads
        reads.append(read)
        if owner is not None:
            self._derived.setdefault(owner, []).append((reads, len(reads) - 1))

    def settle(self, owner: Any) -> None:
        """``owner`` is closing: keep its final counts in place of its
        reads and let go of it — a read closes over its owner, which
        references this registry, and a closed world must not live on."""
        for reads, i in self._derived.pop(owner, ()):
            final = list(reads[i]())
            reads[i] = lambda final=final: final

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: tuple[float, ...] = DURATION_BUCKETS) -> Histogram:
        h = self._get(name, Histogram, lambda: Histogram(name, bounds))
        if h.bounds != tuple(float(b) for b in bounds):
            raise SimulationError(
                f"histogram {name!r} bounds mismatch: {h.bounds} vs {bounds}"
            )
        return h

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def get_counter_total(self, name: str) -> float:
        inst = self._instruments.get(name)
        return inst.total if isinstance(inst, Counter) else 0.0

    # ------------------------------------------------------------------
    # Cross-process snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-data copy of every instrument and the time series —
        picklable, so sweep workers can ship it to the parent process for
        :meth:`merge`.  The flight stream stays behind: its readers dump
        it in the process that recorded it."""
        instruments: dict[str, dict[str, Any]] = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, Counter):
                instruments[name] = {
                    "type": "counter",
                    "label_names": inst.label_names,
                    "values": list(inst.values.items()),
                }
            elif isinstance(inst, Gauge):
                instruments[name] = {
                    "type": "gauge",
                    "value": inst.value,
                    "high_water": inst.high_water,
                }
            elif isinstance(inst, Histogram):
                instruments[name] = {
                    "type": "histogram",
                    "bounds": inst.bounds,
                    "counts": list(inst.counts),
                    "sum": inst.sum,
                    "count": inst.count,
                    "min": inst.min,
                    "max": inst.max,
                }
        return {
            "instruments": instruments,
            "timeseries": (
                self.timeseries.snapshot()
                if self.timeseries is not None else None
            ),
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms add; gauges sum their values and keep a
        high-water mark that is never below the merged aggregate (after
        merging, ``value`` is an aggregate, no longer an instantaneous
        reading, and ``high_water >= value`` stays invariant).  Merging is
        associative and, per instrument, commutative — a parent merging N
        worker snapshots in task order gets the same totals as one
        sequential run.
        """
        if not snap:
            return
        for name, data in snap.get("instruments", {}).items():
            kind = data["type"]
            if kind == "counter":
                c = self.counter(name, tuple(data["label_names"]))
                for labels, value in data["values"]:
                    c.slot(tuple(labels)).n += value
            elif kind == "gauge":
                g = self.gauge(name)
                g.value += data["value"]
                if data["high_water"] > g.high_water:
                    g.high_water = data["high_water"]
                if g.value > g.high_water:
                    # the summed aggregate can exceed every per-worker
                    # high water; clamp so high_water >= value holds
                    g.high_water = g.value
            elif kind == "histogram":
                h = self.histogram(name, tuple(data["bounds"]))
                for i, n in enumerate(data["counts"]):
                    h.counts[i] += n
                h.sum += data["sum"]
                h.count += data["count"]
                h.min = min(h.min, data["min"])
                h.max = max(h.max, data["max"])
            else:
                raise SimulationError(f"cannot merge instrument type {kind!r}")
        ts_snap = snap.get("timeseries")
        if ts_snap:
            if self.timeseries is None:
                # a merge sink (the sweep parent): adopt the workers' grid
                self.timeseries = TimeSeriesRecorder(ts_snap["interval"])
            self.timeseries.merge(ts_snap)
