"""Virtual-time metric series: periodic snapshots of live instruments.

:class:`TimeSeriesRecorder` turns the registry's end-of-run aggregates into
*time-resolved* curves — logged bytes accumulating between checkpoints,
the recovery line growing as acks land, GC reclaiming logs after an epoch
advance — the shapes the paper's claims are actually about.

Sampling model (why this is not ``schedule_at``)
------------------------------------------------
Samples land on a fixed virtual-time grid ``base + k * interval`` driven by
a *boundary hook inside the engine's dispatch loop*: before dispatching an
event whose timestamp has reached the next grid point, the engine calls
:meth:`sample_through`, which records every crossed boundary and returns
the next one.  Between events the simulation state is constant, so the
value read when the boundary is crossed *is* the state at the boundary.

Scheduling sampler callbacks as queue events would be simpler but is
observable: each event consumes a sequence number (closing the network's
same-instant burst windows), moves the dispatch count the 1-in-N depth
samples stride on, and keeps the queue non-empty (upsetting drain/deadlock
detection).  The boundary hook consumes no sequence numbers and adds no
queue entries, so arming the recorder — or changing its interval —
provably cannot perturb event order: the final registry of an
instrumented run is byte-identical with the recorder on or off (asserted
by tests/obs/test_timeseries.py).
Like the rest of the registry, everything is driven by the virtual clock,
never wall time, so RPD002 stays clean and runs stay bit-reproducible.

Probes are registered once at world-construction time (engine, network and
controller each contribute their series) and must be cheap: every reader
runs at every grid point.  Two kinds exist:

* ``gauge`` probes record the instantaneous value.
* ``counter`` probes additionally record the per-window delta, giving
  rates without post-processing.

``snapshot()`` / ``merge()`` follow the registry contract: plain-data,
picklable, and merged in task order by the sweep executor so ``--workers
N`` output is byte-identical for any worker count.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import SimulationError

__all__ = [
    "TimeSeriesRecorder",
    "DEFAULT_TIMESERIES_INTERVAL",
]

#: default sampling interval, in virtual seconds (~30-60 points for the
#: bundled kernels at Table I scale; cheap enough for the <=1.05x budget)
DEFAULT_TIMESERIES_INTERVAL = 1e-5


class _Series:
    """One named curve: parallel time/value lists that keep every sample.

    Counter-kind series carry a third list ``d`` of per-window deltas.
    """

    __slots__ = ("name", "kind", "t", "v", "d", "prev")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.t: list[float] = []
        self.v: list[float] = []
        self.d: list[float] | None = [] if kind == "counter" else None
        self.prev = 0.0  # last raw counter reading, for window deltas


class TimeSeriesRecorder:
    """Samples registered probes at a fixed virtual-time grid.

    Created by ``MetricsRegistry(timeseries_interval=...)``; bound to the
    first engine constructed against that registry (``bind_engine`` is
    first-wins, so a reference re-run sharing the registry cannot mix its
    series into another world's curves).
    """

    __slots__ = (
        "interval",
        "samples_taken",
        "next_time",
        "series",
        "_engine",
        "_base",
        "_k",
        "_gauges",
        "_counters",
    )

    def __init__(self, interval: float):
        if not interval > 0.0:
            raise SimulationError(
                f"time-series interval must be > 0, got {interval!r}"
            )
        self.interval = float(interval)
        self.samples_taken = 0
        self.next_time = float("inf")  # armed by bind_engine
        self.series: dict[str, _Series] = {}
        self._engine: Any = None
        self._base = 0.0
        self._k = 1
        # probe lists the sampling loop iterates: (series, reader) pairs
        self._gauges: list[tuple[_Series, Callable[[], float]]] = []
        self._counters: list[tuple[_Series, Callable[[], float]]] = []

    # ------------------------------------------------------------------
    # Binding & registration
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Any:
        return self._engine

    def bind_engine(self, engine: Any) -> bool:
        """Arm the grid against ``engine``'s clock.  First engine wins:
        returns ``False`` (and changes nothing) if already bound, so
        components gate their probe registration on ``ts.engine is
        <their engine>`` and a second world sharing the registry stays
        out of the series."""
        if self._engine is not None:
            return self._engine is engine
        self._engine = engine
        self._base = engine.now
        self._k = 1
        # grid points are base + k*interval by *multiplication*, never by
        # repeated addition — no float-accumulation drift between runs of
        # different lengths
        self.next_time = self._base + self.interval
        return True

    def _new_series(self, name: str, kind: str) -> _Series:
        if name in self.series:
            raise SimulationError(f"time series {name!r} already registered")
        s = _Series(name, kind)
        self.series[name] = s
        return s

    def probe(self, name: str, fn: Callable[[], float], kind: str = "gauge") -> None:
        """Register a reader sampled at every grid point.

        ``kind="counter"`` readers must be monotone; their per-window
        delta is recorded alongside the raw value.  Readers must be pure
        observations — never schedule events or mutate simulation state.
        """
        if kind not in ("gauge", "counter"):
            raise SimulationError(f"unknown time-series kind {kind!r}")
        s = self._new_series(name, kind)
        if kind == "counter":
            self._counters.append((s, fn))
        else:
            self._gauges.append((s, fn))

    # ------------------------------------------------------------------
    # Sampling (called from the engine dispatch loop)
    # ------------------------------------------------------------------
    def sample_through(self, t: float) -> float:
        """Record every grid boundary ``<= t``; returns the new next one.

        The engine calls this just before dispatching an event at time
        ``>= next_time`` (and once more when a run horizon passes the
        boundary with the queue drained), so each sample sees the state
        *at* the boundary — nothing has executed past it yet.
        """
        nxt = self.next_time
        interval = self.interval
        base = self._base
        k = self._k
        gauges = self._gauges
        counters = self._counters
        samples = 0
        while nxt <= t:
            for s, fn in gauges:
                s.t.append(nxt)
                s.v.append(fn())
            for s, fn in counters:
                cur = fn()
                s.t.append(nxt)
                s.v.append(cur)
                s.d.append(cur - s.prev)
                s.prev = cur
            samples += 1
            k += 1
            nxt = base + k * interval
        if samples:
            self.samples_taken += samples
            self._k = k
            self.next_time = nxt
        return nxt

    # ------------------------------------------------------------------
    # Snapshot / merge (the registry contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-data, picklable copy of every series (registration order)."""
        series: dict[str, dict[str, Any]] = {}
        for name, s in self.series.items():
            data: dict[str, Any] = {
                "kind": s.kind,
                "t": list(s.t),
                "v": list(s.v),
            }
            if s.d is not None:
                data["d"] = list(s.d)
            series[name] = data
        return {
            "interval": self.interval,
            "samples": self.samples_taken,
            "series": series,
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Concatenate another recorder's snapshot, in call order.

        The sweep parent merges worker snapshots in task order, so the
        merged curves are byte-identical for any ``--workers N``.
        """
        if not snap:
            return
        if snap["interval"] != self.interval:
            raise SimulationError(
                "cannot merge time series with different intervals: "
                f"{snap['interval']!r} vs {self.interval!r}"
            )
        for name, data in snap.get("series", {}).items():
            s = self.series.get(name)
            if s is None:
                s = _Series(name, data["kind"])
                self.series[name] = s
            elif s.kind != data["kind"]:
                raise SimulationError(
                    f"time series {name!r} kind mismatch: "
                    f"{s.kind} vs {data['kind']}"
                )
            s.t.extend(data["t"])
            s.v.extend(data["v"])
            if s.d is not None:
                s.d.extend(data.get("d", ()))
        self.samples_taken += snap.get("samples", 0)
