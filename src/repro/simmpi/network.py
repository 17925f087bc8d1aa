"""Reliable FIFO network with a latency/bandwidth timing model.

The paper's system model (Section II-A) assumes *reliable FIFO channels*
between every ordered pair of processes, *no bound* on transmission delay
and *no order* between messages on different channels.  This module
implements exactly that:

* per-``(src, dst)`` channels deliver in send order (FIFO is enforced even
  when the timing model would reorder — a later large message never
  overtakes an earlier small one on the same channel);
* messages on different channels are delivered whenever their individually
  computed delays expire, so cross-channel reordering happens naturally;
* an optional deterministic jitter (seeded) perturbs delays so tests can
  explore many interleavings reproducibly.

Acknowledgements travel as records, not envelopes, through the same
transmit core (:meth:`Network.transmit_ack`) to the destination's ack sink.

Fail-stop support: the :class:`Network` drops in-flight traffic addressed
to a rank that dies before it arrives (messages are lost with the process,
as on a real cluster); what the dying rank already emitted stays on the
wire.  The purge finds the dead rank's queued deliveries, envelopes and
acks alike, in the engine's calendar: no per-message in-flight index.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import SimulationError
from ..obs.registry import DEPTH_BUCKETS, SIZE_BUCKETS
from .engine import Engine
from .message import Envelope

__all__ = ["TimingModel", "Network"]


@dataclass(frozen=True)
class TimingModel:
    """First-order LogGP-style cost model.

    ``latency`` is the zero-byte one-way latency (seconds); ``bandwidth``
    the asymptotic link bandwidth (bytes/second); ``per_byte_overhead`` an
    additional per-byte CPU cost charged to the *sender* (used by the
    protocol performance model to account for logging copies);
    ``send_overhead`` the fixed CPU cost of posting a send.

    The defaults approximate the Myri-10G fabric of the paper's testbed
    (~2.2 us short-message latency, ~9.5 Gb/s peak — Fig. 6).
    """

    latency: float = 2.2e-6
    bandwidth: float = 1.19e9  # bytes/s  (~9.5 Gb/s)
    send_overhead: float = 0.3e-6
    per_byte_overhead: float = 0.0
    jitter: float = 0.0  # relative, in [0, 1); 0 disables

    def transit_time(self, size: int, rng: random.Random | None = None) -> float:
        """One-way network time for ``size`` bytes (excludes sender CPU)."""
        base = self.latency + size / self.bandwidth
        if self.jitter and rng is not None:
            base *= 1.0 + self.jitter * rng.random()
        return base

    def sender_cpu_time(self, size: int) -> float:
        """CPU time the sender spends to emit ``size`` bytes."""
        return self.send_overhead + size * self.per_byte_overhead


class Network:
    """Delivers envelopes between ranks with FIFO-per-channel semantics.

    Parameters
    ----------
    engine:
        The event engine used to schedule deliveries.
    timing:
        Cost model; a fast "null" model (zero latency) is handy for pure
        protocol tests, while benchmarks use calibrated models.
    seed:
        Seed for the deterministic jitter stream.
    """

    def __init__(self, engine: Engine, timing: TimingModel | None = None, seed: int = 0,
                 obs: Any = None):
        self.engine = engine
        #: the envelope-uid counter of the world this network carries (its
        #: ``World.next_uid``); acks draw from it too
        self.next_uid = itertools.count(1).__next__
        self.timing = timing or TimingModel()
        # the model is a frozen dataclass, so its parameters are loop
        # invariants of transmit(); cache them as locals-of-self to keep
        # the per-message cost to plain arithmetic
        self._latency = self.timing.latency
        self._bandwidth = self.timing.bandwidth
        self._send_overhead = self.timing.send_overhead
        self._per_byte = self.timing.per_byte_overhead
        self._jitter = self.timing.jitter
        self._rng = random.Random(seed)
        # rank -> callable(Envelope), and rank -> its ack sink(src, record)
        self._receivers: dict[int, Callable[[Envelope], None]] = {}
        self._ack_sinks: dict[int, Any] = {}
        # src << 32 | dst (no tuple per channel) -> [arrival of its last
        # envelope, messages, bytes]: the FIFO clamp's record and the
        # network.channel.* series
        self._channels: dict[int, list] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        # delivery callbacks, bound once: a purge matches them by identity
        self._on_deliver = self._deliver
        self._on_ack = self._deliver_ack
        #: called, then cleared, by the delivery that leaves nothing in flight
        #: after its receiver ran (a paused rank still acks); None: no waiter
        self.on_drained: Callable[[], None] | None = None
        # send / delivery counts of the next sampled tick (0: never)
        self._tx_due = self._rx_due = 0
        self.obs = obs
        if obs is not None:
            # the counters read what the network counts anyway; the
            # histograms and gauge sample send / delivery 1, 1 + N, ...
            channels = self._channels
            labels: dict[int, tuple[int, int]] = {}  # one per channel, both series

            def per_channel(slot: int) -> list:
                return [(labels.setdefault(chan, divmod(chan, 1 << 32)), rec[slot])
                        for chan, rec in channels.items()]

            obs.derive(self, "network.channel.messages", lambda: per_channel(1), ("src", "dst"))
            obs.derive(self, "network.channel.bytes", lambda: per_channel(2), ("src", "dst"))
            self._size_hist = obs.histogram("network.message_size", SIZE_BUCKETS)
            self._in_flight_gauge = obs.gauge("network.in_flight")
            self._depth_hist = obs.histogram(
                "network.in_flight_depth", DEPTH_BUCKETS
            )
            obs.derive(self, "network.messages_delivered",
                       lambda: [((), self.messages_delivered)])
            self._transit_hist = obs.histogram("network.transit_time_s")
            self._hist_interval = obs.hist_sample
            self._tx_due = self._rx_due = 1
            # virtual-time series probes (sampled at grid boundaries only,
            # so plain-attribute readers cost nothing per event); gated on
            # the recorder being bound to *this* world's engine
            ts = getattr(obs, "timeseries", None)
            if ts is not None and ts.engine is engine:
                ts.probe("network.in_flight", self.in_flight_count)
                ts.probe("network.messages_sent",
                         lambda: self.messages_sent, kind="counter")
                ts.probe("network.messages_delivered",
                         lambda: self.messages_delivered, kind="counter")
                ts.probe("network.bytes_sent",
                         lambda: self.bytes_sent, kind="counter")

    # ------------------------------------------------------------------
    def attach(self, rank: int, receiver: Callable[[Envelope], None],
               ack_sink: Callable[[int, Any], None] | None = None) -> None:
        """Register ``rank``'s inbound NIC: ``receiver(env)`` takes its
        envelopes, ``ack_sink(src, record)`` its acknowledgements."""
        self._receivers[rank] = receiver
        self._ack_sinks[rank] = ack_sink

    def close(self) -> None:
        """Forget the receivers and sinks: they reference the processes
        behind them (see ``World.close``)."""
        self._receivers.clear()
        self._ack_sinks.clear()
        self._on_deliver = self._on_ack = self.on_drained = None
        if self.obs is not None:
            self.obs.settle(self)

    def transmit(self, env: Envelope) -> float:
        """Put ``env`` on the wire; returns the sender-side CPU time consumed.

        Delivery is scheduled such that the channel ``(src, dst)`` stays
        FIFO.  The returned CPU time lets the caller advance the sending
        process's virtual clock (the engine does not do it implicitly).
        """
        env.send_time = self.engine.now
        return self._transmit(env.src, env.dst, env.size, self._on_deliver, env)

    def transmit_ack(self, src: int, dst: int, record: Any, size: int) -> None:
        """Put ack ``record`` on the wire like a ``size``-byte envelope;
        it draws a uid, so later envelopes number as if it were one."""
        self.next_uid()
        self._transmit(src, dst, size, self._on_ack, (src, dst, record, self.engine.now))

    def _transmit(self, src: int, dst: int, size: int, fn: Callable, arg: Any) -> float:
        """The wire: post delivery ``fn(arg)``, count; returns sender CPU."""
        if dst not in self._receivers:
            raise SimulationError(f"transmit to unknown rank {dst} from {src}")
        engine = self.engine
        now = engine.now
        # inlined TimingModel.transit_time / sender_cpu_time with the same
        # expressions (bit-identical floats; reproducibility depends on it)
        transit = self._latency + size / self._bandwidth
        if self._jitter:
            transit *= 1.0 + self._jitter * self._rng.random()
        # sender CPU (post overhead + logging copies) serialises before the
        # wire: the NIC only sees the buffer once it is prepared
        cpu = self._send_overhead + size * self._per_byte
        arrival = now + cpu + transit
        chan = src << 32 | dst
        rec = self._channels.get(chan)
        if rec is None:
            rec = self._channels[chan] = [-1.0, 0, 0]
        if arrival <= rec[0]:
            # Enforce FIFO: never overtake the previous message on the
            # channel.  A fixed epsilon (`prev + 1e-12`) is absorbed by
            # float rounding once virtual time grows past ~1e4 s, which
            # would silently collapse a channel's arrivals onto one
            # instant; nextafter always yields the next representable
            # (strictly later) time, and post_at stores it exactly.
            arrival = math.nextafter(rec[0], math.inf)
        rec[0] = arrival
        rec[1] += 1
        rec[2] += size
        engine.post_at(arrival, fn, arg)
        sent = self.messages_sent = self.messages_sent + 1
        self.bytes_sent += size
        if sent == self._tx_due:
            # a sampled tick.  The in-flight gauge rides it too: its value
            # is derived exactly from the counts (sent - delivered -
            # dropped), so skipping sends costs no accuracy at the tick
            self._tx_due = sent + self._hist_interval
            depth = self.in_flight_count()
            self._in_flight_gauge.set(depth)
            self._size_hist.observe(size)
            self._depth_hist.observe(depth)
        return cpu

    def _deliver(self, env: Envelope) -> None:
        """The delivery event of one envelope.  One that a purge dropped
        never gets here: its event is cancelled, also when the purge comes
        from an earlier delivery of the same instant (a chaos send-count
        tap killing the destination)."""
        delivered = self.messages_delivered = self.messages_delivered + 1
        if delivered == self._rx_due:
            self._rx_tick(delivered, env.send_time)
        self._receivers[env.dst](env)
        then = self.on_drained
        if then is not None and not self.in_flight_count():
            self.on_drained = None
            then()

    def _deliver_ack(self, ack: tuple[int, int, Any, float]) -> None:
        """:meth:`_deliver` of a ``(src, dst, record, send_time)`` ack."""
        src, dst, record, send_time = ack
        delivered = self.messages_delivered = self.messages_delivered + 1
        if delivered == self._rx_due:
            self._rx_tick(delivered, send_time)
        self._ack_sinks[dst](src, record)
        then = self.on_drained
        if then is not None and not self.in_flight_count():
            self.on_drained = None
            then()

    def _rx_tick(self, delivered: int, send_time: float) -> None:
        """Sampled delivery 1, 1 + N, ...."""
        self._rx_due = delivered + self._hist_interval
        self._in_flight_gauge.value = self.in_flight_count()
        self._transit_hist.observe(self.engine.now - send_time)

    # ------------------------------------------------------------------
    # Fail-stop support
    # ------------------------------------------------------------------
    def _inbound(self, rank: int) -> list[tuple[list, int]]:
        """The queued deliveries to ``rank``, envelopes and acks alike."""
        queued = self.engine.queued
        return (queued(self._on_deliver, lambda env: env.dst == rank)
                + queued(self._on_ack, lambda ack: ack[1] == rank))

    def purge_inbound(self, rank: int) -> int:
        """Drop all in-flight messages addressed to ``rank``.

        Called when ``rank`` fails: messages that had not yet arrived are
        lost with the process.  Returns the number of dropped messages.
        """
        doomed = self._inbound(rank)
        if not doomed:
            return 0
        for bucket, idx in doomed:
            self.engine.cancel(bucket, idx)
        dropped = len(doomed)
        self.messages_dropped += dropped
        if self.obs is not None:
            self.obs.counter("network.messages_dropped", ("dst",)).inc(
                dropped, labels=(rank,)
            )
            # the gauge is derived from the counters (see transmit); a purge
            # is rare enough to resynchronise it eagerly
            self._in_flight_gauge.value = self.in_flight_count()
        return dropped

    def purge_all(self) -> int:
        """Drop every in-flight message (global restart support)."""
        return sum(self.purge_inbound(rank) for rank in self._receivers)

    def in_flight_count(self, rank: int | None = None) -> int:
        """Number of in-flight messages: to ``rank`` (a scan), or in total
        (O(1) — every delivery reads it while :attr:`on_drained` waits)."""
        if rank is not None:
            return len(self._inbound(rank))
        return (self.messages_sent - self.messages_delivered
                - self.messages_dropped)
