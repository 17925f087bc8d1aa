"""Sender-based logging with the paper's acknowledgement optimization
(Section V-A, Fig. 5).

The protocol requires every message to be acknowledged with its reception
epoch so the sender can decide what to log — but an explicit ack per
message would wreck small-message latency.  The paper's MPICH2
implementation avoids that on each FIFO channel:

* **small messages** (≤ eager threshold) are *copied by default* at the
  sender, so ``send()`` returns immediately without an acknowledgement;
* each message carries a channel **sequence number (ssn)**; receivers
  **piggyback** on their own traffic the ssn of the last message received
  (plus, here, their current epoch), letting the sender discard the
  default copies of messages known to be received without logging;
* only the **first message per (channel, epoch) that must be logged** is
  acknowledged explicitly; the sender then marks every following message
  of the same epoch *already logged* (the copy goes straight to the log,
  no ack needed) until its epoch changes;
* if too many messages pile up unacknowledged (the peer never talks
  back), the sender **requests** an explicit acknowledgement;
* **large messages** cannot afford the default copy, so they are always
  acknowledged explicitly — except when already marked logged.

This module implements both channel endpoints of that state machine, on
its own: the simulated protocol (:mod:`repro.core.protocol`) acknowledges
every delivery explicitly, and nothing else in :mod:`repro` imports this
module — its readers are its tests and the ack-traffic ablation benchmark.
Against the per-message rule the tests check that every message the rule
logs is logged here too, and none is both logged and confirmed, for any
interleaving of sends, checkpoints and piggybacks (a hypothesis
property).  The logged set may be larger: a piggyback that finds the
receiver's epoch advanced logs conservatively.  It is equal on a script
that piggybacks after every delivery.
"""

from __future__ import annotations

import copy as _copy
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any

from ..errors import ProtocolError
from ..netmodel.calibration import EAGER_THRESHOLD
from ..obs.registry import SIZE_BUCKETS

__all__ = ["ChannelMessage", "SenderChannel", "ReceiverChannel", "AckStats"]

#: request an explicit ack when this many sends are unconfirmed
DEFAULT_MAX_UNACKED = 64


@dataclass(frozen=True, slots=True)
class ChannelMessage:
    """What travels on the channel, as far as the ack logic cares."""

    ssn: int
    size: int
    epoch_send: int
    payload: Any = None
    already_logged: bool = False
    piggyback_ssn: int = 0
    piggyback_epoch: int = 0


@dataclass
class AckStats:
    explicit_acks: int = 0
    ack_requests: int = 0
    copies_made: int = 0
    copies_dropped: int = 0
    piggybacks_applied: int = 0


@dataclass(slots=True)
class _Retained:
    ssn: int
    size: int
    epoch_send: int
    payload: Any


class SenderChannel:
    """Sender endpoint of one FIFO channel under the Fig. 5 optimization."""

    def __init__(self, eager_threshold: int = EAGER_THRESHOLD,
                 max_unacked: int = DEFAULT_MAX_UNACKED, obs: Any = None):
        self.eager_threshold = eager_threshold
        self.max_unacked = max_unacked
        self.obs = obs
        if self.obs is not None:
            o = self.obs
            self._logged_counter = o.counter("logstore.messages_logged", ("epoch",))
            self._log_bytes_counter = o.counter("logstore.log_bytes", ("epoch",))
            self._log_cells: dict[int, tuple[Any, Any]] = {}
            self._size_hist = o.histogram("logstore.logged_size", SIZE_BUCKETS)
            self._hist_every = o.hist_sample  # sampled: log entries 1, 1 + N, ...
            self._c_confirmed = o.counter("logstore.messages_confirmed").slot()
            self._c_ack_requests = o.counter("logstore.ack_requests").slot()
            self._c_explicit_acks = o.counter("logstore.explicit_acks").slot()
            self._c_piggybacks = o.counter("logstore.piggybacks_applied").slot()
        self.epoch = 1
        self._ssn = 0
        #: default copies awaiting confirmation, in ssn order
        self.retained: list[_Retained] = []
        #: large messages awaiting an explicit ack, in ssn order
        self.awaiting_ack: list[_Retained] = []
        #: the epoch for which "everything is logged until my epoch changes"
        self._logged_mode_epoch: int | None = None
        #: reception epoch reported by the log-ack that opened logged mode
        self._log_epoch_recv = 0
        #: the sender-based log: (ssn, epoch_send, epoch_recv, payload, size)
        self.log: list[tuple[int, int, int, Any, int]] = []
        #: confirmed received without logging: (ssn, epoch_send, epoch_recv)
        self.confirmed: list[tuple[int, int, int]] = []
        self.stats = AckStats()

    # ------------------------------------------------------------------
    def _log_entry(self, ssn: int, epoch_send: int, epoch_recv: int,
                   payload: Any, size: int) -> None:
        self.log.append((ssn, epoch_send, epoch_recv, payload, size))
        if self.obs is not None:
            cells = self._log_cells.get(epoch_send)
            if cells is None:
                cells = self._log_cells[epoch_send] = (
                    self._logged_counter.slot((epoch_send,)),
                    self._log_bytes_counter.slot((epoch_send,)),
                )
            cells[0].n += 1
            cells[1].n += size
            if (len(self.log) - 1) % self._hist_every == 0:
                self._size_hist.observe(size)

    def _confirm_entry(self, ssn: int, epoch_send: int, epoch_recv: int) -> None:
        self.confirmed.append((ssn, epoch_send, epoch_recv))
        if self.obs is not None:
            self._c_confirmed.n += 1

    def advance_epoch(self) -> None:
        """A checkpoint was taken: already-logged marking stops applying."""
        self.epoch += 1
        self._logged_mode_epoch = None

    @property
    def unconfirmed(self) -> int:
        return len(self.retained) + len(self.awaiting_ack)

    def send(self, size: int, payload: Any = None) -> tuple[ChannelMessage, bool]:
        """Register a send; returns ``(message, blocks_for_ack)``.

        ``blocks_for_ack`` is True when the send cannot complete until an
        explicit acknowledgement returns (large message, not marked
        already-logged) — the cost the paper measures in Fig. 6.
        """
        self._ssn += 1
        already_logged = self._logged_mode_epoch == self.epoch
        if already_logged:
            # the copy goes straight to the log; the reception epoch is the
            # one the first explicit log-ack of this epoch reported
            self._log_entry(self._ssn, self.epoch, self._log_epoch_recv,
                            _copy.deepcopy(payload), size)
            self.stats.copies_made += 1
            msg = ChannelMessage(self._ssn, size, self.epoch, payload,
                                 already_logged=True)
            return msg, False
        entry = _Retained(self._ssn, size, self.epoch, _copy.deepcopy(payload))
        if size <= self.eager_threshold:
            self.retained.append(entry)
            self.stats.copies_made += 1
            blocking = False
        else:
            self.awaiting_ack.append(entry)
            blocking = True
        return ChannelMessage(self._ssn, size, self.epoch, payload), blocking

    def needs_ack_request(self) -> bool:
        return self.unconfirmed > self.max_unacked

    def make_ack_request(self) -> None:
        self.stats.ack_requests += 1
        if self.obs is not None:
            self._c_ack_requests.n += 1

    # ------------------------------------------------------------------
    def on_explicit_ack(self, ssn: int, epoch_recv: int) -> None:
        """An explicit acknowledgement for message ``ssn`` arrived.

        If it reveals an epoch crossing it is the *first logged message* of
        this (channel, epoch): everything retained from the same epoch up
        to ``ssn`` is logged, and the channel enters already-logged mode
        until the sender's epoch changes (Fig. 5, m4/m5).
        """
        self.stats.explicit_acks += 1
        if self.obs is not None:
            self._c_explicit_acks.n += 1
        entry = self._pop(ssn)
        if entry.epoch_send < epoch_recv:
            self._log_entry(entry.ssn, entry.epoch_send, epoch_recv,
                            entry.payload, entry.size)
            # earlier same-epoch retained messages were necessarily also
            # received in epoch_recv or earlier... their state is resolved
            # by piggybacks; the MODE only affects subsequent sends:
            if entry.epoch_send == self.epoch:
                self._logged_mode_epoch = self.epoch
                self._log_epoch_recv = epoch_recv
        else:
            self._confirm_entry(entry.ssn, entry.epoch_send, epoch_recv)

    def on_piggyback(self, last_ssn: int, receiver_epoch: int) -> None:
        """The peer piggybacked "received up to ``last_ssn``, my epoch is
        ``receiver_epoch``": resolve every retained copy up to that ssn."""
        self.stats.piggybacks_applied += 1
        if self.obs is not None:
            self._c_piggybacks.n += 1
        # retained is in ascending ssn order (sends append monotonically and
        # piggybacks only cut prefixes), so the resolved set is a prefix
        cut = bisect_right(self.retained, last_ssn, key=lambda r: r.ssn)
        resolved = self.retained[:cut]
        self.retained = self.retained[cut:]
        for r in resolved:
            if r.epoch_send < receiver_epoch:
                # conservative: the receiver may have crossed an epoch
                # after receiving; logging extra is always safe
                self._log_entry(r.ssn, r.epoch_send, receiver_epoch,
                                r.payload, r.size)
            else:
                self._confirm_entry(r.ssn, r.epoch_send, receiver_epoch)
                self.stats.copies_dropped += 1

    def _pop(self, ssn: int) -> _Retained:
        # both buckets are in ascending ssn order (see on_piggyback), so a
        # binary search replaces the scan; ssns are unique across buckets
        for bucket in (self.awaiting_ack, self.retained):
            i = bisect_left(bucket, ssn, key=lambda r: r.ssn)
            if i < len(bucket) and bucket[i].ssn == ssn:
                return bucket.pop(i)
        raise ProtocolError(f"explicit ack for unknown ssn {ssn}")


class ReceiverChannel:
    """Receiver endpoint: decides when an explicit ack is required and
    what to piggyback on the application's reverse traffic."""

    def __init__(self, eager_threshold: int = EAGER_THRESHOLD, obs: Any = None):
        self.eager_threshold = eager_threshold
        self.obs = obs
        if self.obs is not None:
            recv_acks = self.obs.counter("logstore.recv_explicit_acks", ("reason",))
            self._c_ack_first_logged = recv_acks.slot(("first_logged",))
            self._c_ack_rendezvous = recv_acks.slot(("rendezvous",))
        self.epoch = 1
        self.last_ssn = 0
        #: sender epochs for which the first logged message was acked
        self._log_acked_epochs: set[int] = set()
        self.stats = AckStats()

    def advance_epoch(self) -> None:
        self.epoch += 1

    def deliver(self, msg: ChannelMessage) -> tuple[int, int] | None:
        """Process an inbound message; returns ``(ssn, epoch_recv)`` when an
        explicit acknowledgement must be sent, else ``None``."""
        if msg.ssn != self.last_ssn + 1:
            raise ProtocolError(
                f"channel FIFO violated: got ssn {msg.ssn} after {self.last_ssn}"
            )
        self.last_ssn = msg.ssn
        if msg.already_logged:
            return None
        crossing = msg.epoch_send < self.epoch
        if crossing and msg.epoch_send not in self._log_acked_epochs:
            # first message of this sender-epoch that must be logged
            self._log_acked_epochs.add(msg.epoch_send)
            self.stats.explicit_acks += 1
            if self.obs is not None:
                self._c_ack_first_logged.n += 1
            return (msg.ssn, self.epoch)
        if msg.size > self.eager_threshold:
            self.stats.explicit_acks += 1
            if self.obs is not None:
                self._c_ack_rendezvous.n += 1
            return (msg.ssn, self.epoch)
        return None

    def piggyback(self) -> tuple[int, int]:
        """Data to attach to the next application message sent to the peer."""
        return (self.last_ssn, self.epoch)
