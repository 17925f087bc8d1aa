"""Execution tracing: send sequences, communication matrices, lifecycle marks.

The tracer is the measurement substrate for the paper's evaluation:

* per-rank *send sequences* let the property tests check the paper's
  validity criterion (Definition 1: every process emits its valid sequence
  of messages even across failures) — an oracle's evidence, recorded only
  for a tracer whose reader armed ``record_sequences``;
* the *communication matrix* (messages / bytes per ordered rank pair)
  feeds the clustering of Section V-E-3 and reproduces Fig. 8;
* the checkpoint / failure / restore *marks* place each rank's lifecycle
  on the virtual-time axis (:mod:`repro.analysis.timeline`).
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple

import numpy as np

from ..errors import SendDeterminismError, SimulationError
from .message import Envelope

__all__ = ["SendRecord", "Tracer", "envelope_digest", "send_witness_chains"]


class SendRecord(NamedTuple):
    """Identity of one application send, used for sequence comparison.

    Two executions are *send-equivalent* when each rank's list of
    ``SendRecord`` matches element-wise.  ``digest`` summarizes the payload
    so content changes are caught without retaining the payload itself.
    A tuple, not a dataclass: one is built per application send.
    """

    dst: int
    tag: int
    size: int
    digest: int
    #: protocol send date (send-sequence number); None when no FT protocol
    #: is attached.  Lets analyses collapse recovery re-sends of the same
    #: logical message (same date ⇒ same message).
    date: int | None = None

    @staticmethod
    def of(env: Envelope) -> "SendRecord":
        # the tuple constructor the generated __new__ calls: one per send
        return _new_tuple(SendRecord, (
            env.dst, env.tag, env.size, envelope_digest(env),
            env.meta.get("date"),
        ))

    def same_message(self, other: "SendRecord") -> bool:
        return self[:4] == other[:4]  # everything but the date


_new_tuple = tuple.__new__


def payload_digest(payload: Any) -> int:
    """Order-stable 64-bit digest of a payload (numpy-aware)."""
    if isinstance(payload, np.ndarray):
        # tobytes() is deterministic for a given dtype/shape/content
        return hash((payload.shape, payload.dtype.str, payload.tobytes())) & (2**63 - 1)
    if isinstance(payload, (list, tuple)):
        return hash(tuple(payload_digest(x) for x in payload)) & (2**63 - 1)
    if isinstance(payload, dict):
        return (
            hash(tuple(sorted((k, payload_digest(v)) for k, v in payload.items())))
            & (2**63 - 1)
        )
    if isinstance(payload, (bytes, bytearray)):
        return hash(bytes(payload)) & (2**63 - 1)
    try:
        return hash(payload) & (2**63 - 1)
    except TypeError:
        return hash(repr(payload)) & (2**63 - 1)


def envelope_digest(env: Envelope) -> int:
    """``payload_digest(env.payload)``, computed once per envelope: the
    sanitizer's send witness and the send log both read it."""
    digest = env.digest
    if digest is None:
        digest = env.digest = payload_digest(env.payload)
    return digest


def send_witness_chains(tracer: "Tracer") -> list[str]:
    """Per-rank witness hash chain over the *logical* send sequence.

    Each rank's chain folds ``(dst, date-or-index, tag, size, digest)``
    of every logical send through blake2b, so two executions produced
    identical send sequences iff their chains match element-wise.  This
    is the certificate the differential delivery-order verifier compares
    across adversarial schedules (``repro certify --dynamic``) and the
    chaos harness's send-witness oracle checks against the reference run.

    Chains are comparable **within one process only**: ``payload_digest``
    falls back to Python's salted ``hash()`` for str/bytes payloads, so
    digests — and therefore chains — differ across interpreter
    invocations.  Persist verdicts, not chains.
    """
    chains: list[str] = []
    for rank, seq in enumerate(tracer.logical_send_sequences()):
        h = hashlib.blake2b(digest_size=16)
        for i, rec in enumerate(seq):
            date = rec.date if rec.date is not None else i
            h.update(
                f"{rec.dst},{date},{rec.tag},{rec.size},{rec.digest};".encode()
            )
        chains.append(h.hexdigest())
    return chains


class Tracer:
    """Accumulates events during a simulated run: marks and the pair
    matrix always, the per-message send / deliver log only when its reader
    armed ``record_sequences`` (at construction, so a log is never partial;
    reading an unarmed one raises)."""

    def __init__(self, nprocs: int, record_sequences: bool = False):
        self.nprocs = nprocs
        self.record_sequences = record_sequences
        #: ``(kind, time, rank, detail)`` per checkpoint / failure / restore
        self.marks: list[tuple[str, float, int, tuple]] = []
        rows = nprocs if record_sequences else 0
        #: rank -> ordered list of application SendRecords, recovery
        #: re-sends included (`logical_send_sequences` collapses them)
        self._sends: list[list[SendRecord]] = [[] for _ in range(rows)]
        #: rank -> ordered list of (src, tag, size) deliveries to the app
        self._delivers: list[list[tuple[int, int, int]]] = [[] for _ in range(rows)]
        #: src -> {dst: [messages, bytes]} — sparse rows: a rank talks to a
        #: handful of peers, and dense n x n tables were half the heap at
        #: 4096 ranks (:meth:`comm_matrix` builds the dense ndarray view on
        #: demand)
        self._pairs: list[dict[int, list[int]]] = [{} for _ in range(nprocs)]

    # ------------------------------------------------------------------
    def on_app_send(self, env: Envelope, is_replay_dup: bool = False) -> None:
        if self.record_sequences:
            self._sends[env.src].append(SendRecord.of(env))
        if not is_replay_dup:
            row = self._pairs[env.src]
            try:
                cell = row[env.dst]
            except KeyError:  # first message of the pair
                row[env.dst] = [1, env.size]
            else:
                cell[0] += 1
                cell[1] += env.size

    def on_app_deliver(self, env: Envelope) -> None:
        if self.record_sequences:
            self._delivers[env.dst].append((env.src, env.tag, env.size))

    def on_mark(self, kind: str, rank: int, time: float, detail: tuple = ()) -> None:
        self.marks.append((kind, time, rank, detail))

    # ------------------------------------------------------------------
    def _require_sequences(self) -> None:
        if not self.record_sequences:  # never an empty log that reads "equal"
            raise SimulationError("this world kept no send / deliver log: its "
                                  "reader arms record_sequences at construction")

    def send_sequences(self) -> list[list[SendRecord]]:
        """Per-rank application send sequences as emitted, recovery
        re-sends included (:meth:`logical_send_sequences` collapses them)."""
        self._require_sequences()
        return [list(sends) for sends in self._sends]

    def logical_send_sequences(self) -> list[list[SendRecord]]:
        """Per-rank send sequences with recovery re-sends collapsed by date.

        The protocol stamps every application message with its sender's
        send-sequence number ("date"); a re-execution or log replay of a
        message reuses the original date, so keeping the first occurrence
        per date yields the logical sequence of the paper's validity
        criterion.  Re-sends with contents differing from the original are
        a send-determinism violation and raise.
        """
        self._require_sequences()
        out: list[list[SendRecord]] = []
        for rank in range(self.nprocs):
            seen: dict[int, SendRecord] = {}
            seq: list[SendRecord] = []
            for rec in self._sends[rank]:
                first = rec if rec.date is None else seen.setdefault(rec.date, rec)
                if first is rec:  # undated, or the first send of its date
                    seq.append(rec)
                elif not first.same_message(rec):
                    raise SendDeterminismError(
                        f"rank {rank} re-sent date {rec.date} with different "
                        f"content: {first} vs {rec}"
                    )
            out.append(seq)
        return out

    def deliver_sequences(self) -> list[list[tuple[int, int, int]]]:
        self._require_sequences()
        return [list(d) for d in self._delivers]

    def total_app_messages(self) -> int:
        return sum(cell[0] for row in self._pairs for cell in row.values())

    def comm_matrix(self, weight: str = "count") -> np.ndarray:
        """Dense (src, dst) matrix of application messages sent (``"count"``)
        or their ``"bytes"``, replay dups excluded: Fig. 8's input.  Each
        call builds a fresh array from the sparse rows."""
        if weight not in ("count", "bytes"):
            raise ValueError(f"unknown weight {weight!r}")
        slot = 0 if weight == "count" else 1
        out = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for src, row in enumerate(self._pairs):
            for dst, cell in row.items():
                out[src, dst] = cell[slot]
        return out
