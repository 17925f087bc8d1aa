"""Execution tracing: send sequences, communication matrices, lifecycle marks.

The tracer is the measurement substrate for the paper's evaluation:

* per-rank *send sequences* let the property tests check the paper's
  validity criterion (Definition 1: every process emits its valid sequence
  of messages even across failures);
* the *communication matrix* (messages / bytes per ordered rank pair)
  feeds the clustering of Section V-E-3 and reproduces Fig. 8;
* the checkpoint / failure / restore *marks* place each rank's lifecycle
  on the virtual-time axis (:mod:`repro.analysis.timeline`).
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple

import numpy as np

from .message import Envelope

__all__ = ["SendRecord", "Tracer", "send_witness_chains"]


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
        return SendRecord(
            env.dst, env.tag, env.size, payload_digest(env.payload),
            env.meta.get("date"),
        )

    def same_message(self, other: "SendRecord") -> bool:
        return (
            self.dst == other.dst
            and self.tag == other.tag
            and self.size == other.size
            and self.digest == other.digest
        )


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
    """Accumulates events during a simulated run."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: ``(kind, time, rank, detail)`` per checkpoint / failure / restore
        self.marks: list[tuple[str, float, int, tuple]] = []
        #: rank -> ordered list of application SendRecords (includes re-sends
        #: suppressed later as duplicates — filtered by `send_sequences`)
        self._sends: list[list[SendRecord]] = [[] for _ in range(nprocs)]
        #: rank -> ordered list of (src, tag, size) deliveries to the app
        self._delivers: list[list[tuple[int, int, int]]] = [[] for _ in range(nprocs)]
        #: src -> {dst: [messages, bytes]} — sparse rows: a rank talks to a
        #: handful of peers, and dense n x n tables were half the heap at
        #: 4096 ranks (the :attr:`msg_count` / :attr:`msg_bytes` properties
        #: build the familiar dense ndarray view on demand)
        self._pairs: list[dict[int, list[int]]] = [{} for _ in range(nprocs)]
        #: sends marked as duplicates re-emitted during recovery, per rank:
        #: indices into the send list (so sequences can be de-duplicated)
        self._dup_send_idx: list[set[int]] = [set() for _ in range(nprocs)]

    # ------------------------------------------------------------------
    def on_app_send(self, env: Envelope, is_replay_dup: bool = False) -> None:
        rank = env.src
        sends = self._sends[rank]
        # SendRecord.of(env), inlined down to the tuple constructor (what
        # the generated __new__ calls): this runs once per application send
        sends.append(_new_tuple(SendRecord, (
            env.dst, env.tag, env.size, payload_digest(env.payload),
            env.meta.get("date"),
        )))
        if is_replay_dup:
            self._dup_send_idx[rank].add(len(sends) - 1)
        else:
            row = self._pairs[rank]
            try:
                cell = row[env.dst]
            except KeyError:  # first message of the pair
                row[env.dst] = [1, env.size]
            else:
                cell[0] += 1
                cell[1] += env.size

    def on_app_deliver(self, env: Envelope) -> None:
        self._delivers[env.dst].append((env.src, env.tag, env.size))

    def on_mark(self, kind: str, rank: int, time: float, detail: tuple = ()) -> None:
        self.marks.append((kind, time, rank, detail))

    # ------------------------------------------------------------------
    def send_sequences(self, dedup: bool = True) -> list[list[SendRecord]]:
        """Per-rank application send sequences.

        With ``dedup`` (the default) sends that were duplicate re-emissions
        during recovery are collapsed, yielding the *logical* send sequence
        that the paper's validity criterion talks about.
        """
        if not dedup:
            return [list(s) for s in self._sends]
        out: list[list[SendRecord]] = []
        for rank in range(self.nprocs):
            dups = self._dup_send_idx[rank]
            out.append([r for i, r in enumerate(self._sends[rank]) if i not in dups])
        return out

    def logical_send_sequences(self) -> list[list[SendRecord]]:
        """Per-rank send sequences with recovery re-sends collapsed by date.

        The protocol stamps every application message with its sender's
        send-sequence number ("date"); a re-execution or log replay of a
        message reuses the original date, so keeping the first occurrence
        per date yields the logical sequence of the paper's validity
        criterion.  Re-sends with contents differing from the original are
        a send-determinism violation and raise.
        """
        from ..errors import SendDeterminismError

        out: list[list[SendRecord]] = []
        for rank in range(self.nprocs):
            seen: dict[int, SendRecord] = {}
            seq: list[SendRecord] = []
            for rec in self._sends[rank]:
                if rec.date is None:
                    seq.append(rec)
                    continue
                first = seen.get(rec.date)
                if first is None:
                    seen[rec.date] = rec
                    seq.append(rec)
                elif not first.same_message(rec):
                    raise SendDeterminismError(
                        f"rank {rank} re-sent date {rec.date} with different "
                        f"content: {first} vs {rec}"
                    )
            out.append(seq)
        return out

    def deliver_sequences(self) -> list[list[tuple[int, int, int]]]:
        return [list(d) for d in self._delivers]

    def total_app_messages(self) -> int:
        return sum(cell[0] for row in self._pairs for cell in row.values())

    def _dense(self, slot: int) -> np.ndarray:
        out = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        for src, row in enumerate(self._pairs):
            for dst, cell in row.items():
                out[src, dst] = cell[slot]
        return out

    @property
    def msg_count(self) -> np.ndarray:
        """(src, dst) application message counts (excludes replay dups)."""
        return self._dense(0)

    @property
    def msg_bytes(self) -> np.ndarray:
        """(src, dst) application bytes sent (excludes replay dups)."""
        return self._dense(1)

    def comm_matrix(self, weight: str = "count") -> np.ndarray:
        """Communication density matrix (Fig. 8 input)."""
        if weight == "count":
            return self.msg_count
        if weight == "bytes":
            return self.msg_bytes
        raise ValueError(f"unknown weight {weight!r}")
