"""Wire-level message representation.

An :class:`Envelope` is what travels through the simulated network.  It
carries the application payload plus a ``meta`` mapping that fault-tolerance
protocols use for piggybacked metadata (dates, epochs, phases, sequence
numbers, ...).  The substrate itself never interprets ``meta``.

Tags
----
Application tags are non-negative integers.  Negative tags are reserved:

* ``-1000 - k`` — collective operation instance ``k`` (see
  :mod:`repro.simmpi.collectives`),
* tags below :data:`CONTROL_TAG_BASE` — protocol control messages
  (rollback notifications, recovery-line distribution...).
"""

from __future__ import annotations

import copy as _copy
from typing import Any

import numpy as np

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CONTROL_TAG_BASE",
    "COLLECTIVE_TAG_BASE",
    "Envelope",
    "payload_nbytes",
    "is_immutable_payload",
    "retention_copy",
]

#: wildcard source for receive operations
ANY_SOURCE = -1
#: wildcard tag for receive operations
ANY_TAG = -1

#: tags at or below this value are protocol control-plane messages
CONTROL_TAG_BASE = -1_000_000
#: base tag for collective-communication instances
COLLECTIVE_TAG_BASE = -1000


def payload_nbytes(payload: Any) -> int:
    """Best-effort size estimate of a payload, in bytes.

    Used when the sender does not give an explicit ``size``.  numpy arrays
    report their true buffer size; bytes-likes their length; everything else
    a small constant (the simulator only needs sizes for timing, and control
    payloads are small).

    The exact-type fast paths return the same values as the generic chain
    below them (exact builtins cannot grow an ``nbytes`` attribute) — they
    exist because this runs once per envelope and the generic ``getattr``
    probe costs more than the whole sizing of a small control dict.
    """
    t = type(payload)
    if t is np.ndarray:
        return payload.nbytes
    if t is int or t is float or t is bool or payload is None:
        return 8
    if t is bytes or t is bytearray:
        return len(payload)
    if t is str:
        # ascii strings encode 1:1, sparing the bytes allocation
        return len(payload) if payload.isascii() else len(payload.encode())
    if t is tuple or t is list:
        n = 16
        for x in payload:
            tx = type(x)
            if tx is int or tx is float or tx is bool or x is None:
                n += 8
            else:
                n += payload_nbytes(x)
        return n
    if t is dict:
        # protocol control records are small str->scalar dicts; inlining
        # the scalar cases keeps sizing them to one call, not one per field
        n = 16
        for k, v in payload.items():
            tk = type(k)
            if tk is str and k.isascii():
                n += len(k)
            else:
                n += payload_nbytes(k)
            tv = type(v)
            if tv is int or tv is float or tv is bool or v is None:
                n += 8
            else:
                n += payload_nbytes(v)
        return n
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (list, tuple)):
        return 16 + sum(payload_nbytes(x) for x in payload)
    if isinstance(payload, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    return 64


#: exact types whose instances can never be mutated — sharing them between
#: the wire, the sender-based log and checkpoints is always safe
_IMMUTABLE_TYPES = frozenset(
    (type(None), bool, int, float, complex, str, bytes, frozenset)
)


def is_immutable_payload(payload: Any) -> bool:
    """True when ``payload`` is a deeply immutable value.

    Tuples count when every element does (recursively).  Anything else —
    numpy arrays, lists, dicts, arbitrary objects — is assumed mutable.
    """
    if type(payload) in _IMMUTABLE_TYPES:
        return True
    if type(payload) is tuple:
        return all(is_immutable_payload(x) for x in payload)
    return False


def retention_copy(payload: Any, memo: dict[int, Any] | None = None) -> Any:
    """Copy ``payload`` for retention (sender-based log, checkpoint).

    The zero-copy rule: immutable payloads are shared, mutable ones are
    deep-copied at the moment they are *retained* — not at send time.  This
    is the only place the protocol stack pays a payload copy.

    ``memo`` is :func:`copy.deepcopy`'s ``id`` memo: callers that copy
    several payloads of one structure (a checkpoint's ``non_ack`` and
    ``logs``) pass the same dict so an object referenced twice is copied
    once and stays shared in the copy.

    The result is :func:`copy.deepcopy`'s.  Plain arrays and exact
    ``dict`` / ``list`` containers take typed copies instead of the
    generic walk, under the same memo contract (copy keyed by ``id``,
    registered before the contents so cycles close, original kept
    alive); anything else goes to :func:`copy.deepcopy`.
    """
    t = type(payload)
    if t in _IMMUTABLE_TYPES:
        return payload
    if t is np.ndarray and not payload.dtype.hasobject:
        if memo is None:
            return payload.copy(order="K")
        dup = memo.get(id(payload))
        if dup is None:
            dup = memo[id(payload)] = payload.copy(order="K")
            memo.setdefault(id(memo), []).append(payload)
        return dup
    if t is list or t is dict:
        if memo is None:
            memo = {}
        elif id(payload) in memo:
            return memo[id(payload)]
        memo.setdefault(id(memo), []).append(payload)
        dup = memo[id(payload)] = t()
        if t is list:
            dup.extend([retention_copy(x, memo) for x in payload])
        else:
            for k, v in payload.items():
                dup[retention_copy(k, memo)] = retention_copy(v, memo)
        return dup
    if is_immutable_payload(payload):
        return payload
    return _copy.deepcopy(payload, memo)


class Envelope:
    """A message in flight.

    Attributes
    ----------
    src, dst:
        Sender and receiver ranks.
    tag:
        Matching tag (see module docstring for the reserved ranges).
    payload:
        The application data.  The substrate does not copy it; senders that
        mutate buffers after sending must copy themselves (the FT protocol
        layer copies when it needs to retain data for logging).
    size:
        Size in bytes used by the network timing model.
    meta:
        Piggybacked protocol metadata; opaque to the substrate.
    uid:
        Message id, unique within one world: whoever builds an envelope
        draws it from its world's ``next_uid`` (0: not numbered).
        Diagnostics and tracing only — protocols must not use it for
        matching, real networks have no such oracle.
    send_time:
        Virtual time at which the envelope entered the network.
    digest:
        The payload's digest once :func:`repro.simmpi.trace.envelope_digest`
        computed it (``None`` before).
    """

    __slots__ = (
        "src", "dst", "tag", "payload", "size", "meta", "uid",
        "send_time", "digest",
    )

    # hand-written __init__ (not a dataclass): one envelope is built per
    # message on the wire, and folding the size default into the
    # constructor avoids the generated-__init__ + __post_init__ call pair
    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Any,
        size: int = 0,
        meta: dict[str, Any] | None = None,
        uid: int = 0,
        send_time: float = 0.0,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.size = size if size > 0 else payload_nbytes(payload)
        self.meta = {} if meta is None else meta
        self.uid = uid
        self.send_time = send_time
        self.digest: int | None = None

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src}, dst={self.dst}, tag={self.tag}, "
            f"size={self.size}, uid={self.uid})"
        )

    def stored_copy(self) -> "Envelope":
        """Independent copy for a checkpoint's image of the library queue
        (and back out of it on restore): same ``uid`` and timing fields,
        payload and ``meta`` values under the :func:`retention_copy` rule."""
        return Envelope(
            self.src, self.dst, self.tag, retention_copy(self.payload),
            self.size,
            {key: retention_copy(value) for key, value in self.meta.items()},
            self.uid, self.send_time,
        )

    @property
    def is_control(self) -> bool:
        return self.tag <= CONTROL_TAG_BASE
