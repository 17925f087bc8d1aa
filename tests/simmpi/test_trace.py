"""Unit tests for the tracer: sequences, digests, matrices, dedup by date."""

import numpy as np
import pytest

from repro.errors import SendDeterminismError
from repro.simmpi.message import Envelope
from repro.simmpi.trace import SendRecord, Tracer, payload_digest


def env(src, dst, payload=1, tag=0, date=None):
    e = Envelope(src=src, dst=dst, tag=tag, payload=payload)
    if date is not None:
        e.meta["date"] = date
    return e


def test_payload_digest_numpy_content_sensitive():
    a = np.arange(4.0)
    b = np.arange(4.0)
    c = np.arange(4.0) + 1
    assert payload_digest(a) == payload_digest(b)
    assert payload_digest(a) != payload_digest(c)


def test_payload_digest_shape_sensitive():
    a = np.zeros((2, 3))
    b = np.zeros((3, 2))
    assert payload_digest(a) != payload_digest(b)


def test_payload_digest_containers():
    assert payload_digest([1, 2]) == payload_digest([1, 2])
    assert payload_digest({"a": 1}) == payload_digest({"a": 1})
    assert payload_digest((1,)) != payload_digest((2,))


def test_payload_digest_unhashable_fallback():
    class Weird:
        __hash__ = None

        def __repr__(self):
            return "weird"

    assert payload_digest(Weird()) == payload_digest(Weird())


def test_send_record_equality_and_same_message():
    a = SendRecord.of(env(0, 1, payload=5, date=3))
    b = SendRecord.of(env(0, 1, payload=5, date=9))
    assert a != b            # dates differ
    assert a.same_message(b)  # contents identical


def test_comm_matrix_counts_and_bytes():
    t = Tracer(3)
    t.on_app_send(env(0, 1, payload=np.zeros(10)))
    t.on_app_send(env(0, 1, payload=np.zeros(10)))
    t.on_app_send(env(2, 0, payload=np.zeros(5)))
    m = t.comm_matrix()
    assert m[0, 1] == 2 and m[2, 0] == 1 and m.sum() == 3
    b = t.comm_matrix("bytes")
    assert b[0, 1] == 160 and b[2, 0] == 40


def test_dense_views_of_a_three_rank_exchange():
    # the per-pair counters are sparse rows now; the ndarray view the
    # analyses read (commmatrix) keeps its values and dtype
    t = Tracer(3)
    t.on_app_send(env(0, 1, payload=np.zeros(10)))
    t.on_app_send(env(0, 1, payload=np.zeros(10)))
    t.on_app_send(env(1, 2, payload=b"abc"))
    t.on_app_send(env(2, 0, payload=np.zeros(5)))
    t.on_app_send(env(2, 2, payload=7))            # self-send
    dup = env(0, 1, payload=np.zeros(10), date=1)
    dup.meta["replayed"] = True
    t.on_app_send(dup, is_replay_dup=True)        # must not count
    counts = [[0, 2, 0], [0, 0, 1], [1, 0, 1]]
    nbytes = [[0, 160, 0], [0, 0, 3], [40, 0, 8]]
    for view, want in ((t.comm_matrix(), counts),
                       (t.comm_matrix("bytes"), nbytes)):
        assert view.dtype == np.int64 and view.shape == (3, 3)
        assert view.tolist() == want
    assert t.total_app_messages() == 5
    assert int(t.comm_matrix("bytes").sum()) == 211
    # each view is a fresh array: callers may scale it in place
    t.comm_matrix()[0, 1] = 99
    assert t.comm_matrix()[0, 1] == 2


def test_comm_matrix_unknown_weight():
    with pytest.raises(ValueError):
        Tracer(2).comm_matrix("volume")


def test_replay_dup_not_counted_in_matrix():
    t = Tracer(2, record_sequences=True)
    e = env(0, 1, date=1)
    e.meta["replayed"] = True
    t.on_app_send(e, is_replay_dup=True)
    assert t.comm_matrix().sum() == 0


def test_logical_sequences_collapse_by_date():
    t = Tracer(2, record_sequences=True)
    t.on_app_send(env(0, 1, payload=7, date=1))
    t.on_app_send(env(0, 1, payload=8, date=2))
    t.on_app_send(env(0, 1, payload=7, date=1))  # re-execution re-send
    seq = t.logical_send_sequences()[0]
    assert [r.date for r in seq] == [1, 2]


def test_logical_sequences_detect_content_divergence():
    t = Tracer(2, record_sequences=True)
    t.on_app_send(env(0, 1, payload=7, date=1))
    t.on_app_send(env(0, 1, payload=999, date=1))  # same date, new content
    with pytest.raises(SendDeterminismError):
        t.logical_send_sequences()


def test_logical_sequences_without_dates_pass_through():
    t = Tracer(1, record_sequences=True)
    t.on_app_send(env(0, 0, payload=1))
    t.on_app_send(env(0, 0, payload=1))
    assert len(t.logical_send_sequences()[0]) == 2


def test_deliver_sequences():
    t = Tracer(2, record_sequences=True)
    t.on_app_deliver(env(0, 1, payload=b"abc", tag=4))
    assert t.deliver_sequences()[1] == [(0, 4, 3)]


def test_marks_are_always_kept():
    t = Tracer(2)
    t.on_app_send(env(0, 1))
    t.on_mark("checkpoint", 0, 0.6, (2,))
    t.on_mark("failure", 1, 0.7)
    assert t.marks == [("checkpoint", 0.6, 0, (2,)), ("failure", 0.7, 1, ())]
