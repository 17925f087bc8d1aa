"""Unit tests for the per-process protocol state (Fig. 3 local variables)."""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.core.state import EpochRecord, LoggedMessage, PendingAck, ProtocolState


def test_initial_state():
    st = ProtocolState.initial()
    assert st.date == 0 and st.epoch == 1 and st.phase == 1
    assert st.spe[1].start_date == 0
    assert st.rpp == {} and st.non_ack == [] and st.logs == []


def test_initial_state_cluster_epoch():
    st = ProtocolState.initial(initial_epoch=5)
    assert st.epoch == 5
    assert 5 in st.spe


def test_next_date_monotonic():
    st = ProtocolState.initial()
    assert [st.next_date() for _ in range(3)] == [1, 2, 3]


def test_begin_epoch_bumps_epoch_and_phase():
    st = ProtocolState.initial()
    st.date = 7
    st.begin_epoch()
    assert st.epoch == 2 and st.phase == 2
    assert st.spe[2].start_date == 7


def test_record_rpp_tracks_watermark():
    st = ProtocolState.initial()
    st.record_rpp(src=3, date=5)
    assert st.rpp[1][3] == 5
    assert st.last_date_from[3] == 5
    assert st.is_duplicate(3, 5)
    assert st.is_duplicate(3, 4)
    assert not st.is_duplicate(3, 6)


def test_record_rpp_rejects_non_monotonic():
    st = ProtocolState.initial()
    st.record_rpp(src=3, date=5)
    with pytest.raises(AssertionError):
        st.record_rpp(src=3, date=5)


def test_record_rpp_per_phase_buckets():
    st = ProtocolState.initial()
    st.record_rpp(src=2, date=1)
    st.phase = 4
    st.record_rpp(src=2, date=2)
    assert st.rpp == {1: {2: 1}, 4: {2: 2}}


def test_record_spe_keeps_max_recv_epoch():
    st = ProtocolState.initial()
    st.record_spe(dst=1, epoch_send=1, epoch_recv=2)
    st.record_spe(dst=1, epoch_send=1, epoch_recv=1)
    assert st.spe[1].recv_epoch[1] == 2


def test_record_spe_recreates_missing_epoch():
    st = ProtocolState.initial()
    st.record_spe(dst=1, epoch_send=99, epoch_recv=99)
    assert st.spe[99].recv_epoch[1] == 99


def test_checkpoint_copy_is_deep():
    st = ProtocolState.initial()
    st.non_ack.append(PendingAck(dst=1, tag=0, payload=[1, 2], size=8, date=1,
                                 epoch_send=1, phase_send=1))
    copy = st.checkpoint_copy()
    copy.non_ack[0].payload.append(3)
    assert st.non_ack[0].payload == [1, 2]


def test_spe_export_plain_data():
    st = ProtocolState.initial()
    st.record_spe(dst=2, epoch_send=1, epoch_recv=1)
    exp = st.spe_export()
    assert exp == {1: (0, {2: 1})}
    # mutating the export must not touch the state
    exp[1][1][2] = 99
    assert st.spe[1].recv_epoch[2] == 1


def test_logged_counters():
    st = ProtocolState.initial()
    st.logs.append(LoggedMessage(dst=1, tag=0, payload=b"abc", size=3, date=1,
                                 epoch_send=1, phase_send=1, epoch_recv=2))
    st.logs.append(LoggedMessage(dst=2, tag=0, payload=b"x", size=1, date=2,
                                 epoch_send=1, phase_send=1, epoch_recv=3))
    assert st.logged_message_count() == 2
    assert st.logged_bytes() == 4


def test_epoch_record_defaults():
    rec = EpochRecord(start_date=9)
    assert rec.start_date == 9 and rec.recv_epoch == {}


# ----------------------------------------------------------------------
# checkpoint_copy == copy.deepcopy, structurally (the typed copy's oracle)
# ----------------------------------------------------------------------
def _random_payload(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return None
    if kind == 1:
        return np.arange(rng.randrange(1, 6), dtype=np.float64) * rng.random()
    if kind == 2:
        return [rng.randrange(9), [rng.random(), "x"], np.ones(2)]
    if kind == 3:
        return (rng.randrange(9), "tag", (1.5, None))       # deeply immutable
    if kind == 4:
        return (rng.randrange(9), [rng.randrange(9)])       # tuple, mutable inside
    if kind == 5:
        return {"k": [rng.randrange(9)], "a": np.zeros(3, dtype=np.int32)}
    return rng.randrange(1000)


def _random_state(seed):
    """A state grown through the protocol's own mutators (so the source
    carries live row caches and indexes), then disturbed the way the GC and
    the chaos harness disturb it: direct appends, an in-place filter of
    ``non_ack`` and a filtered, rebound ``logs``."""
    rng = random.Random(seed)
    st = ProtocolState.initial(initial_epoch=rng.choice((1, 3)))
    shared = [np.arange(4.0), [1, [2, 3]], {"k": [4]}][seed % 3]
    for step in range(rng.randrange(2, 40)):
        dst = rng.randrange(4)
        # dates repeat now and then: (dst, date) buckets with two entries
        date = st.next_date() if rng.random() < 0.8 else max(st.date, 1)
        pa = PendingAck(dst=dst, tag=rng.randrange(3), payload=_random_payload(rng),
                        size=8, date=date, epoch_send=st.epoch,
                        phase_send=st.phase, uid=step)
        if rng.random() < 0.8:
            st.na_append(pa)
        else:
            st.non_ack.append(pa)                     # behind the index's back
        if rng.random() < 0.5:
            lm = LoggedMessage(dst=dst, tag=pa.tag, payload=_random_payload(rng),
                               size=8, date=date, epoch_send=st.epoch,
                               phase_send=st.phase, epoch_recv=st.epoch + 1,
                               uid=step)
            if rng.random() < 0.8:
                st.lg_append(lm)
            else:
                st.logs.append(lm)
        if rng.random() < 0.4:
            st.record_rpp(src=rng.randrange(4), date=1000 * (step + 1))
        if rng.random() < 0.4:
            st.record_spe(dst, st.epoch, rng.randrange(1, st.epoch + 2))
        if rng.random() < 0.2:
            st.begin_epoch()
        if rng.random() < 0.1:
            st.phase += 1
        st.delivered_count += 1
    # one payload object referenced by a non_ack *and* a logs record
    st.na_append(PendingAck(dst=0, tag=7, payload=shared, size=8,
                            date=st.next_date(), epoch_send=st.epoch,
                            phase_send=st.phase))
    st.lg_append(LoggedMessage(dst=1, tag=7, payload=shared, size=8,
                               date=st.date, epoch_send=st.epoch,
                               phase_send=st.phase, epoch_recv=st.epoch + 1))
    st.lg_find(0, 1)
    st.na_contains(0, 1)                              # both indexes are live
    if seed % 2:
        st.logs = [lm for lm in st.logs if lm.uid % 3 or lm.tag == 7]  # GC
        st.non_ack[:] = [pa for pa in st.non_ack if pa.uid % 4 or pa.tag == 7]
    return st


def _plain(obj):
    """Payload with every ndarray replaced by a comparable token, so that
    dataclass ``==`` (which would call ``bool(ndarray == ndarray)``) works."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, list):
        return [_plain(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_plain(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def _comparable(st):
    return dataclasses.replace(
        st,
        non_ack=[dataclasses.replace(pa, payload=_plain(pa.payload))
                 for pa in st.non_ack],
        logs=[dataclasses.replace(lm, payload=_plain(lm.payload))
              for lm in st.logs],
    )


def _mutable_objects(st):
    """Every mutable object reachable from ``st``: containers, records and
    (recursively) mutable payload parts.  Returns ``({id: obj}, [ndarray])``."""
    seen, arrays = {}, []

    def walk(obj):
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj
            arrays.append(obj)
        elif isinstance(obj, (list, dict)):
            seen[id(obj)] = obj
            for x in (obj.values() if isinstance(obj, dict) else obj):
                walk(x)
        elif isinstance(obj, tuple):
            for x in obj:
                walk(x)
        elif isinstance(obj, (EpochRecord, PendingAck, LoggedMessage)):
            seen[id(obj)] = obj
            walk(obj.recv_epoch if isinstance(obj, EpochRecord) else obj.payload)

    seen[id(st)] = st
    for part in (st.spe, st.rpp, st.non_ack, st.logs, st.last_date_from):
        walk(part)
    return seen, arrays


def _keys_to_probe(records):
    keys = {(r.dst, r.date) for r in records}
    return sorted(keys | {(9, 1), (0, 10 ** 9)})


@pytest.mark.parametrize("seed", range(40))
def test_checkpoint_copy_equals_deepcopy(seed):
    st = _random_state(seed)
    reference = copy.deepcopy(st)
    dup = st.checkpoint_copy()
    assert _comparable(dup) == _comparable(reference)
    assert type(dup.logs) is list and type(dup.non_ack) is list
    # no cache or index travels with a copy
    assert dup._rpp_row is None and dup._spe_rec is None
    assert dup._na_index is None and dup._lg_index is None

    # shares no mutable object (or array memory) with its source ...
    src_objs, src_arrays = _mutable_objects(st)
    dup_objs, dup_arrays = _mutable_objects(dup)
    assert not src_objs.keys() & dup_objs.keys()
    assert not any(np.shares_memory(a, b) for a in src_arrays for b in dup_arrays)
    # ... has as many distinct ones (what was shared stays shared, what was
    # separate stays separate) ...
    assert len(dup_objs) == len(src_objs) == len(_mutable_objects(reference)[0])
    # ... and the payload shared by a non_ack and a logs record still is
    shared_na = [pa for pa in dup.non_ack if pa.tag == 7]
    shared_lg = [lm for lm in dup.logs if lm.tag == 7]
    assert len(shared_na) == len(shared_lg) == 1
    assert shared_na[0].payload is shared_lg[0].payload

    # the lazily rebuilt indexes agree with a front-to-back scan
    for dst, date in _keys_to_probe(dup.logs):
        scan = next((lm for lm in dup.logs if (lm.dst, lm.date) == (dst, date)), None)
        assert dup.lg_find(dst, date) is scan
    for dst, date in _keys_to_probe(dup.non_ack):
        scan = [pa for pa in dup.non_ack if (pa.dst, pa.date) == (dst, date)]
        assert dup.na_contains(dst, date) == bool(scan)
        before = list(dup.non_ack)
        popped = dup.na_pop(dst, date)
        assert popped is (scan[0] if scan else None)
        if scan:
            before.pop(next(i for i, x in enumerate(before) if x is scan[0]))
        assert all(a is b for a, b in zip(dup.non_ack, before))
        assert len(dup.non_ack) == len(before)
    # draining the copy never touched the source
    assert _comparable(st) == _comparable(reference)


def test_checkpoint_copy_of_empty_state():
    st = ProtocolState()
    dup = st.checkpoint_copy()
    assert dup == copy.deepcopy(st) == ProtocolState()
    assert dup.lg_find(0, 1) is None and dup.na_pop(0, 1) is None
    dup.record_rpp(src=1, date=1)
    dup.record_spe(dst=1, epoch_send=1, epoch_recv=1)
    assert st == ProtocolState()


def test_checkpoint_copy_row_caches_do_not_alias_the_source():
    st = ProtocolState.initial()
    st.record_rpp(src=2, date=1)          # binds the source's RPP row cache
    st.record_spe(dst=2, epoch_send=1, epoch_recv=1)
    dup = st.checkpoint_copy()
    dup.record_rpp(src=2, date=2)
    dup.record_spe(dst=2, epoch_send=1, epoch_recv=5)
    assert st.rpp == {1: {2: 1}} and st.spe[1].recv_epoch == {2: 1}
    assert dup.rpp == {1: {2: 2}} and dup.spe[1].recv_epoch == {2: 5}
