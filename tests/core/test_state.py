"""Unit tests for the per-process protocol state (Fig. 3 local variables)."""

import copy
import dataclasses
import random

import numpy as np
import pytest

from repro.core.state import EpochRecord, ProtocolState, SentMessage
from repro.errors import ProtocolError


def test_initial_state():
    st = ProtocolState.initial()
    assert st.date == 0 and st.epoch == 1 and st.phase == 1
    assert st.spe[1].start_date == 0
    assert st.rpp == {} and st.non_ack == {} and st.logs == {}


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
    assert st.last_date_from[3] == 5  # dates <= 5 from rank 3 are duplicates


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
    st.na_append(SentMessage(dst=1, tag=0, payload=[1, 2], size=8, date=1,
                             epoch_send=1, phase_send=1))
    copy = st.checkpoint_copy()
    copy.non_ack[1, 1].payload.append(3)
    assert st.non_ack[1, 1].payload == [1, 2]


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
    st.lg_append(SentMessage(dst=1, tag=0, payload=b"abc", size=3, date=1,
                             epoch_send=1, phase_send=1, epoch_recv=2))
    st.lg_append(SentMessage(dst=2, tag=0, payload=b"x", size=1, date=2,
                             epoch_send=1, phase_send=1, epoch_recv=3))
    assert len(st.logs) == 2
    assert st.drop_logs_below(4) == (2, 4)


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
    carries live row caches), then thinned the way acknowledgements and
    garbage collection thin it."""
    rng = random.Random(seed)
    st = ProtocolState.initial(initial_epoch=rng.choice((1, 3)))
    shared = [np.arange(4.0), [1, [2, 3]], {"k": [4]}][seed % 3]
    for step in range(rng.randrange(2, 40)):
        dst = rng.randrange(4)
        date = st.next_date()
        pa = SentMessage(dst=dst, tag=rng.randrange(3), payload=_random_payload(rng),
                         size=8, date=date, epoch_send=st.epoch,
                         phase_send=st.phase, uid=step)
        st.na_append(pa)
        if rng.random() < 0.5:
            st.lg_append(SentMessage(
                dst=dst, tag=pa.tag, payload=_random_payload(rng), size=8,
                date=date, epoch_send=st.epoch, phase_send=st.phase,
                epoch_recv=st.epoch + rng.randrange(1, 3), uid=step))
        if rng.random() < 0.4:
            st.record_rpp(src=rng.randrange(4), date=1000 * (step + 1))
        if rng.random() < 0.4:
            st.record_spe(dst, st.epoch, rng.randrange(1, st.epoch + 2))
        if rng.random() < 0.2:
            st.begin_epoch()
        if rng.random() < 0.1:
            st.phase += 1
    # one payload object referenced by a non_ack *and* a logs record
    st.na_append(SentMessage(dst=0, tag=7, payload=shared, size=8,
                             date=st.next_date(), epoch_send=st.epoch,
                             phase_send=st.phase))
    st.lg_append(SentMessage(dst=1, tag=7, payload=shared, size=8,
                             date=st.date, epoch_send=st.epoch,
                             phase_send=st.phase, epoch_recv=st.epoch + 2))
    if seed % 2:
        st.drop_logs_below(st.epoch + 1)
        for pa in [pa for pa in st.non_ack.values()
                   if pa.uid % 4 == 0 and pa.tag != 7]:
            st.na_pop(pa.dst, pa.date)
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
        non_ack={key: dataclasses.replace(pa, payload=_plain(pa.payload))
                 for key, pa in st.non_ack.items()},
        logs={key: dataclasses.replace(lm, payload=_plain(lm.payload))
              for key, lm in st.logs.items()},
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
        elif isinstance(obj, (EpochRecord, SentMessage)):
            seen[id(obj)] = obj
            walk(obj.recv_epoch if isinstance(obj, EpochRecord) else obj.payload)

    seen[id(st)] = st
    for part in (st.spe, st.rpp, st.non_ack, st.logs, st.last_date_from):
        walk(part)
    return seen, arrays


@pytest.mark.parametrize("seed", range(40))
def test_checkpoint_copy_equals_deepcopy(seed):
    st = _random_state(seed)
    reference = copy.deepcopy(st)
    dup = st.checkpoint_copy()
    assert _comparable(dup) == _comparable(reference)
    # same records in the same order, under the same keys
    assert list(dup.non_ack) == list(st.non_ack)
    assert list(dup.logs) == list(st.logs)
    assert all(key == (r.dst, r.date)
               for part in (dup.non_ack, dup.logs) for key, r in part.items())
    # no row cache travels with a copy
    assert dup._rpp_row is None and dup._spe_rec is None

    # shares no mutable object (or array memory) with its source but the
    # RPP rows of closed phases, which nothing writes again ...
    src_objs, src_arrays = _mutable_objects(st)
    dup_objs, dup_arrays = _mutable_objects(dup)
    assert src_objs.keys() & dup_objs.keys() == {
        id(row) for phase, row in st.rpp.items() if phase < st.phase}
    assert not any(np.shares_memory(a, b) for a in src_arrays for b in dup_arrays)
    # ... has as many distinct ones (what was shared stays shared, what was
    # separate stays separate) ...
    assert len(dup_objs) == len(src_objs) == len(_mutable_objects(reference)[0])
    # ... and the payload shared by a non_ack and a logs record still is
    shared_na = [pa for pa in dup.non_ack.values() if pa.tag == 7]
    shared_lg = [lm for lm in dup.logs.values() if lm.tag == 7]
    assert len(shared_na) == len(shared_lg) == 1
    assert shared_na[0].payload is shared_lg[0].payload

    for dst, date in list(dup.non_ack):
        dup.na_pop(dst, date)
    dup.drop_logs_below(10 ** 9)
    assert not dup.non_ack and not dup.logs
    # draining the copy never touched the source
    assert _comparable(st) == _comparable(reference)


def _touch_payload(payload):
    """Mutate a payload in place where it can be (what a rank program may
    do to a buffer after sending it)."""
    if isinstance(payload, np.ndarray):
        payload += 1
    elif isinstance(payload, list):
        payload.append(0)
    elif isinstance(payload, dict):
        payload["touched"] = True


@pytest.mark.parametrize("seed", range(30))
def test_images_stay_as_captured_while_live_and_restored_states_run_on(seed):
    """Live state, images and states restored from images may share the
    RPP rows of closed phases.  Drive every mutator on whichever state is
    live — capturing images and restoring from them (a copy of an image,
    whose log epochs and SPE cells are then lifted the way ``adopt_state``
    lifts them) in between — and every image still equals the deepcopy
    taken when it was captured."""
    rng = random.Random(seed)
    st = ProtocolState.initial(initial_epoch=rng.choice((1, 3)))
    images = []  # (image, its deepcopy at capture)
    for step in range(rng.randrange(60, 200)):
        op = rng.randrange(11)
        records = [*st.non_ack.values(), *st.logs.values()]
        if op == 0:
            st.na_append(SentMessage(
                dst=rng.randrange(4), tag=0, payload=_random_payload(rng),
                size=8, date=st.next_date(), epoch_send=st.epoch,
                phase_send=st.phase, uid=step))
        elif op == 1 and st.non_ack:
            pa = st.na_pop(*rng.choice(list(st.non_ack)))
            if rng.random() < 0.5:
                pa.epoch_recv = st.epoch + rng.randrange(1, 3)
                st.lg_append(pa)
        elif op in (2, 3):
            st.record_rpp(src=rng.randrange(4), date=1000 * (step + 1))
        elif op == 4:
            st.record_spe(rng.randrange(4), rng.choice(list(st.spe)),
                          rng.randrange(1, st.epoch + 2))
        elif op == 5:
            st.begin_epoch()
        elif op == 6:  # a message from a later phase (``on_message``)
            st.phase = max(st.phase, st.phase + rng.randrange(0, 3))
        elif op == 7:
            st.drop_logs_below(st.epoch + rng.randrange(-1, 2))
        elif op == 8 and records:
            _touch_payload(rng.choice(records).payload)
        elif op == 9:
            image = st.checkpoint_copy()
            images.append((image, copy.deepcopy(image)))
        elif op == 10 and images:
            st = rng.choice(images)[0].checkpoint_copy()
            for lm in st.logs.values():
                lm.epoch_recv += 1
            for rec in st.spe.values():
                for dst in rec.recv_epoch:
                    rec.recv_epoch[dst] += 1
        for image, captured in images:
            assert _comparable(image) == _comparable(captured)
    assert images


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


# ----------------------------------------------------------------------
# non_ack / logs against a plain list-scan model
# ----------------------------------------------------------------------
def _scan(records, dst, date):
    return next((r for r in records if (r.dst, r.date) == (dst, date)), None)


@pytest.mark.parametrize("seed", range(30))
def test_non_ack_and_logs_match_a_list_scan_model(seed):
    """Random op sequences against two plain lists scanned front to back
    — the representation the dicts replaced.  One record type serves both,
    and logging moves a record from one to the other."""
    rng = random.Random(seed)
    st = ProtocolState.initial()
    na_model: list[SentMessage] = []
    lg_model: list[SentMessage] = []

    def probe():
        if rng.random() < 0.7 and (na_model or lg_model):
            r = rng.choice(na_model + lg_model)
            return r.dst, r.date
        return rng.randrange(4), rng.randrange(1, st.date + 3)

    for step in range(rng.randrange(20, 120)):
        op = rng.randrange(7)
        if op == 0:
            pa = SentMessage(dst=rng.randrange(4), tag=0,
                             payload=_random_payload(rng), size=rng.randrange(64),
                             date=st.next_date(), epoch_send=st.epoch,
                             phase_send=st.phase, uid=step)
            st.na_append(pa)
            na_model.append(pa)
        elif op == 1:
            dst, date = probe()
            expected = _scan(na_model, dst, date)
            assert st.na_pop(dst, date) is expected
            na_model = [r for r in na_model if r is not expected]
        elif op == 2:
            dst, date = probe()
            assert st.na_contains(dst, date) == (_scan(na_model, dst, date) is not None)
        elif op == 3:
            # an ack from a later epoch moves the NonAck record into the
            # log (a fresh send stands in when nothing awaits an ack)
            if na_model:
                lm = rng.choice(na_model)
                assert st.na_pop(lm.dst, lm.date) is lm
                na_model = [r for r in na_model if r is not lm]
            else:
                lm = SentMessage(dst=rng.randrange(4), tag=0,
                                 payload=_random_payload(rng),
                                 size=rng.randrange(64), date=st.next_date(),
                                 epoch_send=st.epoch, phase_send=st.phase,
                                 uid=step)
            lm.epoch_recv = st.epoch + rng.randrange(1, 4)
            st.lg_append(lm)
            lg_model.append(lm)
        elif op == 4:
            dst, date = probe()
            assert st.lg_find(dst, date) is _scan(lg_model, dst, date)
        elif op == 5:
            bound = st.epoch + rng.randrange(0, 4)
            stale = [lm for lm in lg_model if lm.epoch_recv < bound]
            assert st.drop_logs_below(bound) == (
                len(stale), sum(lm.size for lm in stale))
            lg_model = [lm for lm in lg_model if lm.epoch_recv >= bound]
            if rng.random() < 0.5:
                st.begin_epoch()
        else:
            dup = st.checkpoint_copy()
            assert [(r.dst, r.date, r.uid) for r in dup.non_ack.values()] == [
                (r.dst, r.date, r.uid) for r in na_model]
            assert [(r.dst, r.date, r.uid) for r in dup.logs.values()] == [
                (r.dst, r.date, r.uid) for r in lg_model]
            # retention_copy: immutable payloads shared, mutable ones copied
            for mine, theirs in zip(
                    [*dup.non_ack.values(), *dup.logs.values()],
                    na_model + lg_model):
                shared = mine.payload is theirs.payload
                assert shared == _deeply_immutable(theirs.payload)
        # iteration order is append order, always
        assert len(st.non_ack) == len(na_model) and len(st.logs) == len(lg_model)
        assert all(a is b for a, b in zip(st.non_ack.values(), na_model))
        assert all(a is b for a, b in zip(st.logs.values(), lg_model))


def _deeply_immutable(obj):
    if isinstance(obj, tuple):
        return all(_deeply_immutable(x) for x in obj)
    return obj is None or isinstance(obj, (int, float, str, bytes))


def test_duplicate_key_append_raises():
    st = ProtocolState.initial()
    common = dict(dst=2, tag=0, payload=None, size=0, date=5, epoch_send=1,
                  phase_send=1)
    st.na_append(SentMessage(**common))
    with pytest.raises(ProtocolError):
        st.na_append(SentMessage(**common))
    st.lg_append(SentMessage(**common, epoch_recv=2))
    with pytest.raises(ProtocolError):
        st.lg_append(SentMessage(**common, epoch_recv=3))
    # the first entries are untouched, and a popped key may come back
    assert st.logs[2, 5].epoch_recv == 2
    assert st.na_pop(2, 5) is not None
    st.na_append(SentMessage(**common))
