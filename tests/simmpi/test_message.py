"""Unit tests for envelopes and payload sizing."""

import copy

import numpy as np

from repro.apps.base import RankProgram
from repro.simmpi import World
from repro.simmpi.message import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_TAG_BASE,
    CONTROL_TAG_BASE,
    Envelope,
    payload_nbytes,
    retention_copy,
)


def test_wildcards_are_negative():
    assert ANY_SOURCE < 0 and ANY_TAG < 0


def test_payload_nbytes_numpy():
    arr = np.zeros(100, dtype=np.float64)
    assert payload_nbytes(arr) == 800


def test_payload_nbytes_bytes():
    assert payload_nbytes(b"abcd") == 4


def test_payload_nbytes_scalars():
    assert payload_nbytes(3) == 8
    assert payload_nbytes(3.5) == 8
    assert payload_nbytes(None) == 8
    assert payload_nbytes(True) == 8


def test_payload_nbytes_str():
    assert payload_nbytes("hello") == 5


def test_payload_nbytes_containers_nest():
    assert payload_nbytes([1, 2]) == 16 + 16
    assert payload_nbytes({"a": 1}) == 16 + 1 + 8


def _generic_nbytes(payload):
    """The generic chain under payload_nbytes' exact-type fast paths."""
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
        return 16 + sum(_generic_nbytes(x) for x in payload)
    if isinstance(payload, dict):
        return 16 + sum(_generic_nbytes(k) + _generic_nbytes(v)
                        for k, v in payload.items())
    return 64


class _Sub(np.ndarray):
    pass


def test_payload_nbytes_fast_paths_equal_the_generic_chain():
    # (None is the one exception: 8 bytes, a fast-path-only case)
    boxed = np.empty(3, dtype=object)
    boxed[:] = [[1, 2], "x", None]
    samples = [
        7, 3.14, True, b"abcd", bytearray(b"ab"), "hello", "héllo",
        (1, 2.0, "x"), [1, [2, 3]], {"date": 4, "epoch_send": 1,
                                    "epoch_recv": 2, "dup": False},
        {"nested": {"a": (1, b"zz")}, 3: "k"},
        np.zeros(16), np.arange(6, dtype=np.int32).reshape(2, 3)[:, ::2],
        np.array(2.5), np.zeros(4).view(_Sub), boxed, [np.ones(3), 1],
    ]
    for payload in samples:
        assert payload_nbytes(payload) == _generic_nbytes(payload), payload


def test_payload_nbytes_fallback():
    class Thing:
        pass

    assert payload_nbytes(Thing()) == 64


def test_envelope_size_defaults_to_payload():
    env = Envelope(src=0, dst=1, tag=0, payload=np.zeros(10))
    assert env.size == 80


def test_envelope_explicit_size_kept():
    env = Envelope(src=0, dst=1, tag=0, payload=b"", size=4096)
    assert env.size == 4096


def test_envelope_uids_unique_and_increasing():
    # uids come from the world that emits the envelope: unique and
    # increasing in emission order, and a second world numbers alike
    class Ring(RankProgram):
        def run(self, api):
            for _ in range(3):
                yield api.send((self.rank + 1) % self.size, 1.0)
                yield api.recv()

    def emitted_uids():
        world = World(3, Ring)
        seen = []
        transmit = world.network.transmit
        world.network.transmit = lambda env: (seen.append(env.uid),
                                              transmit(env))[1]
        world.launch()
        world.run()
        world.close()
        return seen

    first = emitted_uids()
    assert len(first) == 9 and first == sorted(set(first)) and first[0] >= 1
    assert emitted_uids() == first
    assert Envelope(src=0, dst=1, tag=0, payload=1).uid == 0  # unnumbered


def test_tag_classification():
    app = Envelope(src=0, dst=1, tag=5, payload=1)
    coll = Envelope(src=0, dst=1, tag=COLLECTIVE_TAG_BASE - 3, payload=1)
    ctl = Envelope(src=0, dst=1, tag=CONTROL_TAG_BASE - 1, payload=1)
    assert not app.is_control and not coll.is_control
    assert ctl.is_control


def test_retention_copy_memo_keeps_one_object_one_copy():
    arr = np.arange(3.0)
    memo = {}
    first, second = retention_copy(arr, memo), retention_copy(arr, memo)
    assert first is second and first is not arr
    assert retention_copy(arr) is not first          # no memo, fresh copy
    frozen = (1, "x", (2.5, None))
    assert retention_copy(frozen, memo) is frozen    # immutable: shared


def test_retention_copy_copies_a_plain_array_as_an_array():
    for arr in (np.arange(12.0).reshape(3, 4),
                np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3)),
                np.arange(10.0)[::2]):
        dup, ref = retention_copy(arr), copy.deepcopy(arr)
        assert type(dup) is np.ndarray
        assert (dup.dtype, dup.shape, dup.strides) == (ref.dtype, ref.shape,
                                                      ref.strides)
        assert dup.tobytes() == arr.tobytes()
        assert not np.shares_memory(dup, arr)
        dup[...] = 0                                   # independent buffer
        assert arr.any()


def test_retention_copy_array_path_honours_the_deepcopy_memo():
    # one memo across a structure (ProtocolState.checkpoint_copy): an array
    # referenced by a non_ack and a logs record is one object in the copy,
    # also when one reference sits inside a container deepcopy walks
    arr = np.arange(5.0)
    memo = {}
    direct = retention_copy(arr, memo)
    nested = retention_copy([arr, {"again": arr}], memo)
    assert nested[0] is direct and nested[1]["again"] is direct
    assert memo[id(arr)] is direct
    assert any(kept is arr for kept in memo[id(memo)])  # original kept alive
    # and the other way round: deepcopy saw it first
    memo2 = {}
    nested2 = retention_copy([arr], memo2)
    assert retention_copy(arr, memo2) is nested2[0]


def test_retention_copy_leaves_object_arrays_and_subclasses_to_deepcopy():
    inner = [1, 2]
    boxed = np.empty(2, dtype=object)
    boxed[0] = boxed[1] = inner
    dup = retention_copy(boxed)
    assert dup[0] == inner and dup[0] is not inner     # elements copied too
    assert dup[0] is dup[1]

    class Tagged(np.ndarray):
        def __deepcopy__(self, memo):
            out = np.ndarray.__deepcopy__(self, memo).view(Tagged)
            out.went_through_deepcopy = True
            return out

    sub = np.arange(3.0).view(Tagged)
    dup = retention_copy(sub)
    assert type(dup) is Tagged and dup.went_through_deepcopy
    assert dup.tolist() == [0.0, 1.0, 2.0]


def test_stored_copy_matches_deepcopy_and_shares_nothing_mutable():
    env = Envelope(src=3, dst=1, tag=9, payload=[1, np.arange(4.0)], size=77,
                   meta={"date": 5, "acks": [{"date": 2, "epoch_recv": 1}]},
                   send_time=1.5e-4)
    dup, ref = env.stored_copy(), copy.deepcopy(env)
    for slot in Envelope.__slots__:
        if slot != "payload":
            assert getattr(dup, slot) == getattr(ref, slot) == getattr(env, slot)
    assert dup.payload[0] == 1 and (dup.payload[1] == env.payload[1]).all()
    assert dup.payload is not env.payload
    assert not np.shares_memory(dup.payload[1], env.payload[1])
    assert dup.meta is not env.meta
    assert dup.meta["acks"][0] is not env.meta["acks"][0]
    # immutable payloads stay shared (the zero-copy rule)
    blob = Envelope(src=0, dst=1, tag=0, payload=b"abc")
    assert blob.stored_copy().payload is blob.payload
