"""Fig. 5 ablation — acknowledgement traffic under the channel optimization.

Every message must be acknowledged with its reception epoch for the
logging rule to work; the paper's implementation avoids the naive
ack-per-message by copying small messages eagerly, piggybacking the
last-received ssn on reverse traffic, and acknowledging explicitly only
the first logged message per (channel, epoch) and large messages.

This ablation drives one channel through representative workloads and
counts explicit acknowledgements against the naive scheme, plus the
default-copy volume held at the sender — the memory-vs-latency trade the
optimization makes.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.logstore import ReceiverChannel, SenderChannel

from conftest import emit


def drive(n_messages, size, ckpt_every=0, reverse_every=5):
    """Run a one-directional workload with periodic receiver checkpoints
    and reverse-traffic piggybacks; returns (sender, receiver)."""
    sender = SenderChannel()
    receiver = ReceiverChannel()
    for i in range(1, n_messages + 1):
        if ckpt_every and i % ckpt_every == 0:
            receiver.advance_epoch()
        msg, _blocking = sender.send(size)
        ack = receiver.deliver(msg)
        if ack is not None:
            sender.on_explicit_ack(*ack)
        if reverse_every and i % reverse_every == 0:
            sender.on_piggyback(*receiver.piggyback())
        if sender.needs_ack_request():
            sender.make_ack_request()
            sender.on_piggyback(*receiver.piggyback())
    return sender, receiver


SCENARIOS = {
    "small msgs, no epoch crossings": dict(n_messages=500, size=64),
    "small msgs, ckpt every 50": dict(n_messages=500, size=64, ckpt_every=50),
    "large msgs (64 KiB)": dict(n_messages=100, size=1 << 16),
    "silent peer (no reverse traffic)": dict(n_messages=500, size=64,
                                             reverse_every=0),
}


@pytest.fixture(scope="module")
def ack_counts():
    out = {}
    for name, kw in SCENARIOS.items():
        sender, receiver = drive(**kw)
        out[name] = {
            "n": kw["n_messages"],
            "explicit": receiver.stats.explicit_acks,
            "requests": sender.stats.ack_requests,
            "retained_peak": sender.unconfirmed,
            "logged": len(sender.log),
        }
    return out


def test_ack_traffic_table(ack_counts, benchmark):
    rows = [
        [name, v["n"], v["n"], v["explicit"], v["requests"], v["logged"]]
        for name, v in ack_counts.items()
    ]
    table = format_table(
        ["scenario", "messages", "naive acks", "optimized acks",
         "ack requests", "logged"],
        rows,
    )
    table += ("\n(Fig. 5: piggybacked ssn + first-log-ack per channel epoch "
              "+ eager copies remove almost all explicit acknowledgements "
              "for small messages)\n")
    emit("ablation_ack_traffic.txt", table)
    benchmark(lambda: drive(200, 64, ckpt_every=50))


def test_small_message_acks_nearly_eliminated(ack_counts, benchmark):
    v = ack_counts["small msgs, no epoch crossings"]
    assert benchmark(lambda: v["explicit"]) == 0


def test_epoch_crossings_cost_one_ack_each(ack_counts, benchmark):
    v = ack_counts["small msgs, ckpt every 50"]
    # 500/50 = 10 receiver epochs -> at most one first-log ack per
    # (channel, sender-epoch) pair; sender never checkpoints here so the
    # already-logged marking caps it at the number of receiver epochs
    assert benchmark(lambda: v["explicit"]) <= 10
    assert v["logged"] > 0


def test_large_messages_still_acked(ack_counts, benchmark):
    v = ack_counts["large msgs (64 KiB)"]
    assert benchmark(lambda: v["explicit"]) == v["n"]


def test_silent_peer_triggers_ack_requests(ack_counts, benchmark):
    v = ack_counts["silent peer (no reverse traffic)"]
    assert benchmark(lambda: v["requests"]) > 0
    assert v["retained_peak"] <= 65  # bounded by the request threshold
