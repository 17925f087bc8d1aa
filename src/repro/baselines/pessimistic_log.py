"""Pessimistic sender-based message logging baseline.

The other end of the design space the paper positions itself against
(Alvisi & Marzullo's taxonomy, [1] in the paper): log **every** message
payload at its sender and synchronously record a *determinant* (source +
per-channel sequence number, in delivery order) at the receiver.  Under
piecewise determinism this makes the failed process the *only* process to
roll back — but at the price of logging 100 % of the traffic and of the
determinant-logging latency on every receive.

Implementation notes
--------------------
* Payload logging is in sender memory (as in the paper's sender-based
  references), under the same retention rule as the paper's protocol
  (:func:`~repro.simmpi.message.retention_copy`); determinants go to a
  simulated synchronous stable store (no write latency is modelled).
* A local checkpoint is a :class:`~repro.core.checkpoint.ProcessImage`
  plus this protocol's sequence numbers, timed by the same
  :class:`~repro.core.checkpoint.CheckpointSchedule` the paper's protocol
  uses.
* On a failure, the controller restarts the failed rank from its latest
  local checkpoint (:func:`~repro.core.checkpoint.restart_rank`), collects
  from every peer the logged messages the
  restored state has not yet delivered, and feeds them to the restarted
  process **in the recorded determinant order** — that is what makes
  non-send-deterministic applications replay correctly.
* Messages re-sent by the recovering process are suppressed at the peers
  by per-channel sequence watermarks.

Metrics: ``%log`` ≡ 100, rolled-back processes ≡ 1 per failure — the two
numbers Table I compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.checkpoint import CheckpointSchedule, ProcessImage, restart_rank
from ..core.controller import Controller
from ..errors import ProtocolError
from ..simmpi.message import Envelope, retention_copy
from ..simmpi.process import ProtocolHook
from ..simmpi.runtime import World

__all__ = ["PMLConfig", "PMLHook", "PMLController"]


@dataclass
class PMLConfig:
    checkpoint_interval: float | None = None
    rank_stagger: float = 0.0


@dataclass
class _PMLCheckpoint:
    image: ProcessImage
    send_seq: dict[int, int]
    recv_seq: dict[int, int]
    determinant_count: int


class PMLHook(ProtocolHook):
    """Per-rank pessimistic logging engine."""

    def __init__(self, rank: int, controller: "PMLController"):
        self.rank = rank
        self.controller = controller
        #: per destination: next send sequence number
        self.send_seq: dict[int, int] = {}
        #: per source: highest delivered sequence number (dup watermark)
        self.recv_seq: dict[int, int] = {}
        #: sender-based payload log: dst -> [(seq, date, tag, payload, size)]
        self.sent_log: dict[int, list[tuple[int, int, int, Any, int]]] = {}
        #: receiver determinant log (synchronous stable store)
        self.determinants: list[tuple[int, int]] = []  # (src, seq)
        self.checkpoints: list[_PMLCheckpoint] = []
        cfg = controller.config
        self.schedule = CheckpointSchedule(cfg.checkpoint_interval,
                                           offset=cfg.rank_stagger * rank)
        self.messages_logged = 0
        self.bytes_logged = 0
        self.replaying = False
        #: deliveries queued during ordered replay, in arrival order
        self._replay_plan: list[tuple[int, int]] = []
        self._replay_buffer: list[Envelope] = []

    # --- send path -------------------------------------------------------
    def on_app_send(self, env: Envelope) -> None:
        seq = self.send_seq.get(env.dst, 0) + 1
        self.send_seq[env.dst] = seq
        env.meta["seq"] = seq
        # the sender's send-sequence number over all destinations: the key
        # the tracer collapses re-executed and replayed sends by (it rolls
        # back with ``send_seq``, so a re-execution reuses the date)
        date = env.meta["date"] = sum(self.send_seq.values())
        self.sent_log.setdefault(env.dst, []).append(
            (seq, date, env.tag, retention_copy(env.payload), env.size)
        )
        self.messages_logged += 1
        self.bytes_logged += env.size

    # --- receive path ------------------------------------------------------
    def on_message(self, env: Envelope) -> bool:
        seq = env.meta["seq"]
        if seq <= self.recv_seq.get(env.src, 0):
            return False  # duplicate from a recovering sender
        if self.replaying:
            # buffer; deliveries happen strictly in determinant order, then
            # leftovers (messages beyond the failure point) flush in arrival
            # order once the plan is exhausted
            self._replay_buffer.append(env)
            self._pump_replay()
            return False
        self._deliver_bookkeeping(env.src, seq)
        return True

    def _deliver_bookkeeping(self, src: int, seq: int) -> None:
        self.recv_seq[src] = seq
        self.determinants.append((src, seq))

    # --- ordered replay ---------------------------------------------------
    def begin_replay(self, plan: list[tuple[int, int]]) -> None:
        self.replaying = bool(plan)
        self._replay_plan = list(plan)

    def _pump_replay(self) -> None:
        while self._replay_plan:
            src, seq = self._replay_plan[0]
            env = next(
                (e for e in self._replay_buffer
                 if e.src == src and e.meta["seq"] == seq),
                None,
            )
            if env is None:
                return
            self._replay_buffer.remove(env)
            self._replay_plan.pop(0)
            self._deliver_bookkeeping(env.src, env.meta["seq"])
            self.proc.deliver_to_app(env)
        self.replaying = False
        leftovers, self._replay_buffer = self._replay_buffer, []
        for env in leftovers:
            self._deliver_bookkeeping(env.src, env.meta["seq"])
            self.proc.deliver_to_app(env)

    # --- checkpointing -----------------------------------------------------
    def checkpoint_due(self) -> bool:
        return self.schedule.due(self.world.engine.now)

    def on_checkpoint(self) -> None:
        self.schedule.mark_taken(self.world.engine.now)
        self.take_checkpoint()

    def take_checkpoint(self) -> None:
        self.checkpoints.append(
            _PMLCheckpoint(
                image=ProcessImage.capture(self.world, self.rank),
                send_seq=dict(self.send_seq),
                recv_seq=dict(self.recv_seq),
                determinant_count=len(self.determinants),
            )
        )


class PMLController(Controller):
    """Failure orchestration: restart the failed rank only."""

    def __init__(self, nprocs: int, config: PMLConfig | None = None):
        super().__init__(nprocs, config or PMLConfig())
        self.hooks = [PMLHook(r, self) for r in range(nprocs)]

    def bind(self, world: World) -> None:
        super().bind(world)
        for hook in self.hooks:
            hook.take_checkpoint()  # the initial state

    # ------------------------------------------------------------------
    def on_failures(self, ranks: list[int]) -> None:
        if len(ranks) != 1:
            raise ProtocolError(
                "the pessimistic-logging baseline handles one failure at a time"
            )
        assert self.world is not None
        world = self.world
        rank = ranks[0]
        self.rolled_back_history.append(1)
        hook = self.hooks[rank]
        ckpt = hook.checkpoints[-1]
        restart_rank(world, rank, ckpt.image, killed=True)
        hook.send_seq = dict(ckpt.send_seq)
        hook.recv_seq = dict(ckpt.recv_seq)
        # determinants after the checkpoint define the exact replay order
        plan = hook.determinants[ckpt.determinant_count:]
        hook.determinants = hook.determinants[: ckpt.determinant_count]
        hook.begin_replay(plan)
        # peers re-send from their sender-based logs everything the restored
        # state has not delivered yet (the failed rank's own re-sends are
        # suppressed at the peers by the sequence watermarks)
        for peer_rank, peer in enumerate(self.hooks):
            if peer_rank == rank:
                continue
            for seq, date, tag, payload, size in peer.sent_log.get(rank, []):
                if seq > hook.recv_seq.get(peer_rank, 0):
                    env = Envelope(src=peer_rank, dst=rank, tag=tag,
                                   payload=retention_copy(payload), size=size,
                                   meta={"seq": seq, "date": date,
                                         "replayed": True},
                                   uid=world.next_uid())
                    world.transmit_app(env)
