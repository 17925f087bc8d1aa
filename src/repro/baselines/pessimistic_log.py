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
  references); determinants go to a simulated synchronous stable store
  whose write latency is chargeable (``determinant_latency``).
* On a failure, the controller restores the failed rank from its latest
  local checkpoint, collects from every peer the logged messages the
  restored state has not yet delivered, and feeds them to the restarted
  process **in the recorded determinant order** — that is what makes
  non-send-deterministic applications replay correctly.
* Messages re-sent by the recovering process are suppressed at the peers
  by per-channel sequence watermarks.

Metrics: ``%log`` ≡ 100, rolled-back processes ≡ 1 per failure — the two
numbers Table I compares against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from ..errors import ProtocolError
from ..simmpi.failure import FailureInjector
from ..simmpi.message import Envelope
from ..simmpi.process import ProtocolHook
from ..simmpi.runtime import World

__all__ = ["PMLConfig", "PMLHook", "PMLController", "build_pml_world"]


@dataclass
class PMLConfig:
    checkpoint_interval: float | None = None
    rank_stagger: float = 0.0
    #: synchronous determinant-write latency charged per delivery (the
    #: classic pessimistic-logging cost; 0 disables)
    determinant_latency: float = 0.0


@dataclass
class _PMLCheckpoint:
    app_state: Any
    coll_seq: int
    unexpected: list[Envelope]
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
        #: sender-based payload log: dst -> [(seq, tag, payload, size)]
        self.sent_log: dict[int, list[tuple[int, int, Any, int]]] = {}
        #: receiver determinant log (synchronous stable store)
        self.determinants: list[tuple[int, int]] = []  # (src, seq)
        self.checkpoints: list[_PMLCheckpoint] = []
        self._next_ckpt: float | None = None
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
        self.sent_log.setdefault(env.dst, []).append(
            (seq, env.tag, copy.deepcopy(env.payload), env.size)
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
        cfg = self.controller.config
        if cfg.checkpoint_interval is None:
            return False
        now = self.world.engine.now
        if self._next_ckpt is None:
            self._next_ckpt = cfg.checkpoint_interval + cfg.rank_stagger * self.rank
        return now >= self._next_ckpt

    def on_checkpoint(self) -> None:
        cfg = self.controller.config
        assert cfg.checkpoint_interval is not None and self._next_ckpt is not None
        self._next_ckpt = self.world.engine.now + cfg.checkpoint_interval
        self.checkpoints.append(
            _PMLCheckpoint(
                app_state=self.world.programs[self.rank].snapshot(),
                coll_seq=self.world.apis[self.rank]._coll_seq,
                unexpected=[e.stored_copy() for e in self.proc.unexpected],
                send_seq=dict(self.send_seq),
                recv_seq=dict(self.recv_seq),
                determinant_count=len(self.determinants),
            )
        )


class PMLController:
    """Failure orchestration: restart the failed rank only."""

    def __init__(self, nprocs: int, config: PMLConfig | None = None):
        self.nprocs = nprocs
        self.config = config or PMLConfig()
        self.hooks = [PMLHook(r, self) for r in range(nprocs)]
        self.world: World | None = None
        self.injector: FailureInjector | None = None
        self.rolled_back_history: list[int] = []

    def hook_for(self, rank: int) -> PMLHook:
        return self.hooks[rank]

    def bind(self, world: World) -> None:
        self.world = world
        self.injector = FailureInjector(world, self.on_failures)
        for rank, hook in enumerate(self.hooks):
            hook.checkpoints.append(
                _PMLCheckpoint(
                    app_state=world.programs[rank].snapshot(),
                    coll_seq=0, unexpected=[], send_seq={}, recv_seq={},
                    determinant_count=0,
                )
            )

    def inject_failure(self, time: float, rank: int) -> None:
        assert self.injector is not None
        self.injector.at(time, rank)

    def arm(self) -> None:
        assert self.injector is not None
        self.injector.arm()

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
        proc = world.procs[rank]
        if proc.done:
            world.note_rank_restarted()
        proc.kill()
        proc.alive = True
        hook = self.hooks[rank]
        ckpt = hook.checkpoints[-1]
        program = world.programs[rank]
        program.restore(ckpt.app_state)
        world.apis[rank]._coll_seq = ckpt.coll_seq
        proc.unexpected.extend(e.stored_copy() for e in ckpt.unexpected)
        hook.send_seq = dict(ckpt.send_seq)
        hook.recv_seq = dict(ckpt.recv_seq)
        # determinants after the checkpoint define the exact replay order
        plan = hook.determinants[ckpt.determinant_count:]
        hook.determinants = hook.determinants[: ckpt.determinant_count]
        hook.begin_replay(plan)
        proc.start(program.run(world.apis[rank]))
        # peers re-send from their sender-based logs everything the restored
        # state has not delivered yet (the failed rank's own re-sends are
        # suppressed at the peers by the sequence watermarks)
        for peer_rank, peer in enumerate(self.hooks):
            if peer_rank == rank:
                continue
            for seq, tag, payload, size in peer.sent_log.get(rank, []):
                if seq > hook.recv_seq.get(peer_rank, 0):
                    env = Envelope(src=peer_rank, dst=rank, tag=tag,
                                   payload=copy.deepcopy(payload), size=size)
                    env.meta["seq"] = seq
                    env.meta["replayed"] = True
                    world.transmit_app(env)

    # ------------------------------------------------------------------
    def logging_stats(self) -> dict[str, float]:
        assert self.world is not None
        total = self.world.tracer.total_app_messages()
        logged = sum(h.messages_logged for h in self.hooks)
        return {
            "messages_total": total,
            "messages_logged": logged,
            "log_fraction": logged / total if total else 0.0,
        }


def build_pml_world(nprocs: int, program_factory, config: PMLConfig | None = None,
                    **world_kwargs) -> tuple[World, PMLController]:
    controller = PMLController(nprocs, config)
    world = World(nprocs, program_factory, hook_factory=controller.hook_for,
                  **world_kwargs)
    controller.bind(world)
    return world, controller
