"""Run one chaos trial: schedule -> simulated runs -> oracle verdicts.

A trial is three simulated executions of the same configuration:

1. a **failure-free reference** (fixes the virtual horizon, provides the
   validity baseline and the per-rank send totals that resolve
   ``after_sends`` placements);
2. the **chaos run** — the reference configuration plus the schedule's
   failures, executed under ``REPRO_SANITIZE=1`` so the live protocol
   invariants are armed;
3. a **bit-identical re-run** of the chaos run for the determinism
   oracle.

:func:`run_trial` is the module-level sweep entry point (picklable, takes
one parameter mapping, returns plain data) used by
:func:`repro.chaos.campaign.run_campaign`;
:func:`run_trial_schedule` is the in-process API the shrinker and the
minimized pytest reproducers call.
"""

from __future__ import annotations

import contextlib
import os
import traceback as _traceback
from typing import Any, Iterator

from ..core import ProtocolConfig, build_ft_world
from ..core.clustering import block_clusters
from ..errors import InvariantViolation, ProtocolError
from ..lint.sanitize import ENV_VAR as _SANITIZE_ENV
from .oracles import (
    OracleResult,
    TrialResult,
    oracle_determinism,
    oracle_validity,
    oracle_witness,
    run_digest,
)
from .schedule import (
    KERNELS,
    TrialSchedule,
    generate_schedule,
    schedule_from_json,
)

__all__ = ["run_trial", "run_trial_schedule", "trial_schedule",
           "SYNTHETIC_BUGS"]

#: available synthetic protocol bugs (shrinker self-test / harness
#: self-validation); each entry documents what the bug breaks
SYNTHETIC_BUGS = {
    "ack_drop": ("sender treats every 3rd acknowledgement as cumulative, "
                 "dropping every outstanding NonAck record for that peer"),
    "log_drop": "sender-based log loses every 2nd logged message",
    "restore_corrupt": "restored app state is perturbed by 1e-3",
}


@contextlib.contextmanager
def _sanitize_env(enabled: bool) -> Iterator[None]:
    """Temporarily force ``REPRO_SANITIZE`` for world construction (every
    component snapshots sanitizer state at construction time)."""
    if not enabled:
        yield
        return
    old = os.environ.get(_SANITIZE_ENV)
    os.environ[_SANITIZE_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(_SANITIZE_ENV, None)
        else:
            os.environ[_SANITIZE_ENV] = old


def _config(schedule: TrialSchedule) -> ProtocolConfig:
    cluster_of = (
        block_clusters(schedule.nprocs, schedule.clusters)
        if schedule.clusters > 1 else None
    )
    return ProtocolConfig(
        checkpoint_interval=schedule.checkpoint_interval,
        checkpoint_jitter=schedule.checkpoint_jitter,
        checkpoint_seed=schedule.checkpoint_seed,
        cluster_of=cluster_of,
        cluster_stagger=schedule.cluster_stagger,
        rank_stagger=schedule.rank_stagger,
        log_cross_epoch=schedule.log_cross_epoch,
    )


# ----------------------------------------------------------------------
# Synthetic bugs
# ----------------------------------------------------------------------
def _plant_bug(world: Any, controller: Any, bug: str) -> None:
    """Install a deliberate protocol defect for harness self-tests.

    The bugs are small monkey-patches at well-understood protocol points;
    each reliably breaks at least one oracle once a failure fires, which
    is what the shrinker needs to minimize against.
    """
    if not bug:
        return
    if bug == "ack_drop":
        # Merely *losing* acks is benign by design (NonAck re-send plus
        # duplicate suppression absorb it), so the self-test defect is the
        # classic coalesced-ack range bug instead: every 3rd ack is treated
        # as cumulative and clears ALL outstanding NonAck records for that
        # peer.  An un-acked message dropped this way is gone from both the
        # log path and the recovery re-send path.
        for proto in controller.protocols:
            counter = {"n": 0}

            def overclearing(src, payload, _orig=proto.on_ack, _p=proto,
                             _c=counter):
                _c["n"] += 1
                _orig(src, payload)
                if _c["n"] % 3 == 0:
                    non_ack = _p.state.non_ack
                    for key in [k for k in non_ack if k[0] == src]:
                        del non_ack[key]

            proto.on_ack = overclearing
    elif bug == "log_drop":
        # Planted at the logging decision (the way ack_drop wraps on_ack),
        # not in the ``logs`` container: the defect then means the same
        # thing however checkpoints copy the state, and survives a restore.
        for proto in controller.protocols:
            counter = {"n": 0}

            def lossy_logging(src, payload, _orig=proto.on_ack, _p=proto,
                              _c=counter):
                before = len(_p.state.logs)
                _orig(src, payload)
                logs = _p.state.logs
                if len(logs) > before:
                    _c["n"] += 1
                    if _c["n"] % 2 == 0:
                        logs.popitem()  # logged message silently lost

            proto.on_ack = lossy_logging
    elif bug == "restore_corrupt":
        orig = controller._install_checkpoint

        def corrupting(rank, ckpt, was_killed):
            orig(rank, ckpt, was_killed)
            _perturb_state(world.programs[rank])

        controller._install_checkpoint = corrupting
    else:
        raise ValueError(f"unknown synthetic bug {bug!r} "
                         f"(have {sorted(SYNTHETIC_BUGS)})")


def _perturb_state(program: Any) -> None:
    """Nudge the first float field of a program's state dict."""
    import numpy as np

    state = getattr(program, "state", None)
    if not isinstance(state, dict):
        return
    for key in sorted(state):
        value = state[key]
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            state[key] = value + 1e-3
            return
        if isinstance(value, float):
            state[key] = value + 1e-3
            return


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _run_reference(schedule: TrialSchedule, sanitize: bool):
    """The failure-free run; returns its world, closed (everything the
    oracles and the failure placement read stays readable)."""
    with _sanitize_env(sanitize):
        world, controller = build_ft_world(
            schedule.nprocs, schedule.factory(), _config(schedule),
            record_sequences=True,
        )
        with contextlib.closing(controller):
            world.launch()
            world.run()
    return world


class _GcTicker:
    """Calls ``collect_garbage(defer=True)`` every ``period`` virtual
    seconds while the world runs.  An object with a method, not a closure
    that reschedules itself: a self-referential closure is cyclic garbage
    that pins the world and the controller."""

    def __init__(self, world: Any, controller: Any, period: float):
        self.world = world
        self.controller = controller
        self.period = period

    def tick(self) -> None:
        self.controller.collect_garbage(defer=True)
        if not self.world.all_done:
            self.world.engine.schedule(self.period, self.tick)


def _inject_schedule(schedule: TrialSchedule, controller: Any,
                     ref_world: Any, horizon: float) -> dict[str, Any]:
    """Install the schedule's failures; returns placement diagnostics."""
    injector = controller.injector
    assert injector is not None
    resolved: list[dict[str, Any]] = []
    last_time = 0.4 * horizon  # anchor for relative events that lost their
    #                            predecessor (e.g. after shrinking)
    for spec in schedule.failures:
        if spec.kind == "after_sends":
            total = ref_world.procs[spec.rank].app_messages_sent
            if total < 1:
                resolved.append({"rank": spec.rank, "kind": spec.kind,
                                 "skipped": "rank never sends"})
                continue
            nsends = 1 + (spec.nsends - 1) % total
            injector.after_sends(spec.rank, nsends)
            resolved.append({"rank": spec.rank, "kind": spec.kind,
                             "nsends": nsends})
            continue
        if spec.kind == "at":
            time = spec.frac * horizon
        else:  # drain / recovery / restored: anchored to the previous event
            time = last_time + spec.delta
        injector.at(time, spec.rank)
        last_time = time
        resolved.append({"rank": spec.rank, "kind": spec.kind, "time": time})
    injector.arm()
    return {"placements": resolved}


def _run_chaos(schedule: TrialSchedule, ref_world: Any, horizon: float,
               obs: Any, sanitize: bool):
    """One chaos execution.  Returns (world, controller, exception,
    placements), the pair closed."""
    with _sanitize_env(sanitize):
        world, controller = build_ft_world(
            schedule.nprocs, schedule.factory(), _config(schedule), obs=obs,
            record_sequences=True,
        )
        exc: BaseException | None = None
        with contextlib.closing(controller):
            placements = _inject_schedule(schedule, controller, ref_world,
                                          horizon)
            _plant_bug(world, controller, schedule.bug)
            if schedule.gc_frac:
                period = schedule.gc_frac * horizon
                world.engine.schedule_at(
                    period, _GcTicker(world, controller, period).tick)
            world.launch()
            # A defective protocol can livelock (e.g. an endless replay /
            # re-ack cycle) and generate events forever; the failure-free
            # reference bounds how much work a sane recovery can possibly
            # need, so anything far past it fails ``settles`` instead of
            # hanging the campaign.
            budget = 100_000 + 60 * ref_world.engine.events_dispatched
            try:
                world.engine.run(max_events=budget)
                if not world.all_done and world.engine.pending:
                    raise ProtocolError(
                        f"chaos run still busy after {budget} events "
                        f"(reference needed "
                        f"{ref_world.engine.events_dispatched}) — livelock"
                    )
                world.run()  # queue is drained: raises DeadlockError with
                #              per-rank diagnostics if any rank is stuck
            except Exception as err:  # noqa: BLE001 — the oracle wants it
                exc = err
    return world, controller, exc, placements


def run_trial_schedule(
    schedule: TrialSchedule,
    obs: Any = None,
    sanitize: bool = True,
    check_determinism: bool = True,
) -> TrialResult:
    """Execute one schedule and evaluate the five oracles.

    ``obs`` (a :class:`repro.obs.MetricsRegistry`) instruments the chaos
    run, given a flight recorder if it has none (the executor's has not);
    the stream is attached to the result when an oracle fails.
    ``sanitize=False`` drops oracle 3 (useful inside the shrinker where
    speed matters more than invariant coverage); ``check_determinism=False``
    drops the re-run (oracle 4).
    """
    schedule.validate()
    if obs is not None and obs.flight is None:
        from ..obs.flight import FlightRecorder

        obs.flight = FlightRecorder()
    result = TrialResult(schedule=schedule)
    try:
        ref_world = _run_reference(schedule, sanitize)
    except Exception as err:  # noqa: BLE001
        # the reference must never fail — if it does, the trial is broken
        # before any failure was injected
        result.oracles["settles"] = OracleResult(
            "settles", False, f"reference run failed: {err!r}")
        result.traceback = _traceback.format_exc()
        return result
    horizon = ref_world.engine.now

    world, controller, exc, placements = _run_chaos(
        schedule, ref_world, horizon, obs, sanitize
    )
    result.stats = {
        "horizon": horizon,
        "final_time": world.engine.now,
        "failures_fired": len(controller.injector.fired),
        "fired": [(e.rank, e.time) for e in controller.injector.fired],
        "recovery_rounds": len(controller.recovery_reports),
        "rolled_back": sorted(
            {r for rep in controller.recovery_reports for r in rep.rolled_back}
        ),
        "log_fraction": controller.logging_stats()["log_fraction"],
        **placements,
    }

    # Oracle 1+3: the run either settled, tripped an invariant, or broke.
    if isinstance(exc, InvariantViolation):
        result.oracles["settles"] = OracleResult(
            "settles", False, "run aborted by sanitizer")
        result.oracles["sanitize"] = OracleResult("sanitize", False, str(exc))
        result.traceback = _format_exc(exc)
    elif exc is not None:
        result.oracles["settles"] = OracleResult(
            "settles", False, f"{type(exc).__name__}: {exc}")
        if sanitize:
            result.oracles["sanitize"] = OracleResult(
                "sanitize", True, "no invariant violation before the crash")
        result.traceback = _format_exc(exc)
    else:
        result.oracles["settles"] = OracleResult(
            "settles", True,
            f"{len(controller.recovery_reports)} recovery round(s), "
            f"all ranks finished")
        if sanitize:
            checks = getattr(world.engine, "_san", None)
            ticks = sum(checks.checks.values()) if checks is not None else 0
            result.oracles["sanitize"] = OracleResult(
                "sanitize", True, f"clean ({ticks} engine-side checks)")

    # Oracle 2: validity against the reference (only meaningful if the
    # run completed).  Oracle 5: the send-witness certificate — the
    # recovered run's per-rank witness chains equal the reference's.
    if exc is None:
        result.oracles["validity"] = oracle_validity(
            ref_world, world,
            check_results=not KERNELS[schedule.kernel].timing_result,
        )
        result.oracles["witness"] = oracle_witness(ref_world, world)
    else:
        for name in ("validity", "witness"):
            result.oracles[name] = OracleResult(
                name, False, "not evaluated: run did not settle")

    # Oracle 4: bit-identical re-run.
    if check_determinism and exc is None:
        first = run_digest(world, controller)
        world2, controller2, exc2, _ = _run_chaos(
            schedule, ref_world, horizon, None, sanitize
        )
        if exc2 is not None:
            result.oracles["determinism"] = OracleResult(
                "determinism", False,
                f"re-run failed where the first run settled: {exc2!r}")
        else:
            result.oracles["determinism"] = oracle_determinism(
                first, run_digest(world2, controller2)
            )
    elif check_determinism:
        result.oracles["determinism"] = OracleResult(
            "determinism", False, "not evaluated: run did not settle")

    if not result.passed and obs is not None:
        from ..obs.export import dump_flight

        try:
            result.flight_jsonl = dump_flight(obs, "jsonl")
        except Exception:  # noqa: BLE001 — diagnostics must not mask verdicts
            result.flight_jsonl = None
    return result


def _format_exc(exc: BaseException) -> str:
    return "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


# ----------------------------------------------------------------------
# Sweep entry point
# ----------------------------------------------------------------------
def trial_schedule(params: dict[str, Any]) -> TrialSchedule:
    """The schedule :func:`run_trial` executes for ``params``: an explicit
    ``schedule`` (JSON mapping, as :meth:`TrialSchedule.to_json` produces)
    or the one :func:`generate_schedule` draws from the sweep-injected
    ``seed`` under the campaign's generator options."""
    if params.get("schedule") is not None:
        return schedule_from_json(params["schedule"])
    return generate_schedule(
        params["seed"],
        kernels=params["kernels"],
        max_failures=int(params["max_failures"]),
        allow_no_log=bool(params["allow_no_log"]),
        bug=str(params["bug"]),
    )


def run_trial(params: dict[str, Any]) -> dict[str, Any]:
    """One campaign trial (module-level so sweeps can pickle it).

    ``params`` is what :func:`repro.campaigns.plan` builds — every
    generator option and oracle switch of the campaign spec, defaulted
    there and nowhere else — plus the sweep-injected ``seed``, so trial
    ``i`` is a pure function of the campaign seed.
    """
    result = run_trial_schedule(
        trial_schedule(params),
        obs=params.get("obs"),
        sanitize=bool(params["sanitize"]),
        check_determinism=bool(params["check_determinism"]),
    )
    return result.to_json()
