"""Overhead of the runtime protocol-invariant sanitizer (REPRO_SANITIZE).

Disabled — the default — the protocol, recovery and engine layers cache
``None`` and every hot path pays a single identity comparison per event
(the cached-instrument pattern); the disabled row is the baseline.
Enabled, the per-event checks are O(1) dict updates plus comparisons, so
the slowdown must stay well inside one order of magnitude.  Results land
in ``results/sanitize_overhead.txt`` and ``results/BENCH_throughput.json``.
"""

import os

from repro.analysis.report import format_table
from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.lint.sanitize import ENV_VAR

from conftest import emit, emit_json, timed


def _protocol_world(obs=None, sanitize=False, record_sequences=False):
    prior = os.environ.pop(ENV_VAR, None)
    if sanitize:
        os.environ[ENV_VAR] = "1"
    try:
        world, _ = build_ft_world(
            8, lambda r, s: Stencil2D(r, s, niters=30, block=3),
            ProtocolConfig(checkpoint_interval=3e-5, lightweight=True,
                           retain_payloads=False),
            obs=obs, record_sequences=record_sequences,
        )
        world.launch()
        world.run()
        return world
    finally:
        os.environ.pop(ENV_VAR, None)
        if prior is not None:
            os.environ[ENV_VAR] = prior


def test_sanitizer_overhead_factor(benchmark):
    """Full protocol workload, sanitizer off vs on (best-of-7 to ride out
    container jitter, same as the other overhead canaries)."""
    from repro.obs import MetricsRegistry

    t_off = timed(_protocol_world, rounds=7)
    t_on = timed(lambda: _protocol_world(sanitize=True), rounds=7)
    t_on_obs = timed(
        lambda: _protocol_world(obs=MetricsRegistry(flight=False),
                                sanitize=True),
        rounds=7)
    on_factor = t_on / t_off if t_off else float("inf")
    on_obs_factor = t_on_obs / t_off if t_off else float("inf")
    emit("sanitize_overhead.txt", format_table(
        ["configuration", "wall s", "factor"],
        [["sanitize off (default)", f"{t_off:.3f}", "1.00"],
         ["sanitize on", f"{t_on:.3f}", f"{on_factor:.2f}"],
         ["sanitize on + metrics", f"{t_on_obs:.3f}", f"{on_obs_factor:.2f}"]],
    ))
    emit_json("BENCH_throughput.json", {
        "sanitize_off_wall_s": round(t_off, 6),
        "sanitize_on_wall_s": round(t_on, 6),
        "sanitize_on_obs_wall_s": round(t_on_obs, 6),
        "sanitize_overhead_factor": round(on_factor, 3),
    })
    benchmark.pedantic(lambda: _protocol_world(sanitize=True), rounds=2,
                       iterations=1)
    # O(1) per-event assertions: real cost allowed, blow-ups are a bug
    assert on_factor < 3
    assert on_obs_factor < 5


def test_sanitizer_off_run_unperturbed():
    """Off must mean *off*: the default run's execution signature is
    bit-identical whether the sanitizer machinery exists or not — the
    components hold literal ``None`` and dispatch the same events."""
    a = _protocol_world(record_sequences=True)
    b = _protocol_world(sanitize=False, record_sequences=True)
    assert a.engine.events_dispatched == b.engine.events_dispatched
    assert a.engine.now == b.engine.now
    assert a.tracer.send_sequences() == b.tracer.send_sequences()
