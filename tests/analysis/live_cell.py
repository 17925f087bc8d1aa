"""The live Sec. V-E-1 measurement — test oracle only.

:func:`repro.analysis.rollback.measure_rollback` derives a policy's SPE
snapshots from one protocol-free run (``record_trace`` + ``trace_cell``).
This is the measurement that derivation restates: the paper's protocol
runs failure-free under ``config`` while an :class:`SpeSampler` snapshots
every SPE table each ``period`` of virtual time.  Tests hold the two equal
and read the live world's own counts.
"""

from contextlib import closing
from dataclasses import replace

from repro.analysis.rollback import SpeSampler, rollback_analysis
from repro.campaigns import table1_setup
from repro.core import build_ft_world


def live_world(nprocs, program_factory, config, obs=None):
    """``config``'s protocol world, lightweight: a failure-free measurement
    reads neither application snapshots nor logged payloads."""
    return build_ft_world(nprocs, program_factory,
                          replace(config, lightweight=True, retain_payloads=False),
                          obs=obs)


def live_rollback(nprocs, program_factory, config, period, obs=None):
    """``measure_rollback``'s answer measured on the live protocol: build
    (:func:`live_world`), sample, run, end-of-run snapshot, close, analyse."""
    world, controller = live_world(nprocs, program_factory, config, obs)
    with closing(controller):
        sampler = SpeSampler(controller, period)
        sampler.arm()
        world.launch()
        world.run()
        if not sampler.snapshots:
            sampler.take()
    return (controller.logging_stats(), sampler.snapshots,
            rollback_analysis(sampler.snapshots, nprocs))


def live_table1_cell(params: dict) -> dict:
    """``campaigns.table1_cell``'s row measured on the live protocol."""
    log, _, rb = live_rollback(**table1_setup(params), obs=params.get("obs"))
    return {"kernel": params["kernel"], "ranks": params["ranks"],
            "clusters": params["clusters"],
            "pct_log": 100 * log["log_fraction"], "pct_rollback": rb.percent}
