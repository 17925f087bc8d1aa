"""Fig. 7 — NAS kernel runtime overhead: native vs protocol (no logging)
vs protocol (all messages logged).

The paper runs BT, CG and MG (class D, 128 ranks) and finds the protocol
adds no measurable overhead without logging and under 5 % with all
messages logged.  We reproduce the experiment by running the same three
kernel *patterns* in the simulator under the three calibrated timing
models, with the full protocol stack (acknowledgement traffic included)
attached in the protocol configurations.

Shape assertions: overhead(no logging) ≈ 0 (< 2 %); overhead(logging)
positive but small (< 8 % with our compute/communication balance).
"""

import pytest

from repro.analysis.report import format_table
from repro.apps import BTKernel, CGKernel, MGKernel
from repro.core import ProtocolConfig, build_ft_world
from repro.netmodel import timing_model_for
from repro.simmpi import World

from conftest import emit, is_paper_scale

NPROCS = 64 if is_paper_scale() else 16
#: per-iteration virtual compute: class-D NAS problems are compute-heavy,
#: which is why the paper measures tiny protocol overheads — the kernels
#: here use class-D-like communication fractions (a few percent)
COMPUTE = 1.5e-3

KERNELS = {
    "BT": lambda r, s: BTKernel(r, s, niters=6, block=512, compute_time=COMPUTE),
    "CG": lambda r, s: CGKernel(r, s, niters=8, block=256, compute_time=COMPUTE),
    "MG": lambda r, s: MGKernel(r, s, niters=4, levels=3, block=4096,
                                compute_time=COMPUTE),
}


def run_mode(factory, mode: str) -> float:
    timing = timing_model_for(mode)
    if mode == "native":
        world = World(NPROCS, factory, timing=timing)
    else:
        world, _ = build_ft_world(
            NPROCS, factory,
            ProtocolConfig(lightweight=True, retain_payloads=False),
            timing=timing,
        )
    world.launch()
    return world.run()


@pytest.fixture(scope="module")
def overheads():
    out = {}
    for name, factory in KERNELS.items():
        t_native = run_mode(factory, "native")
        t_nolog = run_mode(factory, "protocol-nolog")
        t_log = run_mode(factory, "protocol-log")
        out[name] = {
            "native": t_native,
            "nolog": t_nolog / t_native,
            "log": t_log / t_native,
        }
    return out


def test_fig7_table(overheads, benchmark):
    rows = [
        [f"{name}.{NPROCS}", "1.000",
         f"{v['nolog']:.3f}", f"{v['log']:.3f}"]
        for name, v in overheads.items()
    ]
    table = format_table(
        ["kernel", "MPICH2", "protocol(no logging)", "protocol(logging)"], rows
    )
    table += ("\n(normalised runtime; paper: no-logging ~1.00, logging "
              "<1.05 for BT/CG/MG class D 128)\n")
    emit("fig7_nas_overhead.txt", table)
    benchmark.pedantic(
        lambda: run_mode(KERNELS["CG"], "protocol-nolog"), rounds=2, iterations=1
    )


def test_fig7_no_logging_overhead_negligible(overheads, benchmark):
    worst = benchmark(lambda: max(v["nolog"] for v in overheads.values()))
    assert worst < 1.02


def test_fig7_logging_overhead_small(overheads, benchmark):
    worst = benchmark(lambda: max(v["log"] for v in overheads.values()))
    assert 1.0 <= worst < 1.08


def test_fig7_logging_costs_more_than_no_logging(overheads, benchmark):
    def check():
        return all(v["log"] >= v["nolog"] - 1e-9 for v in overheads.values())

    assert benchmark(check)
