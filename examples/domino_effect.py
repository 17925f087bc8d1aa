#!/usr/bin/env python
"""The domino effect, and how epoch-crossing logging kills it.

Reproduces the observation of the paper's Section V-E-2: plain
uncoordinated checkpointing (random, independent checkpoint times, no
logging) creates no consistent cut, so the failure of any process drags
everybody back — often to the very beginning.  The same workload under the
paper's protocol with clustering rolls back about half the machine.

    python examples/domino_effect.py
"""

from repro.analysis.rollback import measure_rollback
from repro.apps import Stencil1D
from repro.baselines import run_domino_analysis
from repro.core import ProtocolConfig


def factory(rank, size):
    return Stencil1D(rank, size, niters=60, cells=4)


NPROCS = 12


def main() -> None:
    # --- plain uncoordinated checkpointing: the domino -------------------
    domino = run_domino_analysis(
        NPROCS, factory,
        checkpoint_interval=2e-5, sample_interval=4e-5, jitter=0.5,
    )
    print("plain uncoordinated checkpointing (no logging, random times):")
    print(f"  mean processes rolled back : "
          f"{100 * domino.mean_rolled_back_fraction:.1f} %")
    print(f"  mean rollback depth        : "
          f"{domino.mean_rollback_depth:.2f} epochs")
    print(f"  runs reaching the beginning: "
          f"{100 * domino.restart_from_beginning_fraction:.1f} %  <- domino")

    # --- the paper's protocol with 4 clusters -----------------------------
    config = ProtocolConfig(
        checkpoint_interval=2e-5,
        cluster_of=[r // 3 for r in range(NPROCS)],  # 4 clusters of 3
        cluster_stagger=4e-6,
        rank_stagger=1e-6,
    )
    logs, _, stats = measure_rollback(NPROCS, factory, config, 4e-5)
    print("\nsend-deterministic protocol, 4 clusters with staggered epochs:")
    print(f"  mean processes rolled back : {stats.percent:.1f} % "
          f"(theory for 4 clusters: 62.5 %)")
    print(f"  messages logged            : {100 * logs['log_fraction']:.1f} %")
    print("\nno domino: logged inter-cluster messages break every rollback "
          "path at the cluster boundary.")


if __name__ == "__main__":
    main()
