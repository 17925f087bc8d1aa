#!/usr/bin/env python
"""Quickstart: run a send-deterministic kernel under the paper's protocol,
kill a rank mid-run, and watch it recover without a global restart.

    python examples/quickstart.py
"""

from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world


def factory(rank, size):
    # A 2-D halo-exchange kernel: 8 ranks, 40 iterations.
    return Stencil2D(rank, size, niters=40, block=4)


def main() -> None:
    # Two clusters of four ranks; clusters start two epochs apart so
    # inter-cluster "past -> future" messages are logged and rollback
    # propagation stops at the cluster boundary.
    config = ProtocolConfig(
        checkpoint_interval=3e-5,        # uncoordinated periodic checkpoints
        cluster_of=[0, 0, 0, 0, 1, 1, 1, 1],
        cluster_stagger=5e-6,            # clusters checkpoint at different times
        rank_stagger=1e-6,
    )

    # --- failure-free reference ---------------------------------------
    # record_sequences=True: both worlds keep their per-message send log,
    # because the validity check at the end compares the two
    ref_world, ref_ctl = build_ft_world(8, factory, config,
                                        record_sequences=True)
    ref_world.launch()
    ref_world.run()
    reference = [p.result().copy() for p in ref_world.programs]
    stats = ref_ctl.logging_stats()
    print("failure-free run:")
    print(f"  virtual time     : {ref_world.engine.now * 1e3:.3f} ms")
    print(f"  app messages     : {stats['messages_total']}")
    print(f"  logged messages  : {stats['messages_logged']} "
          f"({100 * stats['log_fraction']:.1f} %)  <- only a small subset")
    print(f"  checkpoints      : {ref_ctl.store.checkpoints_taken}")

    # --- now the same run with a fail-stop failure of rank 6 ------------
    world, controller = build_ft_world(8, factory, config,
                                       record_sequences=True)
    controller.inject_failure(9e-5, rank=6)
    controller.arm()
    world.launch()
    world.run()

    report = controller.recovery_reports[0]
    print("\nfailure of rank 6 at t=0.09 ms:")
    print(f"  recovery line    : "
          f"{ {r: e for r, (e, _d) in report.recovery_line.items()} }")
    print(f"  rolled back      : {report.rolled_back} "
          f"({len(report.rolled_back)}/8 ranks — cluster 0 kept running)")
    print(f"  phases notified  : {report.phases_notified}")

    # --- verify the paper's validity criterion ---------------------------
    import numpy as np

    for rank in range(8):
        assert np.allclose(reference[rank], world.programs[rank].result())
    ref_seqs = ref_world.tracer.logical_send_sequences()
    seqs = world.tracer.logical_send_sequences()
    assert ref_seqs == seqs
    print("\nvalidity check     : results and send sequences identical to the "
          "failure-free run ✓")


if __name__ == "__main__":
    main()
