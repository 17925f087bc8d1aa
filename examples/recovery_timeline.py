#!/usr/bin/env python
"""Visualize a recovery: per-rank lifelines with checkpoints, the failure,
restores and the re-executed spans.

    python examples/recovery_timeline.py [fail_rank]
"""

import sys

from repro.analysis import render_timeline
from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world


def main() -> None:
    fail_rank = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    config = ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=[0, 0, 0, 0, 1, 1, 1, 1],
        cluster_stagger=5e-6,
        rank_stagger=1e-6,
    )
    world, controller = build_ft_world(
        8, lambda r, s: Stencil2D(r, s, niters=40, block=3), config,
    )
    controller.inject_failure(9e-5, fail_rank)
    controller.arm()
    world.launch()
    duration = world.run()

    print(f"failure of rank {fail_rank} at t = 0.09 ms "
          f"(run ended at {duration * 1e3:.3f} ms)\n")
    print(render_timeline(world.tracer, duration, width=72))
    report = controller.recovery_reports[0]
    print(f"\nrolled back: {report.rolled_back} — the other cluster's "
          f"lifelines have no '=' span: they never stopped computing.")


if __name__ == "__main__":
    main()
