#!/usr/bin/env python
"""%rl against the checkpoint interval, one simulation per kernel.

Table I's cell (``campaigns.table1_setup``) checkpoints every 6e-5 virtual
seconds, shorter than one iteration, so every rank checkpoints at every
iteration boundary.  This prints %log / %rl of LU, BT and MG at 64 ranks
and 64 iterations for three intervals and two cluster counts.  The message
schedule does not depend on the policy, so each kernel runs once
(``record_trace``) and its six cells are derived from that trace
(``trace_cell``); ``--live`` re-measures every cell with the protocol
(``measure_rollback``) and checks that the two paths agree exactly.

    python examples/checkpoint_interval.py [--live]
"""

import sys
from dataclasses import replace

from repro.analysis import expected_rollback_fraction
from repro.analysis.rollback import (measure_rollback, record_trace,
                                     rollback_analysis, trace_cell)
from repro.campaigns import table1_setup

KERNELS = ("LU", "BT", "MG")
CLUSTERS = (4, 8)
INTERVALS = (6e-5, 6e-4, 2e-3)
RANKS, NITERS = 64, 64


def interval_table(ranks: int, niters: int,
                   live: bool = False) -> tuple[list[str], int]:
    """The table's lines and, with ``live``, how many cells the live
    protocol measured differently (0 when the two paths agree)."""
    lines = [f"%log / %rl at {ranks} ranks, {niters} iterations",
             "| cell | " + " | ".join(f"ckpt {i:g}" for i in INTERVALS)
             + " | (p+1)/2p |",
             "|---" * (len(INTERVALS) + 2) + "|"]
    mismatches = 0
    for kernel in KERNELS:
        setups = {ncl: table1_setup({"kernel": kernel, "ranks": ranks,
                                     "clusters": ncl, "niters": niters})
                  for ncl in CLUSTERS}
        run = {k: v for k, v in setups[CLUSTERS[0]].items() if k != "config"}
        trace = record_trace(**run)
        for ncl, setup in setups.items():
            cells = []
            for interval in INTERVALS:
                cell = dict(setup, config=replace(setup["config"],
                                                  checkpoint_interval=interval))
                log, snapshots = trace_cell(trace, cell["config"])
                rl = rollback_analysis(snapshots, ranks).percent
                if live:
                    live_log, _, live_rb = measure_rollback(**cell)
                    mismatches += (live_log, live_rb.percent) != (log, rl)
                cells.append(f"{100 * log['log_fraction']:.1f} / {rl:.1f}")
            bound = 100 * expected_rollback_fraction(ncl)
            lines.append(f"| {kernel} {ncl}cl | " + " | ".join(cells)
                         + f" | {bound:.1f} |")
    return lines, mismatches


def main() -> None:
    live = "--live" in sys.argv[1:]
    lines, mismatches = interval_table(RANKS, NITERS, live)
    print("\n".join(lines))
    if live:
        print(f"live cross-check: {mismatches} mismatching cells")
        sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
