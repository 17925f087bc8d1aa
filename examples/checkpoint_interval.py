#!/usr/bin/env python
"""%rl against the checkpoint interval, one simulation per kernel.

Table I's cell (``campaigns.table1_setup``) checkpoints every 6e-5 virtual
seconds, shorter than one iteration, so every rank checkpoints at every
iteration boundary.  This prints %log / %rl of LU, BT and MG at 64 ranks
and 64 iterations for three intervals and two cluster counts.  The message
schedule does not depend on the policy, so each kernel runs once
(``record_trace``) and its six cells are derived from that trace
(``trace_cell``).

    python examples/checkpoint_interval.py
"""

from dataclasses import replace

from repro.analysis import expected_rollback_fraction
from repro.analysis.rollback import record_trace, rollback_analysis, trace_cell
from repro.campaigns import table1_setup

KERNELS = ("LU", "BT", "MG")
CLUSTERS = (4, 8)
INTERVALS = (6e-5, 6e-4, 2e-3)
RANKS, NITERS = 64, 64


def interval_table(ranks: int, niters: int) -> list[str]:
    """The table's lines."""
    lines = [f"%log / %rl at {ranks} ranks, {niters} iterations",
             "| cell | " + " | ".join(f"ckpt {i:g}" for i in INTERVALS)
             + " | (p+1)/2p |",
             "|---" * (len(INTERVALS) + 2) + "|"]
    for kernel in KERNELS:
        setups = {ncl: table1_setup({"kernel": kernel, "ranks": ranks,
                                     "clusters": ncl, "niters": niters})
                  for ncl in CLUSTERS}
        trace = record_trace(ranks, setups[CLUSTERS[0]]["program_factory"])
        for ncl, setup in setups.items():
            cells = []
            for interval in INTERVALS:
                config = replace(setup["config"], checkpoint_interval=interval)
                log, snapshots = trace_cell(trace, config, setup["period"])
                rl = rollback_analysis(snapshots, ranks).percent
                cells.append(f"{100 * log['log_fraction']:.1f} / {rl:.1f}")
            bound = 100 * expected_rollback_fraction(ncl)
            lines.append(f"| {kernel} {ncl}cl | " + " | ".join(cells)
                         + f" | {bound:.1f} |")
    return lines


def main() -> None:
    print("\n".join(interval_table(RANKS, NITERS)))


if __name__ == "__main__":
    main()
