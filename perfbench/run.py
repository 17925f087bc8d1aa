#!/usr/bin/env python3
"""Driver entry point: one workload, one process.

    python3 perfbench/run.py --workload cell_cg1024 --seed 0 --seconds 20 --trace 0

Run from a checkout's root; needs ``src/repro`` next to ``perfbench/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (see ``BENCHMARK.json``).
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the imports

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {root / 'src' / 'repro'} "
                 f"is missing")
    # as a script sys.path[0] is perfbench/ itself; the packages are one up
    sys.path[0] = str(root)
    sys.path.insert(1, str(root / "src"))
    from perfbench.worker import main

    sys.exit(main(t0=_T0))
