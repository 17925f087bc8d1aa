"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
it in the paper's layout, saves it under ``results/`` and asserts the
*shape* findings (who wins, by roughly what factor) — absolute numbers
come from a simulator, not the authors' Myri-10G testbed.

Scale control: ``REPRO_BENCH_SCALE`` ∈ {"quick", "paper"} (default
"quick").  "paper" runs the full 64/128/256-rank Table I sweep; "quick"
shrinks rank counts and iteration budgets so the whole harness completes
in a few minutes.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline_seed.json"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: worker count for benchmarks that fan out via repro.sweep (0/1 = inline)
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def is_paper_scale() -> bool:
    return SCALE == "paper"


def save_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    return path


def emit(name: str, text: str) -> None:
    """Print a paper-style table and persist it under results/."""
    banner = f"\n================ {name} ================\n"
    print(banner + text)
    save_result(name, text)


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Merge ``payload`` into the machine-readable ``results/<name>``.

    Merging (instead of overwriting) lets several benchmarks contribute
    sections to one artefact — e.g. the throughput and instrumentation
    tests both land in ``BENCH_throughput.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.update(payload)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def timed(fn, *, rounds: int = 3, warmup: int = 1) -> float:
    """Best-of-``rounds`` wall-clock seconds of ``fn()``.

    Best-of (not mean) because scheduler noise only ever *adds* time; the
    minimum is the stable estimator on a busy CI host.  ``warmup`` runs
    are discarded to absorb import and allocator effects.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def timed_interleaved(thunks: dict, *, rounds: int = 9,
                      warmup: int = 1) -> dict:
    """Per-round walls for several configurations, interleaved.

    Ratio benchmarks (overhead factors) are hostile to sequential timing:
    on a shared host the machine drifts between the baseline block and the
    treatment block, and the drift lands entirely in the ratio.  Running
    one round of *every* configuration per iteration puts baseline and
    treatment under the same instantaneous conditions, so the minima are
    directly comparable.  Garbage from the previous configuration's run is
    collected *outside* the timed region — otherwise whichever thunk runs
    next absorbs the teardown cost of its predecessor and the ratio tilts
    by iteration order.

    The session heap accumulated by earlier tests is frozen for the
    duration (``gc.freeze``) and the collector is paused *inside* each
    timed region: a configuration that allocates more than the baseline
    triggers more collections, and whichever of those crosses the gen-2
    threshold absorbs a full-heap scan — a multi-millisecond spike billed
    to whatever happened to be running.  Garbage stays bounded because
    every region is preceded by an explicit collect.

    Returns ``{name: [wall_s per round]}`` — feed pairs of sample lists to
    :func:`paired_factor` for overhead ratios and :func:`median` for a
    representative wall.
    """
    import gc

    for fn in thunks.values():
        for _ in range(warmup):
            fn()
    samples: dict = {name: [] for name in thunks}
    gc.collect()
    gc.freeze()
    try:
        for _ in range(rounds):
            for name, fn in thunks.items():
                gc.collect()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    fn()
                    samples[name].append(time.perf_counter() - t0)
                finally:
                    gc.enable()
    finally:
        gc.unfreeze()
    return samples


def median(xs) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def paired_factor(treatment, baseline) -> float:
    """Median of the per-round ``treatment/baseline`` wall ratios.

    The naive estimator — best-of-N treatment over best-of-N baseline —
    pairs each configuration's *luckiest* round with the other's, so a
    single unusually fast baseline round inflates the reported overhead
    (and vice versa).  Per-round ratios keep the pairing honest: both
    walls in a ratio come from the same interleaved iteration, i.e. the
    same instantaneous host conditions, and the median discards the
    rounds where a scheduler hiccup landed on one side only.
    """
    ratios = [t / b for t, b in zip(treatment, baseline)]
    return median(ratios)


def seed_baseline() -> dict:
    """Wall-clock numbers recorded at the seed commit (see the file).

    Used to report speedup factors; absolute values are host-dependent, so
    the artefacts always carry both the measured walls and the baseline.
    """
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return SCALE

