"""perfbench — the repo's end-to-end + per-layer performance ledger.

Drives only public entry points of ``repro`` (a Table-I cell, a cached
campaign, a chaos campaign), measures what a user waits for with tracing
off, then attributes it to layers in a separate traced pass.  See
``perfbench/README.md`` for the metric glossary and how to run, trace and
compare; ``BENCHMARK.json`` at the repo root fixes names, units and bounds.
"""
