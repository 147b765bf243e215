"""Benchmarking: the repo's one wall-clock source and its benchmark.

:mod:`repro.bench.clock` is the only module allowed to read the wall
clock (lint rule L102); every timing in the tree goes through its
``now()``.  :mod:`repro.bench.suite` is the end-to-end and per-layer
benchmark (``python -m repro.bench.suite``) that ``BENCHMARK.json``
declares: cold figure regeneration and the durable plan service, each
split into disjoint timed layers.
"""
