"""End-to-end benchmark suite: figure regeneration and the plan service.

Four workloads run the program's real entry points as separate
processes, check every output, and report end-to-end metrics untraced
plus per-layer metrics from a traced run.  See README.md in this
directory; the command line is :mod:`repro.bench.suite.cli`.

Importing this package starts nothing: workload modules are imported
by the command that runs them.
"""
