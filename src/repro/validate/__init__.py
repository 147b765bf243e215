"""Simulation correctness tooling: sanitizers, oracles, fuzzing.

Three layers (DESIGN.md §8):

* :mod:`repro.validate.invariants` — the :class:`Sanitizer` the timing
  simulator weaves through every frontend structure when
  ``SimConfig.sanitize`` is on (``--sanitize`` turns it on for every
  run through ``RunnerSettings.sanitize``);
* :mod:`repro.validate.differential` — reference-oracle co-simulation
  (:class:`DifferentialChecker`, the ``Shadow*`` pairs, and
  :func:`cosimulate`) that pins the optimized structures' hit/miss
  sequences and eviction victims to obviously-correct models;
* :mod:`repro.validate.fuzz` — property-based fuzzing over randomized
  mini-workloads with seed shrinking (imported explicitly, or via
  ``tools/fuzz_sim.py``, to keep this package import-light for the
  simulator).
"""

from ..errors import DivergenceError, InvariantViolation
from .differential import (
    DifferentialChecker,
    Divergence,
    ShadowBTB,
    ShadowIBTB,
    ShadowPrefetchBuffer,
    ShadowRAS,
    cosimulate,
    exercise_prefetch_buffer,
)
from .invariants import Sanitizer
from .oracles import (
    ReferenceBTB,
    ReferenceIBTB,
    ReferencePrefetchBuffer,
    ReferenceRAS,
)
from .parity import assert_results_identical, result_diffs

__all__ = [
    "DifferentialChecker",
    "Divergence",
    "DivergenceError",
    "InvariantViolation",
    "ReferenceBTB",
    "ReferenceIBTB",
    "ReferencePrefetchBuffer",
    "ReferenceRAS",
    "Sanitizer",
    "ShadowBTB",
    "ShadowIBTB",
    "ShadowPrefetchBuffer",
    "ShadowRAS",
    "assert_results_identical",
    "cosimulate",
    "result_diffs",
    "exercise_prefetch_buffer",
]
