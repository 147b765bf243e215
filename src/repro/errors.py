"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class WorkloadError(ReproError):
    """A workload specification or CFG could not be constructed."""


class TraceError(ReproError):
    """A trace could not be generated or replayed."""


class SimulationError(ReproError):
    """The timing simulator reached an inconsistent state."""


class InvariantViolation(ReproError):
    """A runtime sanitizer check failed (see ``repro.validate``).

    Structured so harnesses can triage programmatically: ``structure``
    names the model that broke (``"btb"``, ``"ras"``, ...), ``cycle``
    is the BPU cycle at which the check ran, and ``entry`` carries the
    offending entry/detail when one exists.
    """

    def __init__(self, structure: str, message: str, cycle=None, entry=None):
        self.structure = structure
        self.message = message
        self.cycle = cycle
        self.entry = entry
        where = f"{structure}" if cycle is None else f"{structure} @ cycle {cycle:.0f}"
        detail = "" if entry is None else f" [{entry!r}]"
        super().__init__(f"invariant violated in {where}: {message}{detail}")

    def __reduce__(self):
        # Default Exception pickling replays __init__ with self.args —
        # the formatted string — which does not match this signature.
        # Rebuild from the structured fields so violations survive the
        # process-pool boundary (repro.experiments.parallel) intact.
        return (type(self), (self.structure, self.message, self.cycle, self.entry))


class DivergenceError(ReproError):
    """An optimized structure diverged from its reference oracle."""


class ProfileError(ReproError):
    """Profile collection or parsing failed."""


class CacheError(ReproError):
    """An on-disk experiment-cache entry could not be read or written."""


class BenchError(ReproError):
    """The benchmark harness produced or read an invalid report."""


class PlanError(ReproError):
    """A Twig prefetch plan could not be built or applied."""


class ServiceError(ReproError):
    """The continuous-profiling plan service failed a request."""


class ServiceOverload(ServiceError):
    """The service shed a request because its queue was full."""


class ServiceClosed(ServiceError):
    """A request arrived after the service began draining."""


class DeadlineExceeded(ServiceError):
    """A request missed its deadline before a response was ready."""


class FleetError(ServiceError):
    """The sharded multi-process fleet layer failed an operation."""


class WorkerCrashed(FleetError):
    """A fleet worker process died while holding in-flight requests.

    Batches already accepted by the router are journaled and will be
    replayed into a replacement worker, so callers must *not* retry a
    crashed ingest (a retry would double-fold the batch); only shed
    requests (:class:`ServiceOverload`) are safe to resend.
    """


class JournalError(FleetError):
    """A fleet ingest-journal record could not be written or read."""


class SnapshotError(ServiceError):
    """A service state snapshot could not be written, read, or applied.

    Raised by :mod:`repro.service.persist` when a snapshot artifact is
    missing, carries an unknown schema version, or was captured under a
    configuration incompatible with the restoring service (replaying a
    journal into a differently sized or seeded reservoir would diverge
    silently instead of converging).
    """


class TransportError(ServiceError):
    """The HTTP plan transport failed a request.

    Covers malformed requests/responses (an ingest sample whose values
    have the wrong type among them) and wire-format version
    mismatches: both ends stamp every payload with ``schema_version``
    and refuse — with this typed error, never a silent misparse — to
    speak a version they do not understand.
    """


class EncodingError(PlanError):
    """A prefetch operand could not be encoded in the available bits."""


class DriftError(ReproError):
    """The dynamic-workload drift engine failed an operation."""


class PlanStaleError(PlanError):
    """A published plan references code the fleet no longer runs.

    Raised by :mod:`repro.drift` when a drift changelog (e.g. a rolling
    deploy that relocated block addresses) proves that some of a plan's
    injection sites or targets dangle.  Structured so harnesses can
    assert exactly *which* sites went stale: ``key`` is the (app, input)
    shard, ``stale_sites`` the dangling ``(inject_block, branch_pc)``
    pairs, and ``reason`` the changelog entry kind that invalidated
    them.  Surfacing staleness as a typed error — instead of silently
    prefetching relocated garbage — is the drift engine's core
    contract.
    """

    def __init__(self, key, stale_sites, reason: str):
        self.key = tuple(key)
        self.stale_sites = tuple(sorted(tuple(s) for s in stale_sites))
        self.reason = reason
        super().__init__(
            f"plan for shard {self.key} is stale ({reason}): "
            f"{len(self.stale_sites)} site(s) dangle"
        )

    def __reduce__(self):
        # Same rationale as InvariantViolation: default Exception
        # pickling replays __init__ with the formatted string, which
        # does not match this signature; rebuild from the fields so the
        # error survives process-pool and fleet-pipe boundaries.
        return (type(self), (self.key, self.stale_sites, self.reason))
