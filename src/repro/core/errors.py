"""Exception hierarchy for the :mod:`repro` scheduling library.

Every error raised on purpose by the library derives from
:class:`SchedulingError`, so callers can catch one base class.  The
subclasses distinguish the three failure families that matter to users:
malformed inputs, infeasible searches, and optimizer failures.
"""

from __future__ import annotations

__all__ = [
    "SchedulingError",
    "InvariantViolationError",
    "InvalidRequestError",
    "SlotListError",
    "WindowNotFoundError",
    "OptimizationError",
    "InfeasibleConstraintError",
    "RecoveryExhaustedError",
    "AdmissionRejectedError",
    "TelemetryError",
    "TelemetryUsageError",
    "PersistenceError",
    "JournalCorruptError",
    "JournalClosedError",
    "CheckpointMismatchError",
    "WorkerLostError",
]


class SchedulingError(Exception):
    """Base class for all errors raised by the repro scheduling library."""


class InvariantViolationError(SchedulingError):
    """An internal consistency check failed — a library bug, not bad input.

    This is the typed replacement for ``assert``: ``python -O`` strips
    assert statements, so any invariant worth checking in production is
    checked with an explicit ``raise InvariantViolationError(...)``
    instead (``repro-lint`` rule RPR003 enforces this).  Seeing one of
    these means internal state the library guarantees by construction
    was violated; please report it with the traceback.
    """


class InvalidRequestError(SchedulingError, ValueError):
    """A resource request, job, or batch violates a model invariant.

    Raised eagerly at construction time (for example a request for zero
    nodes, a negative runtime, or a non-positive performance bound) so that
    the search algorithms can assume well-formed inputs.
    """


class SlotListError(SchedulingError, ValueError):
    """A slot-list operation received an inconsistent argument.

    Typical causes: subtracting a window slot that is not contained in any
    vacant slot of the list, or inserting a slot that ends before it
    starts.
    """


class WindowNotFoundError(SchedulingError):
    """No window satisfying a request exists in the current slot list.

    The search functions in :mod:`repro.core.alp` and
    :mod:`repro.core.amp` normally *return* ``None`` on failure because a
    failed search is an expected outcome of every scheduling iteration
    (the job is postponed, per Section 2 of the paper).  This exception
    exists for the strict variants (``require_window``) used by callers
    that treat failure as exceptional.
    """

    def __init__(self, message: str, *, job_name: str | None = None) -> None:
        super().__init__(message)
        #: Name of the job whose search failed, when known.
        self.job_name = job_name


class OptimizationError(SchedulingError):
    """The phase-2 combination optimizer could not produce a schedule."""


class InfeasibleConstraintError(OptimizationError):
    """No combination of alternatives satisfies the given constraint.

    Carries the constraint value so diagnostics can report how far the
    cheapest/fastest combination is from feasibility.
    """

    def __init__(self, message: str, *, limit: float | None = None, best: float | None = None) -> None:
        super().__init__(message)
        #: The constraint limit (``B*`` or ``T*``) that could not be met.
        self.limit = limit
        #: The best (smallest) achievable value of the constrained quantity.
        self.best = best


class RecoveryExhaustedError(SchedulingError):
    """A job spent its per-job revocation budget and was dropped.

    Raised conceptually by the fault-recovery subsystem
    (:mod:`repro.grid.resilience`) when outages revoke a job's
    reservation more often than the retry policy allows.  The recovery
    path never lets this propagate out of an outage event — the job is
    rejected in the workload trace and the error is recorded on the
    recovery event — but callers inspecting recovery outcomes get a
    typed, state-carrying exception instead of a bare string.
    """

    def __init__(
        self,
        message: str,
        *,
        job_name: str | None = None,
        revocations: int | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(message)
        #: Name of the job whose revocation budget ran out.
        self.job_name = job_name
        #: How many times outages revoked the job's reservation.
        self.revocations = revocations
        #: The retry policy's revocation budget.
        self.limit = limit


class AdmissionRejectedError(SchedulingError):
    """A submission was shed because the pending queue is full.

    Bounded admission (the metascheduler's ``max_pending`` knob) keeps an
    overloaded VO from growing an unbounded backlog: once the number of
    jobs waiting for a window reaches the limit, further submissions are
    rejected *at the door* with this typed error rather than silently
    queued behind work that cannot drain.  Callers decide the shed
    policy — drop, retry later, or route to another VO.
    """

    def __init__(
        self,
        message: str,
        *,
        job_name: str | None = None,
        backlog: int | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(message)
        #: Name of the job that was turned away.
        self.job_name = job_name
        #: Queue depth (pending + future submissions) at rejection time.
        self.backlog = backlog
        #: The configured admission limit.
        self.limit = limit


class PersistenceError(SchedulingError):
    """Durable scheduler state could not be written, read, or replayed.

    Base class for the checkpoint/journal subsystem
    (:mod:`repro.core.journal`, :mod:`repro.grid.checkpoint`); deriving
    from :class:`SchedulingError` maps these failures to the CLI's
    standard exit code 2.
    """


class JournalCorruptError(PersistenceError):
    """A journal record failed validation somewhere other than the tail.

    A *trailing* torn record is expected after a crash and is skipped
    with a warning; corruption in the middle of a journal (bad checksum,
    sequence gap, malformed JSON) means the file cannot be trusted and
    replay refuses to guess.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None) -> None:
        super().__init__(message)
        #: The journal file, when known.
        self.path = path
        #: 1-based line number of the offending record, when known.
        self.line = line


class JournalClosedError(PersistenceError):
    """An append was attempted on a journal that has fail-closed.

    After an append or ``fsync`` raises :class:`OSError`, the durability
    of the in-flight record is *unknown* — the page cache may or may not
    hold it, and a later successful append would silently write past a
    record that never reached stable storage (the "fsyncgate" failure
    mode).  The writer therefore poisons its handle on the first I/O
    error: every subsequent :meth:`~repro.core.journal.JournalWriter.append`
    raises this error until the journal is reopened, which re-scans the
    file and truncates any torn tail.
    """

    def __init__(self, message: str, *, path: str | None = None) -> None:
        super().__init__(message)
        #: The journal file whose handle is poisoned, when known.
        self.path = path


class WorkerLostError(SchedulingError):
    """A parallel worker process died and supervised recovery gave up.

    Raised by the parallel experiment engine
    (:class:`~repro.sim.experiment.ParallelRunner`) after a killed or
    wedged worker process could not be replaced within the supervisor's
    bounded restart budget.  Because every worker assignment is
    derived-seed pure, a *successful* supervised retry is byte-identical
    to an undisturbed run; this error means the fault recurred past the
    budget and the run cannot be trusted to finish.
    Deriving from :class:`SchedulingError` maps it to the CLI's standard
    exit code 2.
    """

    def __init__(
        self,
        message: str,
        *,
        restarts: int | None = None,
    ) -> None:
        super().__init__(message)
        #: How many supervised restarts were attempted before giving up.
        self.restarts = restarts


class CheckpointMismatchError(PersistenceError):
    """A checkpoint or resume file does not match the requested run.

    Raised when resuming an experiment against a checkpoint written for
    a different configuration (seed, iteration count, generator
    parameters…), or when a snapshot declares an unsupported format.
    Resuming against the wrong state would silently produce corrupt
    merged results; refusing loudly is the only safe behaviour.
    """


class TelemetryError(SchedulingError):
    """A telemetry trace could not be written or replayed.

    Raised by :mod:`repro.obs.export` for missing, malformed, or
    unsupported-format trace files; deriving from
    :class:`SchedulingError` lets the CLI map it to a non-zero exit code
    with the same handler as every other library failure.
    """


class TelemetryUsageError(TelemetryError, ValueError):
    """An observability API was called with invalid values.

    Counter decrements, histogram bounds out of order, quantiles outside
    ``[0, 1]``, non-positive capacities — misuse of the :mod:`repro.obs`
    surface, as opposed to trace-file failures (plain
    :class:`TelemetryError`).  Also a :class:`ValueError`, so callers
    catching the builtin keep working (RPR102 migration: every untyped
    ``raise ValueError`` on the public observability surface became this
    type).
    """
