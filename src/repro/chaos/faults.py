"""Seeded fault schedules: the ``FaultPlan``/``FaultPoint`` model.

A chaos campaign is a *plan*: a small set of :class:`FaultPoint` entries,
each naming an operation (``write`` / ``fsync`` / ``replace`` /
``worker``), a fault kind, a target filter, and the 1-based occurrence at
which to fire — "tear journal append #17", "fail the snapshot rename",
"kill the pool worker that owns iteration 5".  The instrumented seams (the
chaos filesystem in :mod:`repro.chaos.fs`, the worker-kill helpers in
:mod:`repro.chaos.proc`) report every operation to the plan, which
decides deterministically whether that call is the one that faults.

Determinism is the whole point: plans contain no ambient entropy.  Any
randomized placement of fault points derives its RNG seed through
:func:`derive_fault_seed` from the campaign's single master seed
(``--chaos-seed``), the same discipline RPR001/RPR002 enforce for
iteration and node seeds — so a failing campaign replays bit-for-bit
from one integer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.errors import InvalidRequestError
from repro.obs.telemetry import get_telemetry

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
    "SimulatedCrash",
    "derive_fault_seed",
]

#: Fault kinds each instrumented operation supports.  ``crash`` models a
#: process death (``SIGKILL`` mid-syscall) at that point; the others are
#: I/O errors the caller is expected to survive or fail-closed on.
FAULT_KINDS: dict[str, tuple[str, ...]] = {
    "write": ("crash", "torn", "enospc", "bitflip"),
    "fsync": ("crash", "fsync_fail"),
    "replace": ("crash", "rename_fail"),
    "worker": ("kill",),
}


def derive_fault_seed(master_seed: int, label: str) -> int:
    """Derive a per-campaign RNG seed from the chaos master seed.

    Mirrors :func:`~repro.sim.experiment.derive_iteration_seed`: a keyed
    blake2b digest of ``master_seed`` and a campaign label, so every
    randomized fault placement is a pure function of ``--chaos-seed``
    and never of ambient entropy (RPR001/RPR002).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:chaos:{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class SimulatedCrash(BaseException):
    """A fault point modelling process death fired.

    Derives from :class:`BaseException` (like :class:`KeyboardInterrupt`)
    so no library ``except OSError`` / ``except SchedulingError`` handler
    can absorb it: a simulated crash must unwind exactly as far as a real
    ``SIGKILL`` would — all the way out of the component under test.
    The chaos harness catches it, abandons the in-memory state, and
    exercises the restore path.
    """

    def __init__(self, point: "FaultPoint", target: str) -> None:
        super().__init__(f"simulated crash at {point.describe()} on {target!r}")
        #: The fault point that fired.
        self.point = point
        #: Name of the file/process the faulted operation targeted.
        self.target = target


@dataclass(frozen=True)
class FaultPoint:
    """One scheduled fault: *the Nth matching operation fails like this*.

    Attributes:
        op: Instrumented operation: ``"write"``, ``"fsync"``,
            ``"replace"`` (filesystem seam) or ``"worker"`` (process
            seam).
        kind: Fault to inject, one of :data:`FAULT_KINDS` for ``op``.
        index: 1-based occurrence of the matching operation to fault
            (``index=17`` fires on the 17th matching call).
        path: Substring filter on the operation's target (file name or
            worker label); ``None`` matches every target.
    """

    op: str
    kind: str
    index: int = 1
    path: str | None = None

    def __post_init__(self) -> None:
        kinds = FAULT_KINDS.get(self.op)
        if kinds is None:
            raise InvalidRequestError(
                f"unknown fault op {self.op!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.kind not in kinds:
            raise InvalidRequestError(
                f"fault kind {self.kind!r} is not valid for op {self.op!r}; "
                f"expected one of {list(kinds)}"
            )
        if self.index < 1:
            raise InvalidRequestError(
                f"fault index is 1-based and must be >= 1, got {self.index}"
            )

    def matches(self, op: str, target: str) -> bool:
        """Whether an operation on ``target`` is counted by this point."""
        if op != self.op:
            return False
        return self.path is None or self.path in target

    def describe(self) -> str:
        """Human-readable label, e.g. ``"write#17(torn)@journal.jsonl"``."""
        scope = f"@{self.path}" if self.path is not None else ""
        return f"{self.op}#{self.index}({self.kind}){scope}"


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault that actually fired during a campaign."""

    #: The fault point that fired.
    point: FaultPoint
    #: Target of the faulted operation (file name or worker label).
    target: str
    #: Global 1-based count of matching operations when it fired.
    call: int


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, consulted by instrumented seams.

    The plan is *stateful*: every call to :meth:`observe` counts the
    operation against each armed point and returns the point that fires
    on this call, if any.  Fired points are consumed — a plan injects
    each fault exactly once, and :attr:`injected` records what fired so
    campaigns can assert their faults actually landed.
    """

    #: The scheduled fault points.
    points: tuple[FaultPoint, ...] = ()
    #: Faults that fired, in firing order.
    injected: list[InjectedFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points = tuple(self.points)
        self._seen: dict[int, int] = {slot: 0 for slot in range(len(self.points))}
        self._consumed: set[int] = set()

    def observe(self, op: str, target: str) -> FaultPoint | None:
        """Count one operation; return the fault point firing on it, if any.

        All armed points matching ``(op, target)`` advance their
        occurrence counters; the first one whose counter reaches its
        ``index`` is consumed and returned.  Instrumented seams call
        this once per operation and inject the returned fault.
        """
        fired: FaultPoint | None = None
        fired_call = 0
        for slot, point in enumerate(self.points):
            if slot in self._consumed or not point.matches(op, target):
                continue
            self._seen[slot] += 1
            if fired is None and self._seen[slot] == point.index:
                fired = point
                fired_call = self._seen[slot]
                self._consumed.add(slot)
        if fired is not None:
            self.injected.append(
                InjectedFault(point=fired, target=target, call=fired_call)
            )
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.count("chaos.faults_injected", 1, op=fired.op, kind=fired.kind)
                if telemetry.decisions.enabled:
                    telemetry.decisions.emit(
                        "chaos.fault",
                        fault_op=fired.op,
                        kind=fired.kind,
                        target=target,
                        call=fired_call,
                    )
        return fired

    @property
    def pending(self) -> tuple[FaultPoint, ...]:
        """Points that have not fired yet."""
        return tuple(
            point
            for slot, point in enumerate(self.points)
            if slot not in self._consumed
        )

    def crash(self, point: FaultPoint, target: str) -> SimulatedCrash:
        """Build the :class:`SimulatedCrash` for a ``crash``-kind firing."""
        return SimulatedCrash(point, target)
