"""Windows — co-allocated sets of concurrent slots for one job.

A :class:`Window` is the outcome of a successful ALP/AMP search: ``N``
task placements on distinct resources that all *start synchronously* at
``window.start`` (Section 2: "tasks of the parallel job must start
synchronously").  On heterogeneous nodes the placements end at different
times, producing the paper's "window with a rough right edge"
(Fig. 1 (a)); the job's execution time is set by the slowest node.

Windows are immutable value objects.  They remember which vacant slot
each placement was carved from, so the alternative-search scheme can
subtract exactly the occupied spans from the slot list (Fig. 1 (b)).

The indexed finders accept far more windows than anything reads in
full: phase 2 looks only at ``cost`` and ``length``.  So a window built
by :meth:`Window.from_placements` keeps its placements as primitive
:data:`Placement` tuples and builds its :class:`TaskAllocation` objects
(and their source :class:`~repro.core.slot.Slot` objects) the first time
``allocations`` is read — directly or through ``==``, ``hash``, ``repr``
and the derived views.  ``start``, ``end`` and ``cost`` of an unbuilt
window come from the same floats in the same operation order as the
built one's, so they are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.errors import InvalidRequestError
from repro.core.job import ResourceRequest
from repro.core.resource import Resource
from repro.core.slot import Slot, carved_slot

__all__ = ["Placement", "TaskAllocation", "Window"]

#: One task placement in primitive form: ``(uid, performance, source
#: start, source end, price, start, end, resource)``.  The first seven
#: fields describe the placement and the vacant slot it was carved
#: from; the trailing :class:`Resource` is the node itself, kept so the
#: placement can be rebuilt into a :class:`TaskAllocation` without any
#: outside ``uid → Resource`` map.
Placement = tuple[int, float, float, float, float, float, float, Resource]


def _carved_allocation(source: Slot, start: float, end: float) -> TaskAllocation:
    """Construct a :class:`TaskAllocation` without re-validating containment.

    Trusted fast path for windows built from the indexed finders'
    placements, whose scan invariants guarantee
    ``source.contains_span(start, end)``: a candidate is only admitted
    while ``end - window_start >= runtime`` holds and rows are scanned in
    start order, so every emitted placement fits its source slot by
    construction.  The naive reference finders always construct through
    the validating ``__init__``, and the differential oracles pin both
    paths to identical windows.
    """
    allocation = object.__new__(TaskAllocation)
    object.__setattr__(allocation, "source", source)
    object.__setattr__(allocation, "start", start)
    object.__setattr__(allocation, "end", end)
    return allocation


@dataclass(frozen=True, slots=True)
class TaskAllocation:
    """One task's placement inside a window.

    This is the paper's ``K'`` slot: it starts at the window start and
    lasts exactly the task's runtime on the chosen node.

    Attributes:
        source: The vacant slot the placement was carved from.
        start: Placement start (== the window start).
        end: Placement end (``start + runtime on source's node``).
    """

    source: Slot
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.source.contains_span(self.start, self.end):
            raise InvalidRequestError(
                f"allocation [{self.start:g}, {self.end:g}) escapes its source slot "
                f"[{self.source.start:g}, {self.source.end:g}) on {self.resource.name!r}"
            )

    @property
    def resource(self) -> Resource:
        """Node executing this task."""
        return self.source.resource

    @property
    def runtime(self) -> float:
        """Actual task runtime on this node."""
        return self.end - self.start

    @property
    def cost(self) -> float:
        """Cost of this placement: ``price per unit × runtime``."""
        return self.source.price * self.runtime

    @property
    def unit_price(self) -> float:
        """Price per time unit of the underlying slot."""
        return self.source.price


class Window:
    """A co-allocation of ``N`` synchronous task placements (paper's ``Window``).

    Attributes mirror the paper's ``Window`` class: total cost, start and
    end times, time span, the number of slots, and the slots themselves
    (here: :class:`TaskAllocation` objects, which also remember their
    source vacant slots).

    A window always holds its placements as primitive :data:`Placement`
    tuples (``_rows``), ordered by resource uid; ``start``, ``end`` and
    ``cost`` are read from them.  The :class:`TaskAllocation` objects
    (``_allocations``) are kept by the validating ``__init__`` and built
    from the rows on first read for a window made by
    :meth:`from_placements`; until then they are the empty tuple (a
    window always has at least one placement).
    """

    __slots__ = ("_request", "_allocations", "_rows", "_start", "_end", "_cost")

    def __init__(self, request: ResourceRequest, allocations: Sequence[TaskAllocation]) -> None:
        if len(allocations) != request.node_count:
            raise InvalidRequestError(
                f"window needs exactly {request.node_count} allocations, got {len(allocations)}"
            )
        starts = {allocation.start for allocation in allocations}
        if len(starts) != 1:
            raise InvalidRequestError(
                f"window tasks must start synchronously, got starts {sorted(starts)}"
            )
        resources = {allocation.resource.uid for allocation in allocations}
        if len(resources) != len(allocations):
            raise InvalidRequestError("window tasks must run on distinct resources")
        self._request = request
        self._allocations: tuple[TaskAllocation, ...] = tuple(
            sorted(allocations, key=lambda a: (a.resource.uid, a.start))
        )
        self._rows: tuple[Placement, ...] = tuple(
            (
                a.source.resource.uid,
                a.source.resource.performance,
                a.source.start,
                a.source.end,
                a.source.price,
                a.start,
                a.end,
                a.source.resource,
            )
            for a in self._allocations
        )
        self._start = self._allocations[0].start
        self._end: float | None = None
        self._cost: float | None = None

    @classmethod
    def from_placements(
        cls, request: ResourceRequest, placements: Iterable[Placement]
    ) -> "Window":
        """Construct a window from a finder's placements without re-validating.

        Trusted fast path for the indexed finders: the scan
        emits exactly ``node_count`` placements sharing one start, and
        distinct resources follow from same-resource slots being
        disjoint (two placements covering the same start on one
        resource would need overlapping vacant slots).  Plain tuple
        order sorts the placements by uid — the leading field, unique
        within a window — which matches ``__init__``'s ``(uid, start)``
        order because all starts are equal.  Nothing is built until it
        is read.  The naive reference finders always construct through
        the validating ``__init__``.
        """
        window = object.__new__(cls)
        rows = tuple(sorted(placements))
        window._request = request
        window._allocations = ()
        window._rows = rows
        window._start = rows[0][5]
        window._end = None
        window._cost = None
        return window

    # ------------------------------------------------------------------ #
    # Paper's Window fields                                              #
    # ------------------------------------------------------------------ #

    @property
    def request(self) -> ResourceRequest:
        """The request this window satisfies."""
        return self._request

    @property
    def allocations(self) -> tuple[TaskAllocation, ...]:
        """Task placements, ordered by resource uid (built on first read)."""
        allocations = self._allocations
        if not allocations:
            allocations = tuple(
                _carved_allocation(
                    carved_slot(resource, source_start, source_end, price), start, end
                )
                for _uid, _perf, source_start, source_end, price, start, end, resource
                in self._rows
            )
            self._allocations = allocations
        return allocations

    def placements(self) -> tuple[Placement, ...]:
        """Task placements as primitive :data:`Placement` tuples, by uid.

        The one accessor :meth:`~repro.core.index.SlotIndex.commit`
        reads; it serves built and unbuilt windows alike.
        """
        return self._rows

    @property
    def slots_number(self) -> int:
        """Number of co-allocated slots ``N``."""
        return self._request.node_count

    @property
    def start(self) -> float:
        """Synchronous start time of all tasks."""
        return self._start

    @property
    def end(self) -> float:
        """End of the *longest* placement (the rough right edge)."""
        end = self._end
        if end is None:
            end = max(row[6] for row in self._rows)
            self._end = end
        return end

    @property
    def length(self) -> float:
        """The job execution time ``t_i(s̄_i)``: span set by the slowest node."""
        return self.end - self.start

    @property
    def cost(self) -> float:
        """Total usage cost ``c_i(s̄_i)``: sum of placement costs.

        Summed in uid order over ``price * (end - start)`` — the very
        expression :attr:`TaskAllocation.cost` evaluates — whether or
        not the allocations have been built.
        """
        cost = self._cost
        if cost is None:
            cost = sum(row[4] * (row[6] - row[5]) for row in self._rows)
            self._cost = cost
        return cost

    @property
    def unit_cost(self) -> float:
        """Sum of per-time-unit prices of the window's slots.

        For uniform-performance environments (as in the worked example of
        Section 4) the window is rectangular and
        ``cost == unit_cost × length``; the example's "maximum total
        window cost per time" constraints are bounds on this value.
        """
        return sum(allocation.unit_price for allocation in self.allocations)

    # ------------------------------------------------------------------ #
    # Derived views                                                      #
    # ------------------------------------------------------------------ #

    def resources(self) -> tuple[Resource, ...]:
        """Nodes used by the window, ordered by uid."""
        return tuple(allocation.resource for allocation in self.allocations)

    def occupied_spans(self) -> Iterator[tuple[Resource, float, float]]:
        """Spans ``(resource, start, end)`` to subtract from a slot list."""
        for allocation in self.allocations:
            yield (allocation.resource, allocation.start, allocation.end)

    def intersects(self, other: "Window") -> bool:
        """Whether two windows share processor time on some resource."""
        mine = {allocation.resource.uid: allocation for allocation in self.allocations}
        for allocation in other.allocations:
            twin = mine.get(allocation.resource.uid)
            if twin is not None and allocation.start < twin.end and twin.start < allocation.end:
                return True
        return False

    def satisfies(self, request: ResourceRequest | None = None, *, budget: float | None = None) -> bool:
        """Check the full co-allocation contract (used by tests and audits).

        Verifies node count, synchronous start, distinct resources (by
        construction), minimum performance, per-task runtime, and — when
        ``budget`` is given — the AMP budget; otherwise the per-slot price
        cap of ALP.
        """
        request = request or self._request
        allocations = self.allocations
        if len(allocations) != request.node_count:
            return False
        for allocation in allocations:
            if not request.admits_performance(allocation.resource):
                return False
            expected = request.runtime_on(allocation.resource)
            if abs(allocation.runtime - expected) > 1e-9 * max(1.0, expected):
                return False
            if budget is None and not request.admits_price(allocation.source):
                return False
        if budget is not None and self.cost > budget * (1 + 1e-12):
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self.allocations == other.allocations

    def __hash__(self) -> int:
        return hash(self.allocations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nodes = ",".join(resource.name for resource in self.resources())
        return (
            f"Window([{self.start:g}, {self.end:g}) on {nodes}, "
            f"cost={self.cost:g}, unit_cost={self.unit_cost:g})"
        )
