"""ALP — Algorithm based on Local Price of slots (paper Section 3).

ALP finds the *earliest* window of ``N`` concurrent slots for one job by a
single forward scan over the ordered vacant-slot list, restricting the
price of every **individual** slot to the user's maximum price ``C``
(condition 2°c).  Complexity is linear in the number of slots ``m``: the
scan only moves forward, and every slot is added to and removed from the
candidate window at most once.

The scan keeps a *candidate window* — the suited slots that are still
alive at the tentative window start ``T_last`` (the start time of the
last added slot).  When the scan advances, candidates whose remaining
length no longer covers their task's runtime *expire* and are dropped
(step 3°).  The first moment the candidate window holds ``N`` slots, the
window is formed with the synchronous start ``T_last``.

The same scan, with the price condition switched off, is the first step
of AMP (:mod:`repro.core.amp`), so the candidate-window machinery is
shared through :class:`ForwardScan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import InvalidRequestError, WindowNotFoundError
from repro.core.job import ResourceRequest
from repro.core.slot import Slot, SlotList
from repro.core.window import TaskAllocation, Window

__all__ = ["ForwardScan", "find_window", "require_window", "slot_is_suited"]


def slot_is_suited(slot: Slot, request: ResourceRequest, *, check_price: bool) -> bool:
    """Static suitability of one slot for one request (conditions 2°a-2°c).

    Checks the minimum performance (2°a), that the slot is long enough for
    the task's runtime on its node at the slot's *own* start (2°b), and —
    when ``check_price`` — the individual price cap (2°c).  Dynamic expiry
    relative to the moving window start is handled by the scan itself.
    """
    if not request.admits_performance(slot.resource):
        return False
    if check_price and not request.admits_price(slot):
        return False
    return slot.length >= request.runtime_on(slot.resource)


@dataclass
class ForwardScan:
    """Mutable candidate-window state of the ALP/AMP forward scan.

    Attributes:
        request: The request being served.
        check_price: Whether condition 2°c (per-slot price cap) applies.
        candidates: Suited slots alive at ``window_start``.
        window_start: ``T_last`` — the start of the last added slot, i.e.
            the tentative synchronous start of the window being built.
    """

    request: ResourceRequest
    check_price: bool = True
    candidates: list[Slot] = field(default_factory=list)
    window_start: float = float("-inf")

    def offer(self, slot: Slot) -> bool:
        """Examine the next slot of the ordered list (step 2°).

        Returns ``True`` when the slot was suited and joined the candidate
        window.  Advancing the window start to the new slot's start also
        expires candidates per step 3° — including, automatically, any
        earlier slot on the same resource, whose vacancy necessarily ended
        before the new slot began.
        """
        if not slot_is_suited(slot, self.request, check_price=self.check_price):
            return False
        self.advance_to(slot.start)
        self.candidates.append(slot)
        return True

    def advance_to(self, time: float) -> None:
        """Move the tentative window start forward and expire candidates.

        Expiry (step 3°): a candidate ``c`` survives only while
        ``c.end - T_last >= runtime on c's node``, i.e. while a task
        starting at ``T_last`` still finishes inside the slot.
        """
        if time < self.window_start:
            raise InvalidRequestError(
                f"forward scan cannot move backwards: {time!r} < {self.window_start!r}"
            )
        self.window_start = time
        self.candidates = [
            candidate
            for candidate in self.candidates
            if candidate.remaining_from(time) >= self.request.runtime_on(candidate.resource)
        ]

    @property
    def size(self) -> int:
        """Current number of slots in the candidate window (``N_S``)."""
        return len(self.candidates)

    def build_window(self, chosen: list[Slot] | None = None) -> Window:
        """Materialise a :class:`Window` from candidate slots.

        With ``chosen`` omitted, uses the whole candidate list (the ALP
        case, where the list holds exactly ``N`` slots).  The synchronous
        start is the latest start among the chosen slots — never later
        than ``window_start``, at which every candidate was verified
        alive, so the resulting placements are guaranteed to fit.
        """
        slots = self.candidates if chosen is None else chosen
        start = max(slot.start for slot in slots)
        allocations = [
            TaskAllocation(slot, start, start + self.request.runtime_on(slot.resource))
            for slot in slots
        ]
        return Window(self.request, allocations)


def find_window(slot_list: SlotList, request: ResourceRequest, *, check_price: bool = True) -> Window | None:
    """Run ALP for a single job over ``slot_list`` (paper steps 1°-5°).

    Args:
        slot_list: The ordered list of vacant slots.  Not modified; the
            caller subtracts the returned window if it commits to it.
        request: The job's resource request.
        check_price: Apply condition 2°c.  AMP's first step reuses this
            function with ``check_price=False``.

    Returns:
        The earliest-start window of ``request.node_count`` slots, or
        ``None`` when the scan runs out of slots first (the job is then
        postponed to the next scheduling iteration).
    """
    scan = ForwardScan(request, check_price=check_price)
    for slot in slot_list:
        if not scan.offer(slot):
            continue
        if scan.size == request.node_count:
            return scan.build_window()
    return None


def require_window(slot_list: SlotList, request: ResourceRequest, *, check_price: bool = True, job_name: str | None = None) -> Window:
    """Like :func:`find_window` but raises on failure.

    Raises:
        WindowNotFoundError: When no suitable window exists.
    """
    window = find_window(slot_list, request, check_price=check_price)
    if window is None:
        raise WindowNotFoundError(
            f"ALP found no window of {request.node_count} slots "
            f"(volume {request.volume:g}, P>={request.min_performance:g}, "
            f"C<={request.max_price:g}) in a list of {len(slot_list)} slots",
            job_name=job_name,
        )
    return window
