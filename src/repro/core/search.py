"""Multi-pass search for alternative slot sets (paper Section 2).

One scheduling iteration must supply *several* execution alternatives per
job so that the phase-2 optimizer has something to choose between.  The
scheme is:

* walk the batch in priority order; for each job, find one window with
  the configured algorithm (ALP or AMP);
* on success, *subtract* the window's occupied spans from the vacant-slot
  list, so that later alternatives — of this job and of every other job —
  never intersect it in processor time;
* after the last job, start over from the first job on the modified
  list; stop when a full pass over the batch finds no window for any
  job.

Because every found window removes a positive amount of vacant processor
time, the scheme always terminates.  The resulting alternatives are
mutually disjoint, so *any* combination choosing one window per job is
simultaneously realisable — the property the phase-2 dynamic programming
relies on.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Callable, Mapping

from repro.core import alp, amp
from repro.core.errors import InvalidRequestError
from repro.core.index import NEG_INF, LiveRows, SlotIndex
from repro.core.job import Batch, Job, ResourceRequest
from repro.core.slot import SlotList
from repro.core.window import Window
from repro.obs.telemetry import Telemetry, get_telemetry

__all__ = [
    "SlotSearchAlgorithm",
    "SearchResult",
    "find_alternatives",
    "WindowFinder",
]

#: Signature of a pluggable single-window search: takes the current slot
#: list and a request, returns a window or ``None``.
WindowFinder = Callable[[SlotList, ResourceRequest], "Window | None"]


class SlotSearchAlgorithm(enum.Enum):
    """The two slot-search algorithms proposed by the paper."""

    ALP = "alp"
    AMP = "amp"

    def finder(self, *, rho: float = 1.0) -> WindowFinder:
        """A :data:`WindowFinder` for this algorithm.

        Args:
            rho: Budget-shrink factor of the Section 6 extension
                (``S = ρ · C · t · N``).  Only meaningful for AMP; ALP
                ignores it because its price cap is per-slot.
        """
        if self is SlotSearchAlgorithm.ALP:
            return lambda slots, request: alp.find_window(slots, request)
        return lambda slots, request: amp.find_window(
            slots, request, budget=request.scaled_budget(rho)
        )


class SearchResult:
    """Outcome of one alternative-search phase for a whole batch.

    Attributes:
        alternatives: For every job of the batch, its alternative windows
            in discovery order (possibly empty).
        remaining_slots: The vacant-slot list after all subtractions.
            The indexed search hands over the live rows of its final
            :class:`~repro.core.index.SlotIndex`
            (:class:`~repro.core.index.LiveRows`, not the index's
            columns, memos or journal), and the list is built from them
            on first read — most callers never read it.
        passes: Number of complete passes over the batch, including the
            final empty pass that stopped the search.
    """

    __slots__ = ("alternatives", "passes", "_remaining")

    def __init__(
        self,
        alternatives: dict[Job, list[Window]],
        remaining_slots: SlotList | LiveRows,
        passes: int,
    ) -> None:
        self.alternatives = alternatives
        self.passes = passes
        self._remaining = remaining_slots

    @property
    def remaining_slots(self) -> SlotList:
        """The vacant-slot list after all subtractions (built on read)."""
        remaining = self._remaining
        if isinstance(remaining, LiveRows):
            remaining = self._remaining = remaining.slot_list()
        return remaining

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchResult):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.passes == other.passes
            and self.remaining_slots == other.remaining_slots
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SearchResult({self.total_alternatives} alternatives, "
            f"passes={self.passes})"
        )

    @property
    def total_alternatives(self) -> int:
        """Total number of windows found across the whole batch."""
        return sum(len(windows) for windows in self.alternatives.values())

    @property
    def mean_alternatives_per_job(self) -> float:
        """Average number of alternatives per job (paper's ~7.39 vs ~34.28)."""
        if not self.alternatives:
            return 0.0
        return self.total_alternatives / len(self.alternatives)

    def jobs_without_alternatives(self) -> list[Job]:
        """Jobs whose scheduling must be postponed to the next iteration."""
        return [job for job, windows in self.alternatives.items() if not windows]

    def all_jobs_covered(self) -> bool:
        """Whether every job of the batch has at least one alternative.

        The paper's simulation study only counts experiments where this
        holds for the algorithms being compared.
        """
        return all(self.alternatives.values())

    def counts_by_job(self) -> Mapping[str, int]:
        """Alternative counts keyed by job name (diagnostic view)."""
        return {job.name: len(windows) for job, windows in self.alternatives.items()}


def find_alternatives(
    slot_list: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm | WindowFinder = SlotSearchAlgorithm.AMP,
    *,
    rho: float = 1.0,
    max_passes: int | None = None,
    max_alternatives_per_job: int | None = None,
    use_index: bool = True,
) -> SearchResult:
    """Find alternative windows for every job of ``batch``.

    Args:
        slot_list: Vacant slots of the current scheduling iteration.  The
            input list is left untouched; the search works on a copy.
        batch: Jobs in priority order.
        algorithm: One of :class:`SlotSearchAlgorithm`, or any custom
            :data:`WindowFinder` callable (used by the baselines and by
            ablation experiments).
        rho: AMP budget-shrink factor (Section 6 extension).
        max_passes: Optional safety cap on batch passes; ``None`` runs
            until a pass finds nothing (the paper's stopping rule).
        max_alternatives_per_job: Optional cap on alternatives collected
            per job; jobs at the cap are skipped in later passes.
        use_index: Run the phase-1 scans through a shared
            :class:`~repro.core.index.SlotIndex` (the production path).
            ``False`` runs the reference finders over a copied
            :class:`SlotList` — the executable specification, which the
            indexed path matches window for window.  A custom finder
            callable always runs the reference path.  Telemetry never
            picks the path: when it is on, the same search runs and is
            observed (phase-1 span, phase timers, search counters and
            decisions).
    """
    if max_passes is not None and max_passes < 1:
        raise InvalidRequestError(f"max_passes must be >= 1, got {max_passes!r}")
    if max_alternatives_per_job is not None and max_alternatives_per_job < 1:
        raise InvalidRequestError(
            f"max_alternatives_per_job must be >= 1, got {max_alternatives_per_job!r}"
        )
    telemetry = get_telemetry()
    if not telemetry.enabled:
        searcher = _select_searcher(slot_list, batch, algorithm, rho, use_index)
        return _multi_pass(searcher, batch, max_passes, max_alternatives_per_job, None)
    algo = algorithm.value if isinstance(algorithm, SlotSearchAlgorithm) else "custom"
    with telemetry.span("phase1.find_alternatives", algo=algo, jobs=len(batch)) as span:
        searcher = _select_searcher(slot_list, batch, algorithm, rho, use_index)
        span.annotate(indexed=searcher.indexed)
        observer = _SearchObserver(telemetry, searcher)
        result = _multi_pass(
            searcher, batch, max_passes, max_alternatives_per_job, observer
        )
        observer.flush(result, algo)
    return result


def _select_searcher(
    slot_list: SlotList,
    batch: Batch,
    algorithm: SlotSearchAlgorithm | WindowFinder,
    rho: float,
    use_index: bool,
) -> _ReferenceSearch | _IndexSearch:
    """The search path the arguments select, chosen once per search."""
    if not isinstance(algorithm, SlotSearchAlgorithm):
        return _ReferenceSearch(slot_list, algorithm)
    if use_index:
        return _IndexSearch(slot_list, batch, algorithm, rho)
    return _ReferenceSearch(slot_list, algorithm.finder(rho=rho))


def _multi_pass(
    searcher: _ReferenceSearch | _IndexSearch,
    batch: Batch,
    max_passes: int | None,
    max_alternatives_per_job: int | None,
    observer: _SearchObserver | None,
) -> SearchResult:
    """The multi-pass scheme of the module docstring, on either path.

    ``observer`` is ``None`` with telemetry off; it is tested once per
    job, never inside a scan.
    """
    alternatives: dict[Job, list[Window]] = {job: [] for job in batch}
    exhausted = searcher.exhausted
    passes = 0
    while max_passes is None or passes < max_passes:
        passes += 1
        found_any = False
        for job in batch:
            windows = alternatives[job]
            if job in exhausted or (
                max_alternatives_per_job is not None
                and len(windows) >= max_alternatives_per_job
            ):
                continue
            if observer is None:
                window = searcher.find(job)
                if window is not None:
                    searcher.commit(window)
            else:
                window = observer.find_and_commit(job, passes, len(windows) + 1)
            if window is None:
                continue
            windows.append(window)
            found_any = True
        if not found_any:
            break
    return SearchResult(
        alternatives=alternatives, remaining_slots=searcher.remaining(), passes=passes
    )


class _ReferenceSearch:
    """The executable specification: a :data:`WindowFinder` rescans a
    working copy of the list, and every accepted window is cut out of it
    with :meth:`SlotList.subtract`."""

    indexed = False
    scan_phase = "phase1.scan"

    def __init__(self, slot_list: SlotList, finder: WindowFinder) -> None:
        self.working = slot_list.copy()
        self.finder = finder
        #: Never filled: the reference path retries every job each pass.
        self.exhausted: set[Job] = set()

    def find(self, job: Job) -> Window | None:
        return self.finder(self.working, job.request)

    def commit(self, window: Window) -> None:
        for resource, start, end in window.occupied_spans():
            self.working.subtract(resource, start, end)

    def hint_prunes(self, job: Job) -> dict[str, int]:
        return {}

    def remaining(self) -> SlotList:
        return self.working


class _IndexSearch:
    """The production search over one shared :class:`SlotIndex`.

    Window-for-window equivalent to :class:`_ReferenceSearch`: the index
    replays the same scans over primitive rows, subtraction is
    incremental (:meth:`SlotIndex.commit`), and per-job start hints
    exploit the monotonicity of window starts across passes (slot
    subtraction only removes vacant time, so a job's next window can
    never start before its previous one).
    """

    indexed = True
    scan_phase = "phase1.index_scan"

    def __init__(
        self,
        slot_list: SlotList,
        batch: Batch,
        algorithm: SlotSearchAlgorithm,
        rho: float,
    ) -> None:
        self.index = SlotIndex(slot_list)
        self.is_amp = algorithm is SlotSearchAlgorithm.AMP
        self.budgets = (
            {job: job.request.scaled_budget(rho) for job in batch} if self.is_amp else {}
        )
        self.hints: dict[Job, float] = {job: NEG_INF for job in batch}
        # ALP-only: once a job's search comes back empty it stays empty for
        # the rest of this batch search — later passes only *subtract*
        # vacant time, and an ALP window over fragments maps
        # candidate-for-candidate onto the containing rows of any earlier
        # state, so a window appearing later would have been found now.
        # AMP is excluded: its budget test fires only at row-start events
        # >= the hint, and subtraction mints new row starts (fragment
        # boundaries), so an AMP failure is not stable under further
        # subtraction.
        self.exhausted: set[Job] = set()

    def find(self, job: Job) -> Window | None:
        """The job's next window; advances its start hint on success."""
        if not self.is_amp:
            window = self.index.find_alp_window(job.request, start_hint=self.hints[job])
            if window is None:
                self.exhausted.add(job)
            else:
                self.hints[job] = window.start
            return window
        found = self.index.find_amp_window_at(
            job.request, budget=self.budgets[job], start_hint=self.hints[job]
        )
        if found is None:
            return None
        window, self.hints[job] = found
        return window

    def commit(self, window: Window) -> None:
        self.index.commit(window)

    def hint_prunes(self, job: Job) -> dict[str, int]:
        """Rows both start-hint prune tiers skip in the job's next scan.

        An extra ``O(m)`` count, paid only under decision logging.
        """
        skipped, runtime_skipped = self.index.hint_prunes(
            job.request, start_hint=self.hints[job], check_price=not self.is_amp
        )
        return {"hint_skips": skipped, "hint_runtime_skips": runtime_skipped}

    def remaining(self) -> LiveRows:
        return self.index.live_rows()


class _SearchObserver:
    """Records one phase-1 search; bound only while telemetry is on.

    Times each finder call (``phase1.scan`` or ``phase1.index_scan``)
    and each commit (``phase1.subtract``), counts empty finder calls and,
    on the index path, both start-hint prune tiers.  With decision
    logging on it emits one ``search.alternative_accepted`` or
    ``search.no_window`` record per finder call.
    """

    def __init__(
        self, telemetry: Telemetry, searcher: _ReferenceSearch | _IndexSearch
    ) -> None:
        self.telemetry = telemetry
        self.searcher = searcher
        self.scan_seconds = 0.0
        self.subtract_seconds = 0.0
        self.misses = 0
        self.prunes: dict[str, int] = (
            {"hint_skips": 0, "hint_runtime_skips": 0} if searcher.indexed else {}
        )

    def find_and_commit(
        self, job: Job, search_pass: int, alternative: int
    ) -> Window | None:
        """The loop's find-then-commit step for ``job``, observed."""
        searcher = self.searcher
        decisions = self.telemetry.decisions
        record_decisions = decisions.enabled
        prunes = searcher.hint_prunes(job) if record_decisions else {}
        for key, value in prunes.items():
            self.prunes[key] += value
        began = perf_counter()
        window = searcher.find(job)
        self.scan_seconds += perf_counter() - began
        if window is None:
            self.misses += 1
            if record_decisions:
                decisions.emit(
                    "search.no_window", job=job.name, search_pass=search_pass, **prunes
                )
            return None
        began = perf_counter()
        searcher.commit(window)
        self.subtract_seconds += perf_counter() - began
        if record_decisions:
            decisions.emit(
                "search.alternative_accepted",
                job=job.name,
                alternative=alternative,
                search_pass=search_pass,
                start=window.start,
                cost=window.cost,
                **prunes,
            )
        return window

    def flush(self, result: SearchResult, algo: str) -> None:
        """Batch-level counters and phase timers, once per search."""
        if not self.telemetry.enabled:  # the RPR006 guard; always on here
            return
        telemetry = self.telemetry
        telemetry.count("search.batches", 1, algo=algo)
        telemetry.count("search.passes", result.passes, algo=algo)
        telemetry.count("search.windows_collected", result.total_alternatives, algo=algo)
        telemetry.count("search.windows_missed", self.misses, algo=algo)
        telemetry.count(
            "search.jobs_uncovered", len(result.jobs_without_alternatives()), algo=algo
        )
        for windows in result.alternatives.values():
            telemetry.observe("search.alternatives_per_job", len(windows), algo=algo)
        for key, total in self.prunes.items():
            telemetry.count(f"search.{key}", total, algo=algo)
        telemetry.observe(
            "phase.seconds", self.scan_seconds, phase=self.searcher.scan_phase
        )
        telemetry.observe("phase.seconds", self.subtract_seconds, phase="phase1.subtract")
