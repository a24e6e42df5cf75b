"""Oracle tests: ALP/AMP vs slow brute-force reference implementations.

The forward scans are optimized and subtle (expiry, tentative starts,
cheapest-subset retries); these tests validate them against maximally
dumb O(m²) oracles that enumerate every candidate start time directly
from the definitions in docs/model.md.  Agreement across random
environments is the core correctness argument of the reproduction.

The second half of the module is the *differential* suite guarding the
indexed fast path (:class:`repro.core.index.SlotIndex`): the optimised
finders and the retained naive O(m)-rescan reference must produce
identical window sets — same alternatives, same pass counts, same
remaining slots — and identical phase-2 DP selections, across hundreds
of random instances.  This is the equivalence-testing policy of
docs/benchmarks.md: any future fast path must ship with tests of this
shape before it may become the default.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Criterion,
    Resource,
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotSearchAlgorithm,
    find_alternatives,
    minimize_cost,
    minimize_time,
    time_quota,
    vo_budget,
)
from repro.core import alp, amp

from tests.conftest import make_random_batch, make_random_request, make_random_slot_list


def _alive(slot: Slot, request: ResourceRequest, at: float) -> bool:
    """Definition: slot can host a task of `request` starting at `at`."""
    if not request.admits_performance(slot.resource):
        return False
    if slot.start > at:
        return False
    return slot.end - at >= request.runtime_on(slot.resource)


def _oracle_alp_start(slots: SlotList, request: ResourceRequest) -> float | None:
    """Earliest start where N price-capped suited slots are alive."""
    for candidate in sorted({slot.start for slot in slots}):
        alive = [
            slot
            for slot in slots
            if _alive(slot, request, candidate) and request.admits_price(slot)
        ]
        if len(alive) >= request.node_count:
            return candidate
    return None


def _oracle_amp_start(slots: SlotList, request: ResourceRequest) -> float | None:
    """Earliest start where the N cheapest alive slots fit the budget."""
    budget = request.budget
    for candidate in sorted({slot.start for slot in slots}):
        alive = [slot for slot in slots if _alive(slot, request, candidate)]
        if len(alive) < request.node_count:
            continue
        costs = sorted(slot.cost_of(request.volume) for slot in alive)
        if sum(costs[: request.node_count]) <= budget:
            return candidate
    return None


# The instance generator now lives in tests/conftest.py so the property
# suite can reuse it; the local alias keeps the oracle tests readable.
_random_slot_list = make_random_slot_list


_request_strategy = st.builds(
    ResourceRequest,
    node_count=st.integers(min_value=1, max_value=5),
    volume=st.floats(min_value=10.0, max_value=200.0),
    min_performance=st.floats(min_value=1.0, max_value=2.0),
    max_price=st.floats(min_value=1.0, max_value=8.0),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), request=_request_strategy)
def test_alp_matches_oracle(seed, request):
    """ALP's window start (and feasibility) equals the brute-force
    earliest feasible start."""
    slots = _random_slot_list(seed)
    window = alp.find_window(slots, request)
    oracle = _oracle_alp_start(slots, request)
    if oracle is None:
        assert window is None
    else:
        assert window is not None
        assert window.start == oracle


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), request=_request_strategy)
def test_amp_matches_oracle(seed, request):
    """AMP's window start equals the brute-force earliest budget-feasible
    start, and its cost matches the cheapest-N total there."""
    slots = _random_slot_list(seed)
    window = amp.find_window(slots, request)
    oracle = _oracle_amp_start(slots, request)
    if oracle is None:
        assert window is None
    else:
        assert window is not None
        assert window.start == oracle
        # The budget always holds.  Note AMP's cheapest-N is taken over
        # candidates alive at the *scan event* (the last added slot's
        # start), per the paper's step 2°-3°; cheaper slots that expire
        # between the final window start and that event are legitimately
        # not reconsidered, so cost-minimality at the window start is
        # NOT a property of AMP and is not asserted.
        assert window.cost <= request.budget + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_oracles_agree_on_ordering(seed):
    """Sanity of the oracles themselves: the AMP oracle never reports a
    later start than the ALP oracle (budget relaxes the per-slot cap
    when all performances are >= 1)."""
    slots = _random_slot_list(seed)
    request = ResourceRequest(node_count=2, volume=80.0, max_price=4.0)
    alp_start = _oracle_alp_start(slots, request)
    amp_start = _oracle_amp_start(slots, request)
    if alp_start is not None:
        assert amp_start is not None
        assert amp_start <= alp_start


# --------------------------------------------------------------------- #
# Differential tests: indexed fast path vs naive O(m)-rescan reference  #
# --------------------------------------------------------------------- #

#: 100 seeds × 2 algorithms = 200 random multi-pass instances, plus the
#: rho-scaled and single-find variants below.
DIFF_SEEDS = range(100)


def _window_fingerprint(window):
    """A window's identity: synchronous start + exact placements.

    Resources are shared objects between the two search paths (both read
    the same input list), so uids are comparable; starts/ends/prices must
    be bit-equal, which is the contract the indexed path promises.
    """
    return (
        window.start,
        tuple(
            (a.resource.uid, a.start, a.end, a.source.price)
            for a in window.allocations
        ),
    )


def _search_fingerprint(result):
    """Everything a SearchResult determines, in comparable form."""
    return {
        "alternatives": {
            job.name: [_window_fingerprint(w) for w in windows]
            for job, windows in result.alternatives.items()
        },
        "passes": result.passes,
        "remaining": sorted(
            (s.resource.uid, s.start, s.end, s.price) for s in result.remaining_slots
        ),
    }


def _combination_fingerprint(combination):
    return {
        job.name: _window_fingerprint(window)
        for job, window in combination.selection.items()
    }


def _both_paths(seed: int, algorithm: SlotSearchAlgorithm, *, rho: float = 1.0):
    slots = make_random_slot_list(seed, count=40)
    batch = make_random_batch(seed)
    naive = find_alternatives(slots, batch, algorithm, rho=rho, use_index=False)
    indexed = find_alternatives(slots, batch, algorithm, rho=rho, use_index=True)
    return naive, indexed


@pytest.mark.parametrize(
    "algorithm", [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP], ids=["alp", "amp"]
)
def test_indexed_search_matches_reference(algorithm):
    """The indexed multi-pass search is window-for-window identical to
    the naive-rescan reference across 100 random instances each."""
    for seed in DIFF_SEEDS:
        naive, indexed = _both_paths(seed, algorithm)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} algorithm={algorithm.value}"
        )


@pytest.mark.parametrize("rho", [0.8, 0.5])
def test_indexed_search_matches_reference_scaled_budget(rho):
    """Equivalence holds under the Section 6 budget-shrink extension."""
    for seed in range(40):
        naive, indexed = _both_paths(seed, SlotSearchAlgorithm.AMP, rho=rho)
        assert _search_fingerprint(indexed) == _search_fingerprint(naive), (
            f"divergence on seed={seed} rho={rho}"
        )


@pytest.mark.parametrize(
    "objective", [Criterion.TIME, Criterion.COST], ids=["time", "cost"]
)
def test_indexed_search_matches_phase2_selection(objective):
    """Identical alternatives must produce identical DP selections.

    Beyond asserting equal phase-1 output, run the phase-2 dynamic
    programming over both paths' alternatives and require the *chosen
    combinations* to coincide — the end-to-end guarantee the experiment
    engine relies on.
    """
    checked = 0
    for seed in DIFF_SEEDS:
        for algorithm in (SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP):
            naive, indexed = _both_paths(seed, algorithm)
            if not naive.all_jobs_covered():
                continue
            quota = time_quota(naive.alternatives)
            try:
                if objective is Criterion.TIME:
                    budget = vo_budget(naive.alternatives, quota)
                    chosen_naive = minimize_time(naive.alternatives, budget)
                    chosen_indexed = minimize_time(indexed.alternatives, budget)
                else:
                    chosen_naive = minimize_cost(naive.alternatives, quota)
                    chosen_indexed = minimize_cost(indexed.alternatives, quota)
            except Exception:
                continue
            assert _combination_fingerprint(chosen_indexed) == _combination_fingerprint(
                chosen_naive
            ), f"phase-2 divergence on seed={seed} algorithm={algorithm.value}"
            checked += 1
    assert checked >= 20, f"too few covered instances exercised ({checked})"


def test_indexed_single_find_matches_reference_finders():
    """SlotIndex.find_{alp,amp}_window equal alp/amp.find_window on the
    same list — including the exact float fields of every placement."""
    for seed in range(120):
        slots = make_random_slot_list(seed, count=40)
        rng = random.Random(seed * 31 + 7)
        request = make_random_request(rng)
        index = SlotIndex(slots)

        reference = alp.find_window(slots, request)
        fast = index.find_alp_window(request)
        assert (reference is None) == (fast is None), f"ALP feasibility, seed={seed}"
        if reference is not None:
            assert _window_fingerprint(fast) == _window_fingerprint(reference)

        reference = amp.find_window(slots, request)
        fast = index.find_amp_window(request)
        assert (reference is None) == (fast is None), f"AMP feasibility, seed={seed}"
        if reference is not None:
            assert _window_fingerprint(fast) == _window_fingerprint(reference)


def test_indexed_find_with_stale_hints_after_reinsertion():
    """Re-inserted vacant time breaks start-hint monotonicity; the clamp
    must keep hinted finds identical to a fresh reference scan.

    Models the hot-swap/outage life cycle: windows are committed (and a
    ``start_hint`` carried forward, as the multi-pass search does), then
    an *older* window is revoked and its spans re-inserted — so the
    carried hint is now strictly past vacant time that can host an
    earlier window.  Without :class:`SlotIndex`'s hint clamping the
    indexed finder would skip it and diverge from the reference scan of
    the same materialised list.
    """
    churned = 0
    for seed in range(60):
        slots = make_random_slot_list(seed, count=30)
        rng = random.Random(seed * 17 + 3)
        request = make_random_request(rng)
        index = SlotIndex(slots)
        hint = float("-inf")
        committed: list = []
        for _ in range(5):
            window = index.find_alp_window(request, start_hint=hint)
            reference = alp.find_window(index.slot_list(), request)
            assert (window is None) == (reference is None), f"seed={seed}"
            if window is None:
                break
            assert _window_fingerprint(window) == _window_fingerprint(reference), (
                f"divergence on seed={seed}"
            )
            index.commit(window)
            committed.append(window)
            hint = window.start
            if len(committed) > 1 and rng.random() < 0.6:
                revoked = committed.pop(0)
                for allocation in revoked.allocations:
                    index.insert(
                        Slot(
                            allocation.resource,
                            allocation.start,
                            allocation.end,
                            allocation.unit_price,
                        )
                    )
                churned += 1
    assert churned >= 10, f"too few revocation churns exercised ({churned})"

