"""Tests for the backward-run DP optimizer (repro.core.optimize)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Batch,
    Criterion,
    InfeasibleConstraintError,
    Job,
    OptimizationError,
    ResourceRequest,
    Slot,
    SlotList,
    TaskAllocation,
    Window,
)
from repro.core.optimize import (
    OptimizationBudget,
    brute_force,
    minimize_cost,
    minimize_time,
    optimize,
    time_quota,
    vo_budget,
)

from repro.core.scheduler import BatchScheduler, SchedulerConfig
from repro.core.search import find_alternatives
from tests.conftest import make_random_batch, make_random_slot_list, make_resource


def _window(price: float, volume: float, start: float = 0.0) -> Window:
    """A single-slot window with cost = price*volume and time = volume."""
    node = make_resource(price=price)
    slot = Slot(node, start, start + volume)
    request = ResourceRequest(node_count=1, volume=volume)
    return Window(request, [TaskAllocation(slot, start, start + volume)])


def _job(name: str) -> Job:
    return Job(ResourceRequest(1, 10.0), name=name)


def _alts(spec: dict[str, list[tuple[float, float]]]) -> dict[Job, list[Window]]:
    """Build an alternatives mapping from {job: [(price, volume), ...]}."""
    mapping: dict[Job, list[Window]] = {}
    cursor = 0.0
    for name, pairs in spec.items():
        windows = []
        for price, volume in pairs:
            windows.append(_window(price, volume, start=cursor))
            cursor += volume + 1.0
        mapping[_job(name)] = windows
    return mapping


class TestTimeQuota:
    def test_formula_2_with_floor(self):
        # Job with 3 alternatives of times 10, 11, 14: one floor per job,
        # applied to the mean: T* = floor((10 + 11 + 14) / 3) = 11.  The
        # buggy per-window flooring gave 3 + 3 + 4 = 10.
        alts = _alts({"a": [(1.0, 10.0), (1.0, 11.0), (1.0, 14.0)]})
        assert time_quota(alts) == pytest.approx(11.0)

    def test_floor_applies_once_per_job(self):
        # Regression for the per-window floor bug: three windows of
        # length 1 must give quota floor(3/3) = 1, not 3*floor(1/3) = 0
        # (a zero quota made every such iteration infeasible).
        alts = _alts({"a": [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]})
        assert time_quota(alts) == pytest.approx(1.0)

    def test_sums_over_jobs(self):
        alts = _alts({"a": [(1.0, 10.0)], "b": [(1.0, 20.0)]})
        # Single alternative: floor(t/1) = t.
        assert time_quota(alts) == pytest.approx(30.0)

    def test_rejects_uncovered_job(self):
        alts = _alts({"a": [(1.0, 10.0)]})
        alts[_job("empty")] = []
        with pytest.raises(OptimizationError):
            time_quota(alts)


class TestVoBudget:
    def test_formula_3_maximizes_income(self):
        # Two jobs, quota 30.  Feasible combos (times sum <= 30):
        # (10,20): costs 10+60=70 ; (10,10): 10+40=50 ; (20,10): 30+40=70.
        # Max income = 70.
        alts = _alts(
            {
                "a": [(1.0, 10.0), (1.5, 20.0)],
                "b": [(3.0, 20.0), (4.0, 10.0)],
            }
        )
        budget = vo_budget(alts, quota=30.0, resolution=30)
        assert budget == pytest.approx(70.0)

    def test_default_quota_from_formula_2(self):
        alts = _alts({"a": [(2.0, 10.0)]})
        # T* = 10, single combo cost 20.
        assert vo_budget(alts) == pytest.approx(20.0)

    def test_infeasible_quota_raises(self):
        alts = _alts({"a": [(1.0, 50.0)]})
        with pytest.raises(InfeasibleConstraintError):
            vo_budget(alts, quota=10.0, resolution=100)


class TestOptimize:
    def test_minimize_time_under_budget(self):
        # Fast alternative is pricey; budget decides which is picked.
        alts = _alts({"a": [(10.0, 10.0), (1.0, 30.0)]})  # costs 100, 30
        rich = minimize_time(alts, budget_limit=100.0, resolution=100)
        assert rich.total_time == pytest.approx(10.0)
        poor = minimize_time(alts, budget_limit=50.0, resolution=100)
        assert poor.total_time == pytest.approx(30.0)

    def test_minimize_cost_under_quota(self):
        alts = _alts({"a": [(10.0, 10.0), (1.0, 30.0)]})
        tight = minimize_cost(alts, quota=15.0, resolution=100)
        assert tight.total_cost == pytest.approx(100.0)
        loose = minimize_cost(alts, quota=30.0, resolution=100)
        assert loose.total_cost == pytest.approx(30.0)

    def test_combination_exposes_means(self):
        alts = _alts({"a": [(1.0, 10.0)], "b": [(1.0, 30.0)]})
        combo = minimize_time(alts, budget_limit=100.0, resolution=100)
        assert combo.mean_job_time == pytest.approx(20.0)
        assert combo.mean_job_cost == pytest.approx(20.0)

    def test_two_job_interaction(self):
        # Budget 70 forces exactly one job to take its cheap slow option.
        alts = _alts(
            {
                "a": [(5.0, 10.0), (1.0, 40.0)],  # costs 50, 40
                "b": [(3.0, 10.0), (1.0, 25.0)],  # costs 30, 25
            }
        )
        combo = minimize_time(alts, budget_limit=75.0, resolution=75)
        # (50+25)=75 gives T=35; (40+30)=70 gives T=50; pick T=35.
        assert combo.total_time == pytest.approx(35.0)
        assert combo.total_cost == pytest.approx(75.0)

    def test_infeasible_raises_with_diagnostics(self):
        alts = _alts({"a": [(10.0, 10.0)]})
        with pytest.raises(InfeasibleConstraintError) as excinfo:
            minimize_time(alts, budget_limit=50.0, resolution=100)
        assert excinfo.value.limit == 50.0
        assert excinfo.value.best == pytest.approx(100.0)

    def test_empty_alternatives_mapping(self):
        combo = optimize({}, Criterion.TIME, 100.0)
        assert combo.selection == {}
        assert combo.total_time == 0.0

    def test_uncovered_job_raises(self):
        alts = {_job("empty"): []}
        with pytest.raises(OptimizationError):
            optimize(alts, Criterion.TIME, 100.0)

    def test_selection_windows_come_from_alternatives(self):
        alts = _alts({"a": [(1.0, 10.0), (2.0, 20.0)], "b": [(1.0, 5.0)]})
        combo = minimize_time(alts, budget_limit=100.0, resolution=100)
        for job, window in combo.selection.items():
            assert window in alts[job]


class TestBruteForce:
    def test_matches_known_optimum(self):
        alts = _alts({"a": [(10.0, 10.0), (1.0, 30.0)]})
        combo = brute_force(alts, Criterion.TIME, 50.0)
        assert combo is not None
        assert combo.total_time == pytest.approx(30.0)

    def test_returns_none_when_infeasible(self):
        alts = _alts({"a": [(10.0, 10.0)]})
        assert brute_force(alts, Criterion.TIME, 50.0) is None

    def test_space_cap(self):
        alts = _alts({chr(97 + i): [(1.0, 10.0)] * 9 for i in range(8)})
        with pytest.raises(OptimizationError):
            brute_force(alts, Criterion.TIME, 1e9, max_combinations=1000)


# --------------------------------------------------------------------- #
# DP vs brute force (exact on integer instances)                        #
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_dp_matches_brute_force_minimize_time(seed):
    rng = random.Random(seed)
    spec = {
        f"job{i}": [
            (float(rng.randint(1, 6)), float(rng.randint(5, 40)))
            for _ in range(rng.randint(1, 4))
        ]
        for i in range(rng.randint(1, 4))
    }
    alts = _alts(spec)
    min_cost_possible = sum(
        min(window.cost for window in windows) for windows in alts.values()
    )
    limit = float(int(min_cost_possible) + rng.randint(0, 200))
    reference = brute_force(alts, Criterion.TIME, limit)
    # Integer costs and an integer limit: resolution == limit is exact.
    resolution = max(1, int(limit))
    if reference is None:
        with pytest.raises(InfeasibleConstraintError):
            minimize_time(alts, limit, resolution=resolution)
        return
    combo = minimize_time(alts, limit, resolution=resolution)
    assert combo.total_time == pytest.approx(reference.total_time)
    assert combo.total_cost <= limit + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_dp_matches_brute_force_minimize_cost(seed):
    rng = random.Random(seed)
    spec = {
        f"job{i}": [
            (float(rng.randint(1, 6)), float(rng.randint(5, 40)))
            for _ in range(rng.randint(1, 4))
        ]
        for i in range(rng.randint(1, 4))
    }
    alts = _alts(spec)
    min_time_possible = sum(
        min(window.length for window in windows) for windows in alts.values()
    )
    limit = float(int(min_time_possible) + rng.randint(0, 100))
    reference = brute_force(alts, Criterion.COST, limit)
    resolution = max(1, int(limit))
    if reference is None:
        with pytest.raises(InfeasibleConstraintError):
            minimize_cost(alts, limit, resolution=resolution)
        return
    combo = minimize_cost(alts, limit, resolution=resolution)
    assert combo.total_cost == pytest.approx(reference.total_cost)
    assert combo.total_time <= limit + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_vo_budget_is_max_feasible_income(seed):
    """B* from eq. (3) equals the brute-force maximum income under T*."""
    rng = random.Random(seed)
    spec = {
        f"job{i}": [
            (float(rng.randint(1, 6)), float(rng.randint(5, 40)))
            for _ in range(rng.randint(1, 3))
        ]
        for i in range(rng.randint(1, 3))
    }
    alts = _alts(spec)
    quota = time_quota(alts) + rng.randint(0, 60)
    import itertools as it

    lists = list(alts.values())
    feasible_incomes = [
        sum(w.cost for w in combo)
        for combo in it.product(*lists)
        if sum(w.length for w in combo) <= quota + 1e-9
    ]
    resolution = max(1, int(quota))
    if not feasible_incomes:
        with pytest.raises(InfeasibleConstraintError):
            vo_budget(alts, quota, resolution=resolution)
        return
    assert vo_budget(alts, quota, resolution=resolution) == pytest.approx(
        max(feasible_incomes)
    )


def test_minimize_time_under_vo_budget_always_feasible():
    """The eq. (3) budget is attained by some combination, so the Fig. 4
    pipeline (min time under B*) can never be infeasible."""
    rng = random.Random(7)
    for _ in range(20):
        spec = {
            f"job{i}": [
                (float(rng.randint(1, 6)), float(rng.randint(5, 40)))
                for _ in range(rng.randint(1, 4))
            ]
            for i in range(rng.randint(1, 4))
        }
        alts = _alts(spec)
        quota = time_quota(alts)
        try:
            budget = vo_budget(alts, quota, resolution=max(1, int(quota)))
        except InfeasibleConstraintError:
            continue  # quota itself infeasible: iteration dropped upstream
        combo = minimize_time(alts, budget, resolution=max(1, int(budget)))
        assert combo.total_cost <= budget + 1e-9


def _covered_alternatives(seed: int) -> dict[Job, list[Window]]:
    """Phase-1 alternatives for a seeded instance (covered jobs only)."""
    result = find_alternatives(make_random_slot_list(seed), make_random_batch(seed))
    return {job: windows for job, windows in result.alternatives.items() if windows}


def _combination_key(combination):
    """Value identity of a phase-2 outcome (window object ids aside)."""
    return (
        combination.total_cost,
        combination.total_time,
        sorted(
            (job.name, window.start, window.cost)
            for job, window in combination.selection.items()
        ),
    )


class TestColdPhaseTwo:
    """Phase 2 keeps no state between runs: every call solves afresh."""

    def test_budget_stepdown_equals_run_at_fitted_resolution(self):
        covered = _covered_alternatives(4)
        quota = time_quota(covered)
        total = sum(len(windows) for windows in covered.values())
        # 101 cells per alternative fit 100 bins: 400 halves to 100.
        budget = OptimizationBudget(max_cells=total * 101, min_resolution=50)
        stepped = optimize(covered, Criterion.COST, quota, resolution=400, budget=budget)
        assert stepped.degraded
        direct = optimize(covered, Criterion.COST, quota, resolution=100)
        assert not direct.degraded
        assert _combination_key(stepped) == _combination_key(direct)

    def test_infeasible_instance_raises_on_every_call(self):
        resource = make_resource("solo", performance=1.0, price=1.0)
        job = Job(ResourceRequest(node_count=1, volume=10.0), name="j0")
        windows = find_alternatives(
            # One slot, one job, one window of length 10.
            SlotList([Slot(resource, 0.0, 10.0)]),
            Batch([job]),
        ).alternatives[job]
        for _ in range(2):
            with pytest.raises(InfeasibleConstraintError) as raised:
                optimize({job: windows}, Criterion.COST, 1.0)
            assert raised.value.limit == 1.0
            assert raised.value.best == 10.0

    @pytest.mark.parametrize("objective", [Criterion.TIME, Criterion.COST])
    def test_repeated_cycles_match_a_fresh_scheduler(self, objective):
        scheduler = BatchScheduler(SchedulerConfig(objective=objective))
        for seed in range(8):
            slots = make_random_slot_list(seed)
            batch = make_random_batch(seed)
            fresh = BatchScheduler(SchedulerConfig(objective=objective)).schedule(
                slots, batch
            )
            # Two cycles on the same instance: the second must not see
            # anything the first left behind.
            for _ in range(2):
                outcome = scheduler.schedule(slots, batch)
                assert outcome.quota == fresh.quota
                assert outcome.budget == fresh.budget
                assert _combination_key(outcome.combination) == _combination_key(
                    fresh.combination
                )
