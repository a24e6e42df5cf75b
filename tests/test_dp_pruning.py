"""Exactness of the dominance pruning in the phase-2 backward run.

``_backward_run`` drops every alternative that an *earlier* alternative
of the same job weakly dominates before it fills the DP table.  The
claim is that this changes nothing observable: the chosen indices and
the extremal value are identical to the full-table run, tie-breaks
included.  The full-table run is kept here, and only here, as the
reference the pruned run is compared against.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Criterion,
    InfeasibleConstraintError,
    Job,
    ResourceRequest,
    Slot,
    TaskAllocation,
    Window,
)
from repro.core.optimize import (
    _backward_run,
    _undominated,
    brute_force,
    minimize_cost,
    minimize_time,
    optimize,
    time_quota,
    vo_budget,
)
from repro.core.search import find_alternatives
from repro.obs.telemetry import configure, get_telemetry, install
from tests.conftest import make_random_batch, make_random_slot_list, make_resource

optimize_module = importlib.import_module("repro.core.optimize")


def full_table_backward_run(g_values, z_weights, capacity, *, maximize):
    """The backward run without pruning: one table row per alternative."""
    bad = math.inf if not maximize else -math.inf
    spread = capacity + 1
    f_next = np.zeros(spread)
    choices = []
    for job_g, job_z in zip(reversed(g_values), reversed(z_weights)):
        table = np.full((len(job_g), spread), bad)
        for alt, (g, z) in enumerate(zip(job_g, job_z)):
            if z > capacity:
                continue
            row = table[alt]
            row[z:] = g + f_next[: spread - z]
        if maximize:
            choice = np.argmax(table, axis=0)
            f_next = np.max(table, axis=0)
        else:
            choice = np.argmin(table, axis=0)
            f_next = np.min(table, axis=0)
        choices.append(choice)
    choices.reverse()
    if not math.isfinite(f_next[capacity]):
        return None
    selection = []
    remaining = capacity
    for job_index, choice in enumerate(choices):
        alt = int(choice[remaining])
        selection.append(alt)
        remaining -= z_weights[job_index][alt]
    return selection, float(f_next[capacity])


#: Few distinct values so duplicates are common; the ``1e16`` entries make
#: sums round, so distinct ``g`` values can tie once added to ``f``.
G_POOL = [-0.7, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 3.0, 1e16, 1e16 + 2.0]


@st.composite
def instances(draw):
    capacity = draw(st.integers(0, 10))
    jobs = draw(st.integers(1, 4))
    g_values, z_weights = [], []
    for _ in range(jobs):
        rows = draw(st.integers(1, 8))
        g_values.append(draw(st.lists(st.sampled_from(G_POOL), min_size=rows, max_size=rows)))
        z_weights.append(
            draw(st.lists(st.integers(0, capacity + 2), min_size=rows, max_size=rows))
        )
    if draw(st.booleans()):
        # One job with no row that fits the capacity at all.
        job = draw(st.integers(0, jobs - 1))
        z_weights[job] = [capacity + 1 + extra for extra in range(len(z_weights[job]))]
    return g_values, z_weights, capacity


class TestExactness:
    @settings(max_examples=400, deadline=None)
    @given(instances())
    def test_same_selection_and_value_as_full_table(self, instance):
        g_values, z_weights, capacity = instance
        for maximize in (False, True):
            assert _backward_run(
                g_values, z_weights, capacity, maximize=maximize
            ) == full_table_backward_run(g_values, z_weights, capacity, maximize=maximize)

    def test_later_row_that_ties_after_rounding_does_not_win(self):
        # Job 0's second row has the strictly smaller g, but 1e16 + 1.0
        # and 1e16 + 0.5 both round to 1e16: the rows tie and argmin keeps
        # the first.  Only an earlier row may prune, so row 0 survives.
        g_values = [[1.0, 0.5], [1e16]]
        z_weights = [[0, 0], [0]]
        assert 1e16 + 1.0 == 1e16 + 0.5
        assert _undominated(g_values[0], z_weights[0], 0, maximize=False) == [0, 1]
        expected = ([0, 0], 1e16)
        assert full_table_backward_run(g_values, z_weights, 0, maximize=False) == expected
        assert _backward_run(g_values, z_weights, 0, maximize=False) == expected

    @pytest.mark.parametrize("maximize", [False, True])
    def test_dominated_and_oversized_rows_are_dropped(self, maximize):
        sign = -1.0 if maximize else 1.0
        g = [sign * value for value in (5.0, 5.0, 7.0, 4.0, 4.0, 1.0)]
        z = [3, 3, 4, 3, 6, 11]
        # Row 1 duplicates row 0; row 2 is heavier and worse than row 0;
        # row 3 improves g at the same weight; row 4 is heavier than row 3
        # with equal g; row 5 exceeds the capacity.
        assert _undominated(g, z, 10, maximize=maximize) == [0, 3]

    def test_no_feasible_row_is_infeasible(self):
        assert _backward_run([[1.0], [2.0, 3.0]], [[0], [4, 5]], 3, maximize=False) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_production_instances_match_full_table(self, seed, monkeypatch):
        """Every DP posed by ``vo_budget`` / ``minimize_*`` on seeded
        phase-1 output gives the full-table answer."""
        posed = []

        def checked(g_values, z_weights, capacity, *, maximize):
            solved = _backward_run(g_values, z_weights, capacity, maximize=maximize)
            reference = full_table_backward_run(
                g_values, z_weights, capacity, maximize=maximize
            )
            assert solved == reference
            posed.append(sum(map(len, z_weights)))
            return solved

        monkeypatch.setattr(optimize_module, "_backward_run", checked)
        result = find_alternatives(make_random_slot_list(seed, count=120), make_random_batch(seed))
        covered = {job: windows for job, windows in result.alternatives.items() if windows}
        if not covered:
            pytest.skip("seed covers no job")
        quota = time_quota(covered)
        for solve in (
            lambda: minimize_time(covered, vo_budget(covered, quota)),
            lambda: minimize_cost(covered, quota),
        ):
            try:
                solve()
            except InfeasibleConstraintError:
                pass
        assert posed


def _window(price: float, volume: float, start: float) -> Window:
    node = make_resource(price=price)
    request = ResourceRequest(node_count=1, volume=volume)
    return Window(request, [TaskAllocation(Slot(node, start, start + volume), start, start + volume)])


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _restore_telemetry(self):
        previous = get_telemetry()
        yield
        install(previous)

    def test_table_cells_count_surviving_rows_only(self):
        # Minimizing cost under a time limit: g = cost, z = time.
        rows = {
            "a": [(1.0, 10.0), (2.0, 10.0), (1.0, 12.0), (0.5, 14.0)],
            "b": [(3.0, 5.0), (3.0, 6.0), (1.0, 8.0), (4.0, 9.0)],
        }
        alternatives = {}
        cursor = 0.0
        for name, pairs in rows.items():
            windows = []
            for price, volume in pairs:
                windows.append(_window(price, volume, cursor))
                cursor += volume + 1.0
            alternatives[Job(ResourceRequest(1, 10.0), name=name)] = windows
        limit = 20.0
        # a: rows 1 (same time, dearer) and 2 (longer, dearer) are
        # dominated by row 0.  b: row 1 is dominated by row 0, row 3 by
        # row 2.  Four of eight rows survive.
        registry = configure().registry
        chosen = optimize(alternatives, Criterion.COST, limit, resolution=20)
        assert registry.counter("dp.runs", objective="cost").value == 1
        assert registry.counter("dp.rows_dominated", objective="cost").value == 4
        assert registry.counter("dp.table_cells", objective="cost").value == 4 * 21
        expected = brute_force(alternatives, Criterion.COST, limit)
        assert chosen.selection == expected.selection
        assert chosen.total_cost == expected.total_cost
