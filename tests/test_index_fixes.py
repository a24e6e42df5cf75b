"""Regression tests for the index-mutation edge cases of this PR.

Covers the three satellite fixes:

* zero-width ``subtract`` spans are rejected by :class:`SlotList` and
  :class:`SlotIndex` alike (previously ``end == start`` slipped past an
  ``end < start`` guard and fragmented the containing slot);
* the ``insert`` same-resource overlap check bisects to the insertion
  neighbourhood instead of scanning the whole row prefix (behavioral
  equivalence is pinned here on the crafted cases; the revocation-churn
  oracle covers it at scale);
* ``hint_prunes`` reports *both* start-hint prune tiers — the old
  ``hint_skippable`` count only covered tier 1 (``end <= start_hint``),
  under-reporting the finders' actual skip work — and the instrumented
  search paths carry both numbers in their decision records.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Batch,
    Job,
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotListError,
)
from repro.core.search import SlotSearchAlgorithm, find_alternatives
from repro.obs.decisions import DecisionLog
from repro.obs.telemetry import configure, get_telemetry, install
from tests.conftest import make_resource, make_uniform_slots


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


class TestZeroWidthSubtract:
    @pytest.mark.parametrize("container", [SlotList, SlotIndex])
    def test_zero_width_span_rejected(self, container):
        resource = make_resource("n0")
        slots = container([Slot(resource, 0.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            slots.subtract(resource, 40.0, 40.0)
        # The containing slot must be untouched — the old behaviour
        # fragmented [0, 100) into [0, 40) + [40, 100).
        assert [(s.start, s.end) for s in slots] == [(0.0, 100.0)]

    @pytest.mark.parametrize("container", [SlotList, SlotIndex])
    def test_negative_span_still_rejected(self, container):
        resource = make_resource("n0")
        slots = container([Slot(resource, 0.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            slots.subtract(resource, 50.0, 40.0)

    def test_zero_width_at_slot_boundary_rejected(self):
        # end == start == candidate.start was the worst old case: it
        # deleted the slot and re-inserted it as one zero-width row plus
        # the original span.
        resource = make_resource("n0")
        index = SlotIndex([Slot(resource, 10.0, 100.0)])
        with pytest.raises(SlotListError, match="empty or negative span"):
            index.subtract(resource, 10.0, 10.0)
        assert len(index) == 1


def slot_list_of(index: SlotIndex) -> list[tuple[float, float]]:
    return [(s.start, s.end) for s in index.slot_list()]


class TestInsertBisection:
    def test_overlap_with_row_starting_before_span(self):
        resource = make_resource("n0")
        index = SlotIndex(
            [Slot(resource, 0.0, 50.0)]
            + list(make_uniform_slots(3, start=5.0, length=1.0))
        )
        with pytest.raises(SlotListError, match="overlaps"):
            index.insert(Slot(resource, 20.0, 30.0))

    def test_touching_spans_insert_cleanly(self):
        resource = make_resource("n0")
        index = SlotIndex([Slot(resource, 0.0, 10.0), Slot(resource, 20.0, 30.0)])
        index.insert(Slot(resource, 10.0, 20.0))
        assert slot_list_of(index) == [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0)]

    def test_insert_brand_new_resource_among_many(self):
        index = SlotIndex(make_uniform_slots(10, start=0.0, length=100.0))
        fresh = make_resource("late")
        index.insert(Slot(fresh, 5.0, 25.0))
        assert (5.0, 25.0) in slot_list_of(index)


def pinned_environment() -> tuple[SlotIndex, ResourceRequest]:
    """Hand-built instance with known prune counts at hint 25.

    Rows (perf, price, span): n1 (1, 1, [0,10)), n2 (1, 1, [0,30)),
    n3 (2, 5, [0,35)), n4 (1, 1, [20,100)), n5 (0.5, 1, [40,60)).
    Request: 2 nodes, volume 30, min_performance 1, max_price 2.
    """
    slots = [
        Slot(make_resource("n1", performance=1.0, price=1.0), 0.0, 10.0),
        Slot(make_resource("n2", performance=1.0, price=1.0), 0.0, 30.0),
        Slot(make_resource("n3", performance=2.0, price=5.0), 0.0, 35.0),
        Slot(make_resource("n4", performance=1.0, price=1.0), 20.0, 100.0),
        Slot(make_resource("n5", performance=0.5, price=1.0), 40.0, 60.0),
    ]
    request = ResourceRequest(
        node_count=2, volume=30.0, min_performance=1.0, max_price=2.0
    )
    return SlotIndex(slots), request


class TestHintPrunes:
    def test_pinned_two_tier_counts(self):
        index, request = pinned_environment()
        # Tier 1: only n1 ends at or before the hint.  Tier 2 (with the
        # ALP price cap): statics are {n2, n4} — n1 is too short for
        # runtime 30, n3 too expensive, n5 too slow — and of those only
        # n2 (end 30) cannot fit 30 time units after hint 25.
        assert index.hint_prunes(request, start_hint=25.0) == (1, 1)
        # Without the price cap (AMP) n3 joins the statics: runtime 15,
        # end 35, and 35 - 25 = 10 < 15 adds a second tier-2 prune.
        assert index.hint_prunes(request, start_hint=25.0, check_price=False) == (
            1,
            2,
        )

    def test_unset_hint_reports_zero(self):
        index, request = pinned_environment()
        assert index.hint_prunes(request, start_hint=float("-inf")) == (0, 0)

    def test_tier1_matches_hint_skippable(self):
        index, request = pinned_environment()
        tier1, _ = index.hint_prunes(request, start_hint=25.0)
        assert tier1 == index.hint_skippable(25.0) == 1

    def test_tiers_never_double_count(self):
        # A row pruned by tier 1 must not appear in tier 2: tier 2 only
        # counts rows with end > start_hint.
        index, request = pinned_environment()
        tier1, tier2 = index.hint_prunes(request, start_hint=35.0)
        assert tier1 == 3  # n1, n2, n3 all end at or before 35
        assert tier2 == 0


class TestDecisionRecordFields:
    def test_accepted_records_carry_both_tiers(self):
        configure(decisions=DecisionLog())
        telemetry = get_telemetry()
        slots = SlotList(
            [
                Slot(make_resource(f"d{i}", performance=1.0, price=1.0), 0.0, 400.0)
                for i in range(4)
            ]
        )
        batch = Batch(
            [
                Job(
                    ResourceRequest(
                        node_count=2,
                        volume=100.0,
                        min_performance=1.0,
                        max_price=2.0,
                    ),
                    name="j0",
                )
            ]
        )
        find_alternatives(slots, batch, SlotSearchAlgorithm.ALP, use_index=True)
        records = [
            record
            for record in telemetry.decisions.records
            if record["op"] in ("search.alternative_accepted", "search.no_window")
        ]
        assert records, "instrumented search emitted no decision records"
        for record in records:
            assert "hint_skips" in record
            assert "hint_runtime_skips" in record
