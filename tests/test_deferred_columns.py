"""The slot index's deferred column store.

:meth:`SlotIndex.commit` only checks the live-row map and journals the
mutation; the columns replay the journal when something reads them, and
a journal trim that would drop unapplied ops drops the columns instead,
so they are rebuilt from the live map on the next read.  These tests
drive an index through more than ``_JOURNAL_TRIM`` commits with no read
in between (and, separately, through a long journal tail the columns
replay in one go), then check the index against a plain
:class:`SlotList` carved with :meth:`SlotList.subtract` on the same
spans: the columns once brought current, the materialised list and
``len()`` (read from the live map), fresh-key ALP/AMP searches against
the reference finders, :meth:`SlotIndex.insert`'s overlap error, and
:meth:`SlotIndex.subtract`.  A third scenario interleaves commits
with re-inserts (the start-hint clamp) before the same checks.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    ResourceRequest,
    Slot,
    SlotIndex,
    SlotList,
    SlotListError,
    TaskAllocation,
    Window,
)
from repro.core import alp, amp
from repro.core.index import _JOURNAL_TRIM

from tests.conftest import make_random_slot_list

_SEEDS = (3, 17, 101)

_ALP_REQUEST = ResourceRequest(node_count=3, volume=20.0, max_price=5.0)
_AMP_REQUEST = ResourceRequest(node_count=2, volume=15.0, max_price=4.0)


def _rows(slots) -> list[tuple[int, float, float, float]]:
    return [(s.resource.uid, s.start, s.end, s.price) for s in slots]


def _carve(index: SlotIndex, reference: SlotList, rng: random.Random) -> Window:
    """Commit one random single-node window to both containers.

    The window is built from the reference list, so the index is not
    read.  Spans sometimes keep the slot's start or end, so commits
    with and without left/right remainders (and the in-place carve of
    the replay) all occur.
    """
    slot = reference[rng.randrange(len(reference))]
    start = slot.start if rng.random() < 0.25 else rng.uniform(slot.start, slot.end)
    end = slot.end if rng.random() < 0.25 else rng.uniform(start, slot.end)
    if not slot.start <= start < end <= slot.end:
        start, end = slot.start, slot.end
    window = Window(
        ResourceRequest(node_count=1, volume=end - start),
        [TaskAllocation(slot, start, end)],
    )
    index.commit(window)
    reference.subtract(slot.resource, start, end)
    return window


def _driven(seed: int) -> tuple[SlotIndex, SlotList]:
    """An index past a journal trim with no read since construction."""
    rng = random.Random(seed)
    slots = make_random_slot_list(seed, count=60)
    index = SlotIndex(slots)
    reference = slots.copy()
    for _ in range(_JOURNAL_TRIM + 80):
        _carve(index, reference, rng)
    # The scenario must exercise the trim dropping the columns.
    assert index._store is None
    return index, reference


def _replayed(seed: int) -> tuple[SlotIndex, SlotList]:
    """An index whose columns lag a long journal tail, short of a trim."""
    rng = random.Random(seed)
    slots = make_random_slot_list(seed, count=60)
    index = SlotIndex(slots)
    reference = slots.copy()
    for _ in range(_JOURNAL_TRIM - 40):
        _carve(index, reference, rng)
    # The columns are kept and replay the whole tail on the first read.
    assert index._store is not None
    return index, reference


def _interleaved(seed: int) -> tuple[SlotIndex, SlotList, float]:
    """Commit, re-insert a committed window, commit again past a trim.

    Returns the start hint of the re-inserted window's search, so the
    caller can check the clamp against the reference scan.
    """
    rng = random.Random(seed)
    slots = make_random_slot_list(seed, count=60)
    index = SlotIndex(slots)
    reference = slots.copy()
    first = index.find_alp_window(_ALP_REQUEST)
    assert first is not None
    index.commit(first)
    for resource, start, end in first.occupied_spans():
        reference.subtract(resource, start, end)
    for _ in range(_JOURNAL_TRIM // 2):
        _carve(index, reference, rng)
    for allocation in first.allocations:
        slot = Slot(allocation.resource, allocation.start, allocation.end, allocation.unit_price)
        index.insert(slot)
        reference.insert(slot)
    for _ in range(_JOURNAL_TRIM // 2 + 80):
        _carve(index, reference, rng)
    assert index._store is None
    return index, reference, first.start


_SCENARIOS = {
    "commits": lambda seed: (*_driven(seed), None),
    "replay": lambda seed: (*_replayed(seed), None),
    "interleaved": _interleaved,
}


@pytest.fixture(
    params=[(name, seed) for name in _SCENARIOS for seed in _SEEDS],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def scenario(request):
    name, seed = request.param
    return _SCENARIOS[name](seed)


def test_slot_list_and_len(scenario):
    index, reference, _hint = scenario
    assert len(index) == len(reference)
    assert _rows(index.slot_list()) == _rows(reference)
    assert _rows(index) == _rows(reference)
    assert len(index) == len(reference)


def test_columns_match_reference(scenario):
    """The replayed (or rebuilt) columns hold the reference rows, in order."""
    index, reference, _hint = scenario
    columns = index._columns()
    assert [(row[2], row[0], row[1], row[4]) for row in columns.rows()] == _rows(reference)


def test_fresh_key_searches_match_reference(scenario):
    index, reference, hint = scenario
    expected_alp = alp.find_window(reference, _ALP_REQUEST)
    found_alp = index.find_alp_window(_ALP_REQUEST)
    assert found_alp == expected_alp
    expected_amp = amp.find_window(reference, _AMP_REQUEST)
    found = index.find_amp_window_at(_AMP_REQUEST)
    assert (found is None) == (expected_amp is None)
    if found is not None:
        assert found[0] == expected_amp
        assert found[0].cost.hex() == expected_amp.cost.hex()
    if hint is not None:
        # The re-inserted window's own request with its stale hint: the
        # insert clamp must still find the earliest window.
        assert index.find_alp_window(_ALP_REQUEST, start_hint=hint) == expected_alp


def test_insert_overlap_raises(scenario):
    index, reference, _hint = scenario
    victim = reference[len(reference) // 2]
    middle = (victim.start + victim.end) / 2
    overlapping = Slot(victim.resource, middle, victim.end + 5.0, victim.price)
    with pytest.raises(SlotListError):
        index.insert(overlapping)
    assert _rows(index.slot_list()) == _rows(reference)
    # A touching slot inserts cleanly and lands where the list puts it.
    last_end = max(s.end for s in reference if s.resource.uid == victim.resource.uid)
    touching = Slot(victim.resource, last_end, last_end + 10.0, victim.price)
    index.insert(touching)
    reference.insert(touching)
    assert _rows(index.slot_list()) == _rows(reference)


def test_subtract_matches_slot_list(scenario):
    index, reference, _hint = scenario
    rng = random.Random(len(reference))
    for _ in range(5):
        victim = reference[rng.randrange(len(reference))]
        start = rng.uniform(victim.start, victim.end)
        end = rng.uniform(start, victim.end)
        if not victim.start <= start < end <= victim.end:
            continue
        removed = index.subtract(victim.resource, start, end)
        assert removed == victim
        reference.subtract(victim.resource, start, end)
        assert _rows(index.slot_list()) == _rows(reference)
        assert len(index) == len(reference)
