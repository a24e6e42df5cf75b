"""Exactness of windows built on read.

The indexed finders accept windows through
:meth:`Window.from_placements`: the window keeps primitive placements
and builds its ``TaskAllocation``/``Slot`` objects only when
``allocations`` is first read.  ``start``, ``end`` and ``cost`` of an
unbuilt window are computed from those primitives, so they must be
bit-identical — compared here through ``float.hex`` — to the values of
the eager window the ``use_index=False`` reference finder builds, and
to the values the built allocations give.  Equality, hashing, pickling
and deep copies must not care whether a window was built yet.
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ResourceRequest,
    SlotIndex,
    SlotSearchAlgorithm,
    Window,
    find_alternatives,
)
from repro.core import alp, amp
from repro.core import window as window_module

from tests.conftest import make_random_batch, make_random_slot_list

_request_strategy = st.builds(
    ResourceRequest,
    node_count=st.integers(min_value=1, max_value=5),
    volume=st.floats(min_value=10.0, max_value=200.0),
    min_performance=st.floats(min_value=1.0, max_value=2.0),
    max_price=st.floats(min_value=1.0, max_value=8.0),
)

_rho_strategy = st.one_of(st.just(1.0), st.floats(min_value=0.3, max_value=0.95))


def _aggregates(window: Window) -> tuple[str, str, str]:
    return (window.start.hex(), window.end.hex(), window.cost.hex())


def _check_lazy_against_eager(lazy: Window | None, eager: Window | None) -> None:
    assert (lazy is None) == (eager is None)
    if lazy is None or eager is None:
        return
    # Read before anything builds the allocations.
    before = _aggregates(lazy)
    assert before == _aggregates(eager)
    # The same values from a window over the built allocations.
    rebuilt = Window(lazy.request, list(lazy.allocations))
    assert _aggregates(rebuilt) == before
    assert _aggregates(lazy) == before
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)
    assert lazy.placements() == eager.placements()


def _find_alp(seed: int, request: ResourceRequest) -> tuple[Window | None, Window | None]:
    slots = make_random_slot_list(seed)
    return SlotIndex(slots).find_alp_window(request), alp.find_window(slots, request)


def _find_amp(
    seed: int, request: ResourceRequest, rho: float
) -> tuple[Window | None, Window | None]:
    slots = make_random_slot_list(seed)
    budget = request.scaled_budget(rho)
    found = SlotIndex(slots).find_amp_window_at(request, budget=budget)
    lazy = None if found is None else found[0]
    return lazy, amp.find_window(slots, request, budget=budget)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000), request=_request_strategy)
def test_alp_window_built_on_read_is_exact(seed, request):
    _check_lazy_against_eager(*_find_alp(seed, request))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    request=_request_strategy,
    rho=_rho_strategy,
)
def test_amp_window_built_on_read_is_exact(seed, request, rho):
    _check_lazy_against_eager(*_find_amp(seed, request, rho))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    algorithm=st.sampled_from(list(SlotSearchAlgorithm)),
    rho=_rho_strategy,
)
def test_multi_pass_windows_match_reference_before_building(seed, algorithm, rho):
    """Every alternative of a whole indexed search, read unbuilt."""
    slots = make_random_slot_list(seed)
    batch = make_random_batch(seed)
    indexed = find_alternatives(slots, batch, algorithm, rho=rho)
    reference = find_alternatives(slots, batch, algorithm, rho=rho, use_index=False)
    for job in batch:
        lazy_windows = indexed.alternatives[job]
        eager_windows = reference.alternatives[job]
        assert [_aggregates(w) for w in lazy_windows] == [
            _aggregates(w) for w in eager_windows
        ]
        assert lazy_windows == eager_windows


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    request=_request_strategy,
    rho=_rho_strategy,
)
def test_round_trips_of_unbuilt_windows(seed, request, rho):
    """Pickle and deepcopy keep an unbuilt window equal and index-free."""
    for lazy, eager in (_find_alp(seed, request), _find_amp(seed, request, rho)):
        if lazy is None or eager is None:
            continue
        data = pickle.dumps(lazy)
        assert b"SlotIndex" not in data
        assert b"ColumnStore" not in data
        for clone in (pickle.loads(data), copy.deepcopy(lazy)):
            assert _aggregates(clone) == _aggregates(eager)
            assert clone == eager
            assert hash(clone) == hash(eager)


def test_search_result_keeps_no_index():
    """An unread indexed search result holds the live rows, not the index."""
    slots = make_random_slot_list(11)
    batch = make_random_batch(11)
    indexed = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP)
    reference = find_alternatives(slots, batch, SlotSearchAlgorithm.AMP, use_index=False)
    data = pickle.dumps(indexed)
    for name in (b"SlotIndex", b"ColumnStore", b"_Memo"):
        assert name not in data
    assert pickle.loads(data).remaining_slots == reference.remaining_slots
    assert indexed == reference


def test_aggregates_and_commit_do_not_build(monkeypatch):
    """start/end/cost and SlotIndex.commit leave the window unbuilt."""
    built: list[object] = []
    real = window_module.carved_slot

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(window_module, "carved_slot", counting)
    slots = make_random_slot_list(7)
    index = SlotIndex(slots)
    request = ResourceRequest(node_count=3, volume=40.0, max_price=6.0)
    window = index.find_alp_window(request)
    assert window is not None
    _ = (window.start, window.end, window.length, window.cost, window.slots_number)
    index.commit(window)
    assert built == []
    assert len(window.allocations) == 3
    assert len(built) == 3
    assert window.allocations is window.allocations
    assert len(built) == 3
