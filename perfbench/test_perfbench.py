"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core import search as core_search  # noqa: E402
from repro.core.search import SearchResult, SlotSearchAlgorithm  # noqa: E402
from repro.grid.trace import JobState  # noqa: E402
from repro.sim import experiment  # noqa: E402


# --------------------------------------------------------------------- #
# Percentile rule                                                       #
# --------------------------------------------------------------------- #


def test_p95_needs_ten_samples_beyond():
    value, count, beyond = timing.percentile([float(i) for i in range(1, 201)], 0.95)
    assert (value, count, beyond) == (190.0, 200, 10)
    with pytest.raises(ValueError, match="9 beyond"):
        timing.percentile([float(i) for i in range(1, 200)], 0.95)


def test_median_is_nearest_rank():
    assert timing.percentile([float(i) for i in range(1, 22)], 0.5) == (11.0, 21, 10)


# --------------------------------------------------------------------- #
# Self-time attribution                                                 #
# --------------------------------------------------------------------- #


def _span(name, start, end, parent):
    return [name, start, end, parent, "op0", None]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("op", 0, 100, -1),
        _span("search", 10, 40, 0),
        _span("index.amp", 20, 30, 1),
        _span("dp.budget", 50, 70, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [50, 20, 10, 20]
    roots = tracing.roots_of(spans)
    assert roots == [0, 0, 0, 0]
    assert tracing.attribution_problems(spans, selfs, roots) == []


def test_child_outside_its_parent_breaks_attribution():
    spans = [
        _span("op", 0, 100, -1),
        _span("search", 90, 130, 0),
    ]
    selfs = tracing.self_times(spans)
    problems = tracing.attribution_problems(spans, selfs, tracing.roots_of(spans))
    assert problems and "self times sum to 130" in problems[0]


def test_overlapping_siblings_are_not_counted_twice():
    spans = [
        _span("op", 0, 100, -1),
        _span("search", 10, 50, 0),
        _span("search", 40, 60, 0),
    ]
    assert tracing.self_times(spans)[0] == 50


def test_installed_tracer_records_real_calls_and_restores_originals():
    original = core_search.find_alternatives
    config = experiment.ExperimentConfig(iterations=1, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiment.find_alternatives is not original
        slots, batch = experiment.generate_iteration(config, 0)  # outside a root
        with tracer.root("op", "0.0"):
            experiment.run_iteration(config, 0, slots, batch)
    finally:
        tracer.uninstall()
    assert experiment.find_alternatives is original
    assert core_search.find_alternatives is original
    names = {span[tracing.NAME] for span in tracer.spans}
    assert "generate" not in names
    assert {"op", "search", "index.build"} <= names
    metrics, _, problems = tracing.layer_metrics(tracer.spans, 0.0, 1.0)
    assert problems == []
    shares = [value for name, (value, unit) in metrics.items() if unit == "share"]
    assert sum(shares) == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# Output checks flag corrupted output                                   #
# --------------------------------------------------------------------- #


def _search(seed=4, algorithm=SlotSearchAlgorithm.AMP):
    config = experiment.ExperimentConfig(iterations=1, seed=seed)
    slots, batch = experiment.generate_iteration(config, 0)
    return core_search.find_alternatives(slots, batch, algorithm, use_index=False), slots, batch


def test_oracle_check_flags_a_dropped_window():
    reference, slots, batch = _search()
    indexed = core_search.find_alternatives(slots, batch, SlotSearchAlgorithm.AMP)
    assert workloads.compare_search(reference, indexed, "amp") == []
    job = next(job for job, windows in indexed.alternatives.items() if windows)
    corrupted = SearchResult(
        alternatives={
            other: (windows[:-1] if other is job else windows)
            for other, windows in indexed.alternatives.items()
        },
        remaining_slots=indexed.remaining_slots,
        passes=indexed.passes,
    )
    assert workloads.compare_search(reference, corrupted, "amp")


def test_paper_shape_flags_swapped_algorithms():
    config = experiment.ExperimentConfig(iterations=1, seed=7)
    comparisons = []
    for index in range(40):
        slots, batch = experiment.generate_iteration(config, index)
        outcome = experiment.run_iteration(config, index, slots, batch)
        if outcome.comparison is not None:
            comparisons.append(outcome.comparison)
    assert workloads.paper_shape(comparisons) == []
    swapped = [
        type(c)(index=c.index, slot_count=c.slot_count, job_count=c.job_count, alp=c.amp, amp=c.alp)
        for c in comparisons
    ]
    assert len(workloads.paper_shape(swapped)) == 2


def _small_vo(directory=None):
    episode = workloads.VOEpisode(seed=11, nodes=16, directory=directory)
    for tick in range(episode.ops):
        report = episode.op(tick)
        assert episode.check_op(tick, report) == []
    return episode


def test_vo_checks_flag_overlapping_windows_and_lost_jobs():
    episode = _small_vo()
    assert workloads.vo_checks(episode.meta, episode.submitted) == []
    assert workloads.vo_checks(episode.meta, episode.submitted + 1)
    placed = [
        record
        for record in episode.meta.trace
        if record.state in (JobState.SCHEDULED, JobState.COMPLETED)
    ]
    placed[1].window = placed[0].window
    problems = workloads.vo_checks(episode.meta, episode.submitted)
    assert any(problem.startswith("audit overlap") for problem in problems)
    assert any(problem.startswith("owner income") for problem in problems)


def test_restore_check_flags_a_diverged_state(tmp_path):
    episode = _small_vo(tmp_path / "state")
    try:
        assert episode.finish(episode.restore()) == []
        restored = episode.restore()
        restored.meta.max_pending = 1
        assert "not byte-identical" in " ".join(episode.finish(restored))
    finally:
        episode.close()
