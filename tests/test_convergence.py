"""Tests for convergence diagnostics (repro.sim.convergence)."""

from __future__ import annotations

import pytest

from repro.core import Criterion, InvalidRequestError
from repro.sim import ExperimentConfig, ParallelRunner
from repro.sim.convergence import (
    ConvergencePoint,
    convergence_track,
    is_converged,
    required_samples,
)


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(objective=Criterion.TIME, iterations=120, seed=606, resolution=400)
    return ParallelRunner(config).run()


class TestTrack:
    def test_one_point_per_counted_experiment(self, result):
        track = convergence_track(result)
        assert len(track) == result.counted
        assert [point.counted for point in track] == list(range(1, result.counted + 1))

    def test_final_point_matches_aggregate(self, result):
        from repro.sim import summarize

        track = convergence_track(result)
        summary = summarize(result)
        # Running ratio over sums of per-experiment means equals the
        # aggregate ratio over means (same arithmetic).
        assert track[-1].amp_time_gain == pytest.approx(
            summary.ratios().amp_time_gain, rel=1e-9
        )

    def test_ratios_eventually_positive(self, result):
        track = convergence_track(result)
        assert track[-1].amp_time_gain > 0.1  # AMP advantage is robust


class TestIsConverged:
    def test_validation(self):
        with pytest.raises(InvalidRequestError):
            is_converged([], tail_fraction=0.0)
        with pytest.raises(InvalidRequestError):
            is_converged([], tolerance=0.0)

    def test_empty_track_not_converged(self):
        assert not is_converged([])

    def test_flat_track_converges(self):
        track = [ConvergencePoint(i, 0.3, 0.2) for i in range(1, 20)]
        assert is_converged(track)

    def test_wild_tail_fails(self):
        track = [ConvergencePoint(i, 0.3, 0.2) for i in range(1, 10)]
        track.append(ConvergencePoint(10, 0.9, 0.2))
        track.append(ConvergencePoint(11, 0.3, 0.2))
        assert not is_converged(track, tail_fraction=0.5, tolerance=0.05)

    def test_real_series_converges_loosely(self, result):
        track = convergence_track(result)
        # With only ~dozens of counted samples the ratios still wiggle;
        # a loose band must already hold over the last quarter.
        assert is_converged(track, tail_fraction=0.25, tolerance=0.08)


class TestRequiredSamples:
    def test_validation(self):
        with pytest.raises(InvalidRequestError):
            required_samples([], tolerance=-1.0)

    def test_empty_is_none(self):
        assert required_samples([]) is None

    def test_flat_track_settles_immediately(self):
        track = [ConvergencePoint(i, 0.3, 0.2) for i in range(1, 5)]
        assert required_samples(track) == 1

    def test_late_excursion_resets(self):
        track = [ConvergencePoint(1, 0.3, 0.2), ConvergencePoint(2, 0.9, 0.2),
                 ConvergencePoint(3, 0.3, 0.2)]
        assert required_samples(track, tolerance=0.05) == 3

    def test_real_series_settles_before_end(self, result):
        track = convergence_track(result)
        settle = required_samples(track, tolerance=0.08)
        assert settle is not None
        assert settle < result.counted
