"""Tests for result export (repro.sim.export)."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.core import Criterion
from repro.sim import (
    ExperimentConfig,
    ParallelRunner,
    figure4,
    figure5,
    figure_to_dict,
    result_to_rows,
    samples_csv_text,
    summarize,
    summary_to_dict,
    write_json,
    write_samples_csv,
)
from repro.sim.export import CSV_FIELDS


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(
        objective=Criterion.TIME, iterations=30, seed=2024, resolution=300
    )
    return ParallelRunner(config).run()


class TestCsvExport:
    def test_rows_match_samples(self, result):
        rows = result_to_rows(result)
        assert len(rows) == result.counted
        for row, sample in zip(rows, result.samples):
            assert row["index"] == sample.index
            assert row["amp_mean_job_time"] == sample.amp.mean_job_time

    def test_csv_text_roundtrip(self, result):
        text = samples_csv_text(result)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == result.counted
        assert list(parsed[0].keys()) == CSV_FIELDS
        first = parsed[0]
        assert float(first["alp_mean_job_time"]) == pytest.approx(
            result.samples[0].alp.mean_job_time
        )

    def test_write_csv_file(self, result, tmp_path):
        path = write_samples_csv(result, tmp_path / "samples.csv")
        assert path.exists()
        assert path.read_text().startswith("index,")


class TestJsonExport:
    def test_summary_dict_is_json_ready(self, result):
        data = summary_to_dict(summarize(result))
        text = json.dumps(data)  # must not raise
        reloaded = json.loads(text)
        assert reloaded["objective"] == "time"
        assert reloaded["counted"] == result.counted
        assert set(reloaded["ratios"]) == {
            "amp_time_gain",
            "amp_cost_premium",
            "alternatives_factor",
        }

    def test_figure_dict_without_series(self, result):
        panel_a, _ = figure4(result)
        data = figure_to_dict(panel_a)
        assert data["name"] == "fig4a_time"
        assert set(data["measured"]) == {"ALP", "AMP"}
        assert "series" not in data

    def test_figure_dict_with_series(self, result):
        panel = figure5(result, first_n=5)
        data = figure_to_dict(panel)
        assert len(data["series"]["ALP"]) == min(5, result.counted)

    def test_write_json_file(self, result, tmp_path):
        path = write_json(summary_to_dict(summarize(result)), tmp_path / "summary.json")
        reloaded = json.loads(path.read_text())
        assert reloaded["attempted"] == 30
