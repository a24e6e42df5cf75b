"""Cross-worker trace invariance and checkpoint trace propagation.

The contract: a traced experiment writes one shard per worker, and the
*canonical* form of the merged shards — everything except wall-clock
stamps, perf-counter durations, and worker ids — is byte-identical to
the canonical serial trace of the same run.  Decision records, being
wall-clock-free and sequence-numbered per iteration, survive the
round-trip exactly.  A ``DurableMetascheduler`` snapshot additionally
persists the run's trace context, so a restore after a crash rejoins
the same logical trace.
"""

from __future__ import annotations

import pytest

from repro.core import Criterion, SlotSearchAlgorithm, find_alternatives
from repro.grid import Metascheduler, RetryPolicy
from repro.grid.checkpoint import DurableMetascheduler
from repro.obs import (
    TraceContext,
    canonical_trace,
    merge_trace_files,
    read_trace,
    write_trace,
)
from repro.obs.telemetry import configure, disable, get_telemetry, install
from repro.sim import ExperimentConfig, ParallelRunner
from repro.sim.experiment import trace_shard_path
from tests.conftest import make_random_batch, make_random_slot_list
from tests.test_checkpoint import build_meta, make_job

ITERATIONS = 6
SEED = 4242


@pytest.fixture(autouse=True)
def _restore_telemetry():
    previous = get_telemetry()
    yield
    install(previous)


def traced_run(tmp_path, workers: int):
    config = ExperimentConfig(objective=Criterion.TIME, iterations=ITERATIONS, seed=SEED)
    tmp_path.mkdir(parents=True, exist_ok=True)
    base = tmp_path / f"run{workers}.jsonl"
    result = ParallelRunner(config, workers=workers).run(trace_base=base)
    shards = [
        str(trace_shard_path(base, worker))
        for worker in range(min(workers, ITERATIONS))
    ]
    return result, merge_trace_files(shards)


class TestCrossWorkerInvariance:
    def test_workers_4_canonically_identical_to_serial(self, tmp_path):
        serial_result, serial_trace = traced_run(tmp_path / "serial", 1)
        parallel_result, parallel_trace = traced_run(tmp_path / "parallel", 4)
        assert parallel_result == serial_result
        assert canonical_trace(parallel_trace) == canonical_trace(serial_trace)

    def test_shards_share_the_seed_derived_trace_id(self, tmp_path):
        _, merged = traced_run(tmp_path, 3)
        assert merged.meta.get("trace_id") == TraceContext.derive(SEED).trace_id
        assert merged.meta.get("workers") == [0, 1, 2]

    def test_decisions_are_recorded_and_iteration_ordered(self, tmp_path):
        _, merged = traced_run(tmp_path, 2)
        assert merged.decisions
        iterations = [record["iteration"] for record in merged.decisions]
        assert iterations == sorted(iterations)
        assert set(iterations) == set(range(ITERATIONS))

    def test_trace_base_refuses_checkpoint(self, tmp_path):
        from repro.core.errors import InvalidRequestError

        config = ExperimentConfig(
            objective=Criterion.TIME, iterations=ITERATIONS, seed=SEED
        )
        with pytest.raises(InvalidRequestError, match="checkpoint"):
            ParallelRunner(config, workers=2).run(
                trace_base=tmp_path / "t.jsonl",
                checkpoint=tmp_path / "ck.jsonl",
            )

    def test_shard_path_naming(self):
        assert trace_shard_path("out/trace.jsonl", 3).name == "trace.w3.jsonl"
        assert trace_shard_path("out/trace", 0).name == "trace.w0.jsonl"


class TestCheckpointTracePropagation:
    def run_workload(self, durable: DurableMetascheduler) -> None:
        for index in range(3):
            durable.submit(make_job(index), at_time=index * 10.0)
        durable.run(100.0)

    def test_restore_reattaches_snapshot_context(self, tmp_path):
        context = TraceContext.derive(SEED).child("metascheduler")
        configure(context=context)
        meta = build_meta(recovery=RetryPolicy())
        durable = DurableMetascheduler(meta, tmp_path, fsync=False)
        self.run_workload(durable)
        durable.snapshot()
        # Fresh process: telemetry enabled but context-less until restore.
        configure()
        assert get_telemetry().context is None
        DurableMetascheduler.restore(tmp_path, fsync=False)
        assert get_telemetry().context == context
        disable()

    def test_restore_keeps_existing_context(self, tmp_path):
        configure(context=TraceContext.derive(SEED))
        meta = build_meta()
        durable = DurableMetascheduler(meta, tmp_path, fsync=False)
        self.run_workload(durable)
        durable.snapshot()
        own = TraceContext.derive(99, worker=1)
        configure(context=own)
        DurableMetascheduler.restore(tmp_path, fsync=False)
        assert get_telemetry().context == own
        disable()

    def test_disabled_telemetry_writes_no_context(self, tmp_path):
        disable()
        meta = build_meta()
        durable = DurableMetascheduler(meta, tmp_path, fsync=False)
        self.run_workload(durable)
        durable.snapshot()
        from repro.grid.checkpoint import load_snapshot

        snapshot = load_snapshot(durable.snapshot_path)
        assert "trace_context" not in snapshot


class TestIndexedSearchTraceInvariance:
    """Telemetry never picks the search path: a traced search runs the
    path its arguments select, finds what the untraced search finds, and
    records a deterministic canonical trace of that path."""

    def _traced_search(self, tmp_path, name, slots, batch, algorithm, options):
        configure(context=TraceContext.derive(SEED))
        result = find_alternatives(slots, batch, algorithm, **options)
        path = tmp_path / f"{name}.jsonl"
        write_trace(str(path))
        disable()
        return result, read_trace(str(path))

    @pytest.mark.parametrize(
        "options",
        [{}, {"use_index": True}, {"use_index": False}],
        ids=["default", "index", "reference"],
    )
    @pytest.mark.parametrize(
        "algorithm",
        [SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP],
        ids=["alp", "amp"],
    )
    def test_traced_indexed_search_matches_untraced(
        self, tmp_path, algorithm, options
    ):
        slots = make_random_slot_list(7, count=40)
        batch = make_random_batch(7)
        indexed = options.get("use_index", True)
        untraced = find_alternatives(slots, batch, algorithm, **options)
        traced, first = self._traced_search(
            tmp_path, "first", slots, batch, algorithm, options
        )
        _, second = self._traced_search(
            tmp_path, "second", slots, batch, algorithm, options
        )
        assert untraced.total_alternatives > 0
        assert traced.alternatives == untraced.alternatives
        assert traced.passes == untraced.passes
        assert traced.remaining_slots == untraced.remaining_slots
        [span] = first.spans
        assert span.name == "phase1.find_alternatives"
        assert span.attributes["indexed"] is indexed
        scan_phases = sorted(
            str(metric["name"])
            for metric in first.metrics
            if str(metric["name"]).startswith("phase.seconds{phase=phase1.")
            and "subtract" not in str(metric["name"])
        )
        expected = "phase1.index_scan" if indexed else "phase1.scan"
        assert scan_phases == [f"phase.seconds{{phase={expected}}}"]
        assert canonical_trace(first) == canonical_trace(second)
