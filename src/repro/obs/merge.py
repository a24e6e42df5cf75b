"""Merging per-worker trace shards into one coherent trace.

``ParallelRunner --workers N`` gives every worker process its own
telemetry context (the main process cannot observe a child's registry),
so an instrumented parallel run produces *N* JSONL shards plus the
parent's own trace.  This module folds them back into one
:class:`~repro.obs.export.TraceData`:

* **metrics** — counters sum, gauges keep the last shard's value,
  histograms merge exactly (counts, sums, min/max, and per-bound
  cumulative bucket counts all add);
* **spans** — each shard's root spans are grouped under a synthetic
  ``worker`` root carrying the shard's worker id, so the merged tree
  stays one tree per participant;
* **events** and **decisions** — concatenated; decisions re-sort by
  their canonical ``(iteration, seq)`` key, which is worker-count
  invariant by construction (see :mod:`repro.obs.decisions`).

Shards are only merged when their ``trace_id``s agree — mixing runs is
refused with a :class:`~repro.core.errors.TelemetryError`.

:func:`canonical_trace` renders the *deterministic* portion of a trace
(everything except wall-clock stamps, durations, and worker ids) as a
stable text, which is how the test suite pins "a merged 4-worker trace
equals the serial trace, modulo worker ids and timing".
"""

from __future__ import annotations

import json
import math

from repro.core.errors import TelemetryError
from repro.obs.decisions import decision_sort_key
from repro.obs.export import TRACE_FORMAT, TraceData, read_trace
from repro.obs.spans import SpanRecord

__all__ = ["merge_traces", "merge_trace_files", "canonical_trace"]

#: Histograms fed by wall-clock/perf-counter readings; excluded from the
#: canonical form because their values can never repeat across runs.
_TIMING_METRICS = ("span.seconds", "phase.seconds")


def _bare_name(key: str) -> str:
    return key.partition("{")[0]


def _merge_histograms(target: dict, extra: dict) -> None:
    """Fold histogram snapshot ``extra`` into ``target`` in place."""
    target["count"] += extra["count"]
    target["sum"] += extra["sum"]
    for side in ("min", "max"):
        ours, theirs = target.get(side), extra.get(side)
        if ours is None:
            target[side] = theirs
        elif theirs is not None:
            target[side] = min(ours, theirs) if side == "min" else max(ours, theirs)
    merged: dict[float, int] = {}
    for snapshot in (target, extra):
        for bound, cumulative in snapshot.get("buckets", []):
            merged[float(bound)] = merged.get(float(bound), 0) + int(cumulative)
    target["buckets"] = [[bound, merged[bound]] for bound in sorted(merged)]


def merge_traces(shards: list[TraceData]) -> TraceData:
    """Merge trace shards of one run into a single :class:`TraceData`.

    Raises:
        TelemetryError: On an empty shard list or when shards declare
            different ``trace_id``s (they belong to different runs).
    """
    if not shards:
        raise TelemetryError("cannot merge an empty list of trace shards")
    trace_ids = {
        context.trace_id
        for context in (shard.trace_context() for shard in shards)
        if context is not None
    }
    if len(trace_ids) > 1:
        raise TelemetryError(
            "refusing to merge shards from different runs: trace ids "
            + ", ".join(sorted(trace_ids))
        )

    metrics: dict[str, dict] = {}
    spans: list[SpanRecord] = []
    events: list[dict] = []
    decisions: list[dict] = []
    workers: list[int] = []

    for index, shard in enumerate(shards):
        context = shard.trace_context()
        worker = context.worker if context is not None else index
        workers.append(worker)
        for snapshot in shard.metrics:
            merged = metrics.get(snapshot["name"])
            if merged is None:
                metrics[snapshot["name"]] = dict(snapshot)
            elif snapshot["kind"] == "counter":
                merged["value"] += snapshot["value"]
            elif snapshot["kind"] == "gauge":
                merged["value"] = snapshot["value"]
            else:
                _merge_histograms(merged, snapshot)
        if shard.spans:
            if len(shards) == 1:
                spans.extend(shard.spans)
            else:
                spans.append(
                    SpanRecord(
                        name="worker",
                        started_at=min(root.started_at for root in shard.spans),
                        duration=math.fsum(root.duration for root in shard.spans),
                        attributes={"worker": worker},
                        children=list(shard.spans),
                    )
                )
        events.extend(shard.events)
        decisions.extend(shard.decisions)

    decisions.sort(key=decision_sort_key)
    meta: dict = {
        "kind": "meta",
        "format": TRACE_FORMAT,
        "merged_from": len(shards),
        "workers": sorted(workers),
    }
    if trace_ids:
        meta["trace_id"] = trace_ids.pop()
    return TraceData(
        meta=meta,
        metrics=[metrics[name] for name in sorted(metrics)],
        spans=spans,
        events=events,
        decisions=decisions,
    )


def merge_trace_files(paths: list[str]) -> TraceData:
    """Read and merge several trace shard files (see :func:`merge_traces`)."""
    return merge_traces([read_trace(path) for path in paths])


def _span_skeleton(record: SpanRecord) -> dict:
    """The timing-free shape of a span subtree (worker wrappers elided)."""
    attributes = {
        key: value for key, value in record.attributes.items() if key != "worker"
    }
    return {
        "name": record.name,
        "attributes": attributes,
        "status": record.status,
        "children": [_span_skeleton(child) for child in record.children],
    }


def canonical_trace(data: TraceData) -> str:
    """The deterministic portion of a trace as a stable JSON text.

    Strips everything allowed to differ between equivalent runs — the
    meta header, wall-clock stamps, perf-counter durations and the
    timing histograms they feed, worker ids, and synthetic ``worker``
    wrapper spans — and sorts what remains, so two traces of the same
    logical run compare byte-for-byte equal no matter how many workers
    produced them.
    """
    metrics = [
        snapshot
        for snapshot in data.metrics
        if _bare_name(snapshot["name"]) not in _TIMING_METRICS
    ]
    metrics.sort(key=lambda snapshot: str(snapshot["name"]))

    roots: list[SpanRecord] = []
    for root in data.spans:
        if root.name == "worker":
            roots.extend(root.children)
        else:
            roots.append(root)
    skeletons = sorted(
        (json.dumps(_span_skeleton(root), sort_keys=True) for root in roots),
    )

    events = sorted(
        json.dumps(
            {key: value for key, value in event.items() if key not in ("ts", "worker")},
            sort_keys=True,
        )
        for event in data.events
    )
    decisions = [
        json.dumps(record, sort_keys=True)
        for record in sorted(data.decisions, key=decision_sort_key)
    ]
    document = {
        "metrics": metrics,
        "spans": skeletons,
        "events": events,
        "decisions": decisions,
    }
    return json.dumps(document, sort_keys=True, indent=1)
