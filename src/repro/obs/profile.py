"""Cost attribution: where does one scheduling cycle's time go?

The instrumented hot paths accumulate per-phase wall time into the
``phase.seconds{phase=...}`` histogram family — index scans,
feasibility checks, cross-job slot subtraction, the phase-2 DP, journal
fsyncs, checkpoint snapshots (see ``docs/observability.md`` for the full
phase list).  This module aggregates a recorded (or merged) trace into
the ``repro profile`` report: per-phase call counts, cumulative time,
and the share of the total attributed time, plus the work counters
(DP cells touched, windows collected, journal appends) that put the timings
in units of algorithmic work.

Falls back to span aggregates when a trace predates the phase timers,
so old traces still profile — just at span granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import TraceData

__all__ = ["PhaseCost", "phase_costs", "render_profile"]

#: Histogram family fed by the per-phase timers in the hot paths.
PHASE_METRIC = "phase.seconds"

#: Counter prefixes worth showing next to the timings: they measure the
#: *work* each phase performed, not just the time it took.
_WORK_COUNTER_PREFIXES = ("search.", "dp.", "journal.", "checkpoint.", "scheduler.")


@dataclass(frozen=True)
class PhaseCost:
    """Aggregated cost of one instrumented phase.

    Attributes:
        phase: Phase label (``phase1.index_scan``, ``journal.fsync`` …).
        calls: Number of timed stretches.
        total_seconds: Cumulative wall time across all calls.
        share: Fraction of the total attributed time (0.0–1.0).
    """

    phase: str
    calls: int
    total_seconds: float
    share: float

    @property
    def mean_seconds(self) -> float:
        """Mean seconds per call (0.0 when there were no calls)."""
        return self.total_seconds / self.calls if self.calls else 0.0


def _phase_label(key: str) -> str | None:
    """Extract the ``phase`` label from a ``phase.seconds{phase=X}`` key."""
    name, _, label_text = key.partition("{")
    if name != PHASE_METRIC:
        return None
    for pair in label_text.rstrip("}").split(","):
        label, _, value = pair.partition("=")
        if label == "phase":
            return value
    return None


def phase_costs(data: TraceData) -> list[PhaseCost]:
    """Per-phase cost rows for a trace, largest share first.

    Prefers the explicit ``phase.seconds`` histograms; when a trace has
    none (recorded before the phase timers existed), falls back to the
    span aggregates so the report degrades instead of vanishing.
    """
    totals: dict[str, tuple[int, float]] = {}
    for snapshot in data.metrics:
        if snapshot.get("kind") != "histogram":
            continue
        phase = _phase_label(snapshot["name"])
        if phase is None:
            continue
        calls, total = totals.get(phase, (0, 0.0))
        totals[phase] = (calls + snapshot["count"], total + snapshot["sum"])
    if not totals:
        totals = dict(data.span_aggregates())
    grand_total = sum(total for _, total in totals.values())
    rows = [
        PhaseCost(
            phase=phase,
            calls=calls,
            total_seconds=total,
            share=(total / grand_total) if grand_total > 0 else 0.0,
        )
        for phase, (calls, total) in totals.items()
    ]
    rows.sort(key=lambda row: (-row.total_seconds, row.phase))
    return rows


def render_profile(data: TraceData) -> str:
    """The ``repro profile`` report for a recorded (or merged) trace."""
    from repro.sim.ascii_plot import table

    costs = phase_costs(data)
    if not costs:
        return "(trace contains no timing data to profile)"

    sections: list[str] = ["phase cost attribution:"]
    rows = [
        [
            cost.phase,
            str(cost.calls),
            f"{cost.total_seconds * 1e3:.2f}",
            f"{cost.mean_seconds * 1e3:.3f}",
            f"{cost.share * 100:.1f}%",
        ]
        for cost in costs
    ]
    sections.append(
        table(rows, header=["phase", "calls", "total ms", "mean ms", "share"])
    )

    counters = [
        metric
        for metric in data.metrics
        if metric.get("kind") == "counter"
        and metric["name"].startswith(_WORK_COUNTER_PREFIXES)
    ]
    if counters:
        sections.append("")
        sections.append("work counters:")
        counter_rows = [
            [metric["name"], f"{metric['value']:g}"] for metric in counters
        ]
        sections.append(table(counter_rows, header=["counter", "value"]))
    return "\n".join(sections)
