"""The benchmark's workloads, run on the cold production path.

Every episode builds its own inputs and its own scheduler, so any DP
memo is private and starts empty.  Nothing here passes ``dp_memo=``,
``use_index=`` or ``shards=`` to the production calls, flips
``DEFAULT_USE_INDEX``, or turns telemetry on: the code measured is the
code a user runs.

An *op* is one experiment iteration (``paper-series``) or one
metascheduler tick (``vo-durable``, ``vo-fleet``).  Production entry
points are looked up through their modules at call time, so the span
wrappers that :mod:`tracing` installs see every call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro.core import search as core_search
from repro.core.audit import audit_windows
from repro.core.criteria import Criterion
from repro.core.job import Job
from repro.core.search import SearchResult, SlotSearchAlgorithm
from repro.grid import checkpoint as grid_checkpoint
from repro.grid.cluster import ClusterSpec
from repro.grid.environment import VOEnvironment
from repro.grid.local import LocalJobFlow
from repro.grid.metascheduler import Metascheduler
from repro.grid.trace import JobState
from repro.sim import experiment
from repro.sim.generators import JobGenerator

#: Iterations per ``paper-series`` episode (one ExperimentConfig seed).
SERIES_ITERATIONS = 50
#: Every this-many-th iteration is re-searched by the reference oracle.
ORACLE_EVERY = 25

#: Metascheduler cycle shared by both VO workloads.
PERIOD = 60.0
#: Published lookahead: ~500 slots per tick on 120 nodes, ~1450 on 360.
HORIZON = 800.0
#: Global jobs arriving per period (fixed rate, submitted at set-up).
JOBS_PER_PERIOD = 2
#: Ticks per VO episode; long enough to pass the horizon's fill-up.
TICKS = 44
#: Durable snapshots every this many ticks.  44 is not a multiple, so
#: every restore replays the last four journaled ticks.
SNAPSHOT_EVERY = 10

DURABLE_NODES = 120
FLEET_NODES = 360


def episode_seed(workload: str, seed: int, episode: int) -> int:
    """Deterministic per-episode seed derived from the run's ``--seed``."""
    digest = hashlib.blake2b(
        f"{workload}:{seed}:{episode}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


# --------------------------------------------------------------------- #
# Output checks                                                         #
# --------------------------------------------------------------------- #


def search_fingerprint(result: SearchResult) -> dict:
    """Everything a phase-1 result determines, in comparable form."""
    return {
        "alternatives": {
            job.name: [
                (
                    window.start,
                    tuple(
                        (a.resource.uid, a.start, a.end, a.source.price)
                        for a in window.allocations
                    ),
                )
                for window in windows
            ]
            for job, windows in result.alternatives.items()
        },
        "passes": result.passes,
        "remaining": sorted(
            (s.resource.uid, s.start, s.end, s.price) for s in result.remaining_slots
        ),
    }


def compare_search(reference: SearchResult, candidate: SearchResult, label: str) -> list[str]:
    """Problems when ``candidate`` differs from the reference oracle."""
    if search_fingerprint(candidate) != search_fingerprint(reference):
        return [f"{label}: indexed search differs from the use_index=False oracle"]
    return []


def paper_shape(comparisons: list) -> list[str]:
    """The paper's Section 5 shape over counted iterations.

    AMP finds more alternatives per job than ALP, and under the TIME
    objective its chosen combinations have a lower mean job time.
    """
    if not comparisons:
        return ["paper-series: no counted iteration"]
    alp_alts = sum(c.alp.total_alternatives / c.job_count for c in comparisons)
    amp_alts = sum(c.amp.total_alternatives / c.job_count for c in comparisons)
    alp_time = sum(c.alp.mean_job_time for c in comparisons)
    amp_time = sum(c.amp.mean_job_time for c in comparisons)
    problems = []
    if not amp_alts > alp_alts:
        problems.append("paper-series: AMP does not find more alternatives per job than ALP")
    if not amp_time < alp_time:
        problems.append("paper-series: AMP mean job time is not below ALP's")
    return problems


def vo_checks(meta: Metascheduler, submitted: int) -> list[str]:
    """Audit every committed window and the VO's job and money accounting."""
    problems = []
    committed = {
        record.job: record.window
        for record in meta.trace
        if record.state in (JobState.SCHEDULED, JobState.COMPLETED)
    }
    if any(window is None for window in committed.values()):
        problems.append("a placed job has no window")
        committed = {job: window for job, window in committed.items() if window}
    violations = audit_windows(committed, algorithm=SlotSearchAlgorithm.AMP)
    problems.extend(f"audit {v.kind}: {v.message}" for v in violations)
    counts = meta.trace.state_counts()
    placed = counts["scheduled"] + counts["completed"]
    if placed + counts["pending"] + counts["rejected"] != submitted:
        problems.append(
            f"submitted {submitted} != placed {placed} + pending "
            f"{counts['pending']} + rejected {counts['rejected']}"
        )
    if counts["pending"] != meta.backlog():
        problems.append(f"pending {counts['pending']} != backlog {meta.backlog()}")
    spend = sum(window.cost for window in committed.values())
    end = max((window.end for window in committed.values()), default=0.0) + 1.0
    income = meta.environment.total_income(0.0, end)
    if abs(income - spend) > 1e-9 * max(1.0, abs(spend)):
        problems.append(f"owner income {income!r} != committed window cost {spend!r}")
    return problems


def snapshot_text(meta: Metascheduler) -> str:
    """The canonical bytes of a metascheduler snapshot."""
    return json.dumps(
        grid_checkpoint.snapshot_metascheduler(meta), sort_keys=True, separators=(",", ":")
    )


# --------------------------------------------------------------------- #
# Episodes                                                              #
# --------------------------------------------------------------------- #


class SeriesEpisode:
    """``SERIES_ITERATIONS`` iterations of the Section 5 loop."""

    durable = False
    ops = SERIES_ITERATIONS

    def __init__(self, seed: int, comparisons: list) -> None:
        self.config = experiment.ExperimentConfig(
            objective=Criterion.TIME, iterations=SERIES_ITERATIONS, seed=seed
        )
        self._comparisons = comparisons

    def op(self, index: int):
        slots, batch = experiment.generate_iteration(self.config, index)
        return slots, batch, experiment.run_iteration(self.config, index, slots, batch)

    def check_op(self, index: int, result) -> list[str]:
        slots, batch, outcome = result
        if outcome.comparison is not None:
            self._comparisons.append(outcome.comparison)
        if index % ORACLE_EVERY:
            return []
        problems = []
        covered = True
        counts = {}
        for algorithm in (SlotSearchAlgorithm.ALP, SlotSearchAlgorithm.AMP):
            label = f"iteration {index} {algorithm.value}"
            reference = core_search.find_alternatives(
                slots, batch, algorithm, rho=self.config.rho, use_index=False
            )
            indexed = core_search.find_alternatives(
                slots, batch, algorithm, rho=self.config.rho
            )
            problems.extend(compare_search(reference, indexed, label))
            covered = covered and reference.all_jobs_covered()
            counts[algorithm] = reference.total_alternatives
            if not covered:
                break
        if outcome.dropped_uncovered == covered:
            problems.append(f"iteration {index}: coverage disagrees with the oracle")
        comparison = outcome.comparison
        if comparison is not None and (
            comparison.alp.total_alternatives != counts[SlotSearchAlgorithm.ALP]
            or comparison.amp.total_alternatives != counts[SlotSearchAlgorithm.AMP]
        ):
            problems.append(f"iteration {index}: alternative counts differ from the oracle")
        return problems

    def finish(self, restored) -> list[str]:
        return []

    def close(self) -> None:
        pass


class VOEpisode:
    """``TICKS`` metascheduler ticks on a fresh two-cluster VO."""

    ops = TICKS

    def __init__(self, seed: int, nodes: int, directory: Path | None) -> None:
        environment = VOEnvironment.generate(
            [
                ClusterSpec("alpha", node_count=nodes // 2),
                ClusterSpec("beta", node_count=nodes - nodes // 2),
            ],
            seed=seed,
        )
        flow = LocalJobFlow(seed=seed)
        for cluster in environment.clusters:
            flow.occupy(cluster, 0.0, PERIOD * TICKS + HORIZON)
        meta = Metascheduler(environment, period=PERIOD, horizon=HORIZON)
        generator = JobGenerator(seed=seed)
        for tick in range(TICKS):
            for k in range(JOBS_PER_PERIOD):
                job = Job(generator.generate_request(), name=f"g{tick}-{k}")
                meta.submit(job, at_time=tick * PERIOD)
        self.submitted = TICKS * JOBS_PER_PERIOD
        self.meta = meta
        self.directory = directory
        self.durable = directory is not None
        self._scheduler = (
            grid_checkpoint.DurableMetascheduler(meta, directory, snapshot_every=SNAPSHOT_EVERY)
            if self.durable
            else meta
        )

    def op(self, index: int):
        return self._scheduler.run_iteration(index * PERIOD)

    def check_op(self, index: int, report) -> list[str]:
        if report.scheduled + report.postponed + report.rejected != report.batch_size:
            return [f"tick {index}: scheduled + postponed + rejected != batch size"]
        return []

    def restore(self):
        """Restore from this episode's own directory (the timed part)."""
        return grid_checkpoint.DurableMetascheduler.restore(
            self.directory, snapshot_every=SNAPSHOT_EVERY
        )

    def finish(self, restored) -> list[str]:
        problems = vo_checks(self.meta, self.submitted)
        if restored is not None:
            try:
                if snapshot_text(restored.meta) != snapshot_text(self.meta):
                    problems.append("restored snapshot is not byte-identical to the live one")
            finally:
                restored.close()
        return problems

    def close(self) -> None:
        if self.durable:
            self._scheduler.close()
            shutil.rmtree(self.directory, ignore_errors=True)


class Workload:
    """A named workload: how to build an episode, plus run-level checks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.comparisons: list = []

    def episode(self, seed: int, episode: int, workdir: Path):
        derived = episode_seed(self.name, seed, episode)
        if self.name == "paper-series":
            return SeriesEpisode(derived, self.comparisons)
        if self.name == "vo-durable":
            return VOEpisode(derived, DURABLE_NODES, workdir / f"episode{episode}")
        return VOEpisode(derived, FLEET_NODES, None)

    def final_checks(self) -> list[str]:
        if self.name == "paper-series":
            return paper_shape(self.comparisons)
        return []


WORKLOADS = ("paper-series", "vo-durable", "vo-fleet")
