"""Shared machinery for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts
(Figs. 4, 5, 6, the in-text statistics, the worked example, the
complexity claim, and our ablations).  The expensive experiment series
are computed once per session and cached; individual benchmarks time a
representative slice of the work and print the regenerated
figure/table so that ``pytest benchmarks/ --benchmark-only`` output is
a self-contained report.

Environment knobs:

* ``REPRO_BENCH_ITERATIONS`` — attempted scheduling iterations per
  experiment series (default 300; the paper uses 25 000 — set
  ``REPRO_BENCH_ITERATIONS=25000`` for the full-fidelity run).
* ``REPRO_BENCH_SEED`` — master seed (default the paper's page number).
"""

from __future__ import annotations

import functools
import json
import os
import platform

from repro.core import Criterion
from repro.sim import ExperimentConfig, ExperimentResult, ParallelRunner

BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "300"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "368"))

#: Worker count for the parallel-engine measurements (the acceptance
#: workload uses 4; CI smokes with ``REPRO_BENCH_WORKERS=2``).
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Append-only measurement log: one compact JSON line per recorded
#: section, timestamped, so perf trends survive baseline overwrites and
#: the CI regression gate (``benchmarks/gate.py``) has a trajectory to
#: compare against.
HISTORY_PATH = os.path.join(REPO_ROOT, "BENCH_history.jsonl")


def record_history(name: str, section: str, payload: dict) -> str:
    """Append one timestamped measurement entry to ``BENCH_history.jsonl``.

    The timestamp flows through the injectable :mod:`repro.obs.clock`
    so harness tests can freeze it.  Returns the history path.
    """
    from repro.obs import clock

    entry = {
        "machine": platform.machine(),
        "name": name,
        "python": platform.python_version(),
        "recorded_at": clock.now(),
        "section": section,
        "values": payload,
    }
    with open(HISTORY_PATH, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(entry, separators=(",", ":"), sort_keys=True))
        stream.write("\n")
    return HISTORY_PATH


def record_baseline(name: str, section: str, payload: dict) -> str:
    """Merge ``payload`` into ``BENCH_<name>.json`` at the repo root.

    Each benchmark owns one *section* of its file, so a partial run
    updates only what it measured and the committed baselines keep a
    readable trajectory (see docs/benchmarks.md).  Every call also
    appends the measurement to ``BENCH_history.jsonl`` via
    :func:`record_history`.  Returns the path.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    document: dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as stream:
                document = json.load(stream)
        except (OSError, ValueError):
            document = {}
    document["python"] = platform.python_version()
    document["machine"] = platform.machine()
    document[section] = payload
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    record_history(name, section, payload)
    return path


@functools.lru_cache(maxsize=None)
def get_result(objective: Criterion, rho: float = 1.0) -> ExperimentResult:
    """Session-cached experiment series for one objective/rho."""
    config = ExperimentConfig(
        objective=objective,
        iterations=BENCH_ITERATIONS,
        seed=BENCH_SEED,
        rho=rho,
    )
    return ParallelRunner(config).run()


def small_config(objective: Criterion) -> ExperimentConfig:
    """A short series used as the timed unit inside benchmarks."""
    return ExperimentConfig(objective=objective, iterations=20, seed=BENCH_SEED + 1)


def report(capsys, text: str) -> None:
    """Print ``text`` past pytest's capture, so it lands in the output."""
    with capsys.disabled():
        print()
        print(text)
