"""The repository benchmark: one workload per run, cold production path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-series --seed 1 --seconds 30 --trace 0

Workloads are ``paper-series``, ``vo-durable`` and ``vo-fleet`` (see
``BENCHMARK.json`` and ``perfbench/NOTES.md``).  The run is closed-loop
with one caller: the next op starts when the previous one returns.
Episodes (fresh inputs, fresh scheduler) run until ``--seconds`` have
passed and at least :data:`MIN_OPS` ops were timed, then the output
checks run and the metrics are printed, one per line, followed by one
JSON object on the last line.  Timings are corrected for host
contention (see :mod:`timing`).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced, then the same episodes again with span wrappers
installed around the program's public functions, and reports the
per-layer metrics.  Runtime files go under ``.perfbench/`` in the
checkout; spans of a traced run are written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from timing import REFERENCE_KERNEL_NS, SpeedClock, kernel_ns, percentile  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
WORK = CHECKOUT / ".perfbench"

#: Untraced runs time at least this many ops, so that p95 has ten
#: samples beyond it.
MIN_OPS = 200
#: Fresh interpreters started to time set-up; their median is reported.
SETUP_PROBES = 7
WORKLOAD_NAMES = ("paper-series", "vo-durable", "vo-fleet")


class Measurement:
    """What a sequence of episodes produced.  Times are corrected ns."""

    def __init__(self) -> None:
        self.latencies_ns: list[float] = []
        self.restores_ns: list[float] = []
        self.raw_ns = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.episodes = 0
        self.clock = SpeedClock()


def run_episodes(workload, seed: int, workdir: Path, *, deadline=None, episodes=None,
                 tracer=None) -> Measurement:
    """Run episodes until ``deadline`` (and MIN_OPS) or for ``episodes``.

    An episode whose checks fail, or which raises, counts all its ops as
    failed; the run goes on with the next episode.
    """
    result = Measurement()
    clock = result.clock
    root = tracer.root if tracer is not None else (lambda name, op: contextlib.nullcontext())

    ops: list[tuple[int, int]] = []
    restores: list[tuple[int, int]] = []

    def timed(name: str, op_id: str, call, into: list):
        clock.refresh()
        with root(name, op_id):
            began = time.perf_counter_ns()
            outcome = call()
            elapsed = time.perf_counter_ns() - began
        result.raw_ns += elapsed
        into.append(clock.stamp(elapsed))
        return outcome

    while True:
        if episodes is not None:
            if result.episodes >= episodes:
                break
        elif result.episodes and time.perf_counter() >= deadline and len(ops) >= MIN_OPS:
            break
        index = result.episodes
        result.episodes += 1
        problems: list[str] = []
        ran = 0
        episode = None
        try:
            episode = workload.episode(seed, index, workdir)
            for op in range(episode.ops):
                ran += 1
                outcome = timed("op", f"{index}.{op}", lambda: episode.op(op), ops)
                problems.extend(episode.check_op(op, outcome))
            restored = None
            if episode.durable:
                restored = timed("restore", f"{index}.restore", episode.restore, restores)
            problems.extend(episode.finish(restored))
        except Exception:  # the run records the failure and goes on
            problems.append(f"episode {index} raised:\n{traceback.format_exc()}")
        finally:
            if episode is not None:
                episode.close()
            # Collect the episode's garbage now, not during a later timed
            # op, so peak RSS and latency do not depend on when the
            # collector happened to run.
            episode = None
            gc.collect()
        result.attempted += ran
        if problems:
            result.failed += ran
            result.problems.extend(problems)
    clock.finish()
    result.latencies_ns = [clock.correct(stamped) for stamped in ops]
    result.restores_ns = [clock.correct(stamped) for stamped in restores]
    return result


def probe_setup(workload_name: str, seed: int) -> float:
    """Corrected set-up seconds of one fresh interpreter.

    The probe pays the imports and builds episode 0's inputs and
    scheduler (for ``vo-durable`` this includes the initial snapshot),
    counting from when its interpreter began running this file.
    """
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--probe-setup"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_TELEMETRY"):
        print("error: REPRO_TELEMETRY is set; telemetry selects the reference "
              "search, not the production path", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import workloads

    workload = workloads.Workload(args.workload)
    workdir = WORK / "work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe_setup:
            episode = workload.episode(args.seed, 0, workdir)
            elapsed = time.perf_counter() - _STARTED
            episode.close()
            print(elapsed * REFERENCE_KERNEL_NS / kernel_ns())
            return 0
        if args.trace:
            return traced_run(args, workload, workdir)
        return untraced_run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(measured: list[Measurement], run_problems: list[str], metrics: dict,
           lines=()) -> int:
    """Print the metrics and the result object (always the last line).

    Episode problems fail that episode's ops; a run-level problem (the
    paper's shape, span attribution) fails every op of the run.
    """
    attempted = sum(m.attempted for m in measured)
    failed = attempted if run_problems else sum(m.failed for m in measured)
    for problem in [p for m in measured for p in m.problems] + run_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:14.6f} {unit}")
    print(f"attempted {attempted} ops, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(args, workload, workdir: Path) -> int:
    setup_s = statistics.median(probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
    measured = run_episodes(
        workload, args.seed, workdir, deadline=time.perf_counter() + args.seconds
    )
    latencies_ms = [value / 1e6 for value in measured.latencies_ns]
    p50, samples, beyond50 = percentile(latencies_ms, 0.50)
    p95, _, beyond95 = percentile(latencies_ms, 0.95)
    metrics = {
        "ops_per_s": (samples / (sum(measured.latencies_ns) / 1e9), "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p95": (p95, "ms"),
        "setup_s": (setup_s, "s"),
    }
    factors = measured.clock.factors
    lines = [
        f"workload {args.workload}: {measured.episodes} episodes, {samples} ops timed; "
        f"p50 has {beyond50} samples beyond, p95 has {beyond95}",
        f"host speed factor: median {statistics.median(factors):.3f} over {len(factors)} "
        f"calibrations; raw wall ops_per_s {samples / (measured.raw_ns / 1e9):.4f}",
    ]
    if measured.restores_ns:
        lines.append(
            f"restore: median {statistics.median(measured.restores_ns) / 1e6:.3f} ms "
            f"over {len(measured.restores_ns)} restores"
        )
    return report([measured], workload.final_checks(), metrics, lines)


def traced_run(args, workload, workdir: Path) -> int:
    import tracing
    from repro.obs.telemetry import get_telemetry

    plain = run_episodes(
        workload, args.seed, workdir, deadline=time.perf_counter() + args.seconds / 2
    )
    # Taken before any span exists: the untraced episodes' peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_episodes(
            workload, args.seed, workdir, episodes=plain.episodes, tracer=tracer
        )
    finally:
        tracer.uninstall()
    problems = workload.final_checks()
    restore_ms = statistics.median(plain.restores_ns) / 1e6 if plain.restores_ns else 0.0
    overhead = sum(traced.latencies_ns) / sum(plain.latencies_ns)
    metrics, calls, attribution = tracing.layer_metrics(tracer.spans, restore_ms, overhead)
    problems.extend(attribution)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    if metrics["index.amp_calls"][0] <= 0:
        problems.append("traced run made no SlotIndex.find_amp_window_at call")
    if args.workload == "paper-series" and metrics["index.alp_calls"][0] <= 0:
        problems.append("traced run made no SlotIndex.find_alp_window call")
    if os.environ.get("REPRO_TELEMETRY") or get_telemetry().enabled:
        problems.append("telemetry was on during the traced run")
    spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)
    lines = [
        f"workload {args.workload}: {plain.episodes} episodes untraced then traced, "
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(CHECKOUT)}",
        "span calls: " + ", ".join(f"{name}={n}" for name, n in sorted(calls.items())),
    ]
    return report([plain, traced], problems, metrics, lines)


if __name__ == "__main__":
    sys.exit(main())
