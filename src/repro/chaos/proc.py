"""Worker-kill injection and the supervised-restart ladder.

The experiment engine's :class:`~repro.sim.experiment.ParallelRunner`
runs real OS processes (a ``concurrent.futures`` process pool).  This
module provides both the *supervision* it uses to survive a dead worker
and the *injection* the chaos harness uses to kill one on purpose:

* :class:`WorkerSupervisor` — the restart budget and bounded
  exponential-backoff ladder (the same shape as
  :class:`~repro.grid.resilience.RetryPolicy`, shrunk to process
  restarts).  Because every worker assignment is derived-seed pure,
  a restarted worker recomputes exactly what the dead one would have
  produced, so supervised recovery is byte-identical to an undisturbed
  run; an exhausted budget raises
  :class:`~repro.core.errors.WorkerLostError`.
* :class:`CrashOnceSpanTask` — a picklable stand-in for the experiment
  engine's span task that ``SIGKILL``s its own worker process exactly
  once (a sentinel file makes the second attempt succeed), driving the
  pool's broken-pool recovery path with a *real* killed process.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.core.errors import InvalidRequestError

if TYPE_CHECKING:
    from repro.sim.experiment import ExperimentConfig, IterationOutcome

__all__ = [
    "CrashOnceSpanTask",
    "WorkerSupervisor",
]


@dataclass(frozen=True)
class WorkerSupervisor:
    """Restart budget + backoff ladder for dead parallel workers.

    Attributes:
        max_restarts: How many times a lost worker (or broken pool) may
            be replaced before :class:`~repro.core.errors.WorkerLostError`
            is raised.  ``0`` disables supervision: the first loss is
            fatal.
        backoff_base: Sleep before the first restart, in seconds.  The
            default keeps tests fast while still exercising the ladder.
        backoff_factor: Multiplier applied per further restart.
        backoff_cap: Upper bound on any single sleep.
    """

    max_restarts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise InvalidRequestError(
                f"max_restarts must be >= 0, got {self.max_restarts!r}"
            )
        if self.backoff_base < 0:
            raise InvalidRequestError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_factor < 1.0:
            raise InvalidRequestError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.backoff_cap < self.backoff_base:
            raise InvalidRequestError(
                f"backoff_cap {self.backoff_cap!r} below base {self.backoff_base!r}"
            )

    def delay(self, restarts: int) -> float:
        """Backoff before restart number ``restarts`` (1-based).

        Same ladder as :meth:`RetryPolicy.delay
        <repro.grid.resilience.RetryPolicy.delay>`:
        ``min(cap, base * factor**(restarts - 1))``.
        """
        if self.backoff_base <= 0.0:
            return 0.0
        exponent = max(0, restarts - 1)
        return min(self.backoff_cap, self.backoff_base * self.backoff_factor**exponent)

    def pause(self, restarts: int) -> None:
        """Sleep the ladder delay for restart number ``restarts``."""
        delay = self.delay(restarts)
        if delay > 0.0:
            time.sleep(delay)


@dataclass(frozen=True)
class CrashOnceSpanTask:
    """Span task that ``SIGKILL``s its own pool worker exactly once.

    A drop-in for :func:`repro.sim.experiment._run_shard` (the
    ``span_task`` seam of :class:`~repro.sim.experiment.ParallelRunner`):
    the first worker whose shard contains ``victim_index`` creates the
    sentinel file and kills itself — breaking the whole
    ``concurrent.futures`` pool, exactly like a real OOM-kill — and
    every later attempt, which sees the sentinel, computes the shard
    normally.  Instances are pickled into the worker, so all state must
    be immutable values.

    Attributes:
        sentinel: Path used to remember that the kill already happened.
        victim_index: Iteration index whose owning shard triggers the
            kill (faults target *work*, not worker identity, so the
            campaign is worker-count independent).
    """

    sentinel: str
    victim_index: int

    def __call__(
        self, config: "ExperimentConfig", indices: Sequence[int]
    ) -> "list[IterationOutcome]":
        """Run the shard, killing this worker first if it is the victim."""
        from repro.sim.experiment import _run_shard

        if self.victim_index in indices and not Path(self.sentinel).exists():
            Path(self.sentinel).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return _run_shard(config, indices)

