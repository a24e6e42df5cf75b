"""Deterministic chaos engine: seeded fault injection for the scheduler.

The durability layer (journal + snapshots) and the parallel experiment
engine (its process pool) promise to survive crashes, torn writes, full
disks, and killed processes.  This
package makes those promises *testable* instead of aspirational:

* :mod:`repro.chaos.faults` — the :class:`FaultPlan`/:class:`FaultPoint`
  model.  Faults are scheduled from a seed derived with
  :func:`derive_fault_seed` (no ambient entropy, per RPR001/RPR002), so
  every campaign replays exactly from one ``--chaos-seed``.
* :mod:`repro.chaos.fs` — a fault-injecting
  :class:`~repro.core.fsio.FileSystem` threaded through the journal and
  both checkpoint formats: torn writes, ``ENOSPC``, failed ``fsync``,
  rename failure, CRC bit-flips, and simulated crashes.
* :mod:`repro.chaos.proc` — worker-kill injection and the bounded
  exponential-backoff :class:`WorkerSupervisor` used by
  :class:`~repro.sim.experiment.ParallelRunner`.
* :mod:`repro.chaos.harness` — the crash-point sweep: crash a reference
  :class:`~repro.grid.checkpoint.DurableMetascheduler` run at *every*
  journal sequence point, restore, and assert byte-identity against the
  uninterrupted oracle; plus the storage-fault and killed-pool-worker
  campaigns.  Exposed on the CLI as ``repro-scheduler chaos``.
"""

from repro.chaos.faults import (
    FaultPlan,
    FaultPoint,
    InjectedFault,
    SimulatedCrash,
    derive_fault_seed,
)
from repro.chaos.fs import ChaosFilesystem
from repro.chaos.harness import (
    CampaignResult,
    ChaosReport,
    run_campaigns,
    sweep_crash_points,
    sweep_experiment_resume,
)
from repro.chaos.proc import CrashOnceSpanTask, WorkerSupervisor

__all__ = [
    "CampaignResult",
    "ChaosFilesystem",
    "ChaosReport",
    "CrashOnceSpanTask",
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
    "SimulatedCrash",
    "WorkerSupervisor",
    "derive_fault_seed",
    "run_campaigns",
    "sweep_crash_points",
    "sweep_experiment_resume",
]
