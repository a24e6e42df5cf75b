"""Resumable experiment series: checkpoint, kill, resume, byte-identical."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.errors import CheckpointMismatchError
from repro.core.journal import JournalWriter
from repro.sim import (
    ExperimentCheckpoint,
    ExperimentConfig,
    ParallelRunner,
    config_fingerprint,
    decode_outcome,
    encode_outcome,
    generate_iteration,
    run_iteration,
)

CONFIG = ExperimentConfig(iterations=18, seed=41)


def compute_outcome(config: ExperimentConfig, index: int):
    slots, batch = generate_iteration(config, index)
    return run_iteration(config, index, slots, batch)


class TestOutcomeCodec:
    def test_counted_outcome_round_trips(self):
        for index in range(6):
            outcome = compute_outcome(CONFIG, index)
            assert decode_outcome(encode_outcome(outcome)) == outcome

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(CONFIG) == config_fingerprint(
            ExperimentConfig(iterations=18, seed=41)
        )
        assert config_fingerprint(CONFIG) != config_fingerprint(
            ExperimentConfig(iterations=18, seed=42)
        )
        assert config_fingerprint(CONFIG) != config_fingerprint(
            ExperimentConfig(iterations=19, seed=41)
        )


def config_only_fingerprint(config: ExperimentConfig) -> str:
    """The header fingerprint of checkpoints written before the series
    scheme was fingerprinted: a hash of the config content alone."""
    payload = asdict(config)
    payload["objective"] = config.objective.value
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


class TestSeriesScheme:
    """A checkpoint only resumes under the series scheme that wrote it."""

    def write_untagged_checkpoint(self, path: Path) -> None:
        with JournalWriter(
            path, fsync=False, header={"fingerprint": config_only_fingerprint(CONFIG)}
        ) as writer:
            writer.append(
                "outcome",
                {"index": 0, "outcome": encode_outcome(compute_outcome(CONFIG, 0))},
            )

    def test_untagged_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        self.write_untagged_checkpoint(path)
        for workers in (1, 2):
            with pytest.raises(CheckpointMismatchError, match="series scheme"):
                ParallelRunner(CONFIG, workers=workers).run(
                    checkpoint=path, resume=True
                )

    def test_untagged_checkpoint_exits_2_from_cli(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        self.write_untagged_checkpoint(path)
        argv = ["experiment", "--iterations", "18", "--seed", "41"]
        assert main(argv + ["--checkpoint", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "error: checkpoint" in err
        assert "series scheme" in err


class TestSerialResume:
    def test_resume_equals_uninterrupted(self, tmp_path):
        reference = ParallelRunner(CONFIG).run()
        # Simulate a crash: checkpoint only the first 10 iterations.
        partial = tmp_path / "partial.jsonl"
        interrupted = 0

        def killer(attempted, counted):
            nonlocal interrupted
            interrupted = attempted
            if attempted >= 10:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(CONFIG).run(checkpoint=partial, progress=killer)
        assert interrupted == 10
        resumed = ParallelRunner(CONFIG).run(checkpoint=partial, resume=True)
        assert resumed == reference

    def test_resume_skips_finished_work(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        store = ExperimentCheckpoint(path, CONFIG, resume=True)
        assert store.completed == CONFIG.iterations
        store.close()
        # A fully-checkpointed resume recomputes nothing: the journal is
        # not appended to, and the result still matches a plain run.
        before = path.read_bytes()
        result = ParallelRunner(CONFIG).run(checkpoint=path, resume=True)
        assert result == ParallelRunner(CONFIG).run()
        assert path.read_bytes() == before

    def test_fresh_run_replaces_existing_checkpoint(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        other = ExperimentConfig(iterations=4, seed=999)
        ParallelRunner(other).run(checkpoint=path)
        # Same path, different config, no --resume: starts over cleanly.
        result = ParallelRunner(CONFIG).run(checkpoint=path)
        assert result == ParallelRunner(CONFIG).run()

    def test_resume_with_wrong_config_is_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        other = ExperimentConfig(iterations=18, seed=999)
        with pytest.raises(CheckpointMismatchError, match="different experiment"):
            ParallelRunner(other).run(checkpoint=path, resume=True)

    def test_resume_tolerates_torn_checkpoint_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ParallelRunner(CONFIG).run(checkpoint=path)
        # Tear the last record in half, as a SIGKILL mid-append would.
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2],
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="torn trailing journal record"):
            result = ParallelRunner(CONFIG).run(checkpoint=path, resume=True)
        # The torn iteration was simply recomputed.
        assert result == ParallelRunner(CONFIG).run()


class TestParallelResume:
    def test_resume_with_holes_matches_uninterrupted(self, tmp_path):
        reference = ParallelRunner(CONFIG, workers=1).run()
        path = tmp_path / "ck.jsonl"
        store = ExperimentCheckpoint(path, CONFIG)
        # Non-contiguous completion pattern, as an aborted sharded run leaves.
        for index in [0, 1, 2, 3, 7, 11, 12]:
            store.record(index, compute_outcome(CONFIG, index))
        store.close()
        for workers in (1, 3):
            resumed = ParallelRunner(CONFIG, workers=workers).run(
                checkpoint=path, resume=True
            )
            assert resumed == reference, f"workers={workers} diverged"

    def test_checkpointed_fresh_run_matches_plain_run(self, tmp_path):
        reference = ParallelRunner(CONFIG, workers=2).run()
        checkpointed = ParallelRunner(CONFIG, workers=2).run(
            checkpoint=tmp_path / "ck.jsonl"
        )
        assert checkpointed == reference

    def test_progress_reports_cached_iterations(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        store = ExperimentCheckpoint(path, CONFIG)
        for index in range(12):
            store.record(index, compute_outcome(CONFIG, index))
        store.close()
        calls = []
        ParallelRunner(CONFIG, workers=1).run(
            checkpoint=path,
            resume=True,
            progress=lambda attempted, counted: calls.append(attempted),
        )
        # One call per freshly-computed iteration, counting from the
        # resumed baseline.
        assert calls == list(range(13, CONFIG.iterations + 1))


@pytest.mark.slow
class TestKillResumeSmoke:
    """SIGKILL a checkpointed CLI run mid-flight, resume, diff stdout."""

    ARGS = [
        "experiment",
        "--iterations",
        "300",
        "--seed",
        "11",
    ]

    def cli(self, *extra, cwd):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.ARGS, *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=cwd,
        )

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = self.cli(cwd=tmp_path)
        ref_out, ref_err = reference.communicate(timeout=300)
        assert reference.returncode == 0, ref_err.decode()

        checkpoint = tmp_path / "ck.jsonl"
        victim = self.cli("--checkpoint", str(checkpoint), cwd=tmp_path)
        deadline = time.monotonic() + 240
        # Kill once a prefix of iterations is durably on disk.
        while time.monotonic() < deadline:
            if checkpoint.exists() and checkpoint.stat().st_size > 4000:
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.communicate(timeout=60)

        resumed = self.cli(
            "--checkpoint", str(checkpoint), "--resume", cwd=tmp_path
        )
        res_out, res_err = resumed.communicate(timeout=300)
        assert resumed.returncode == 0, res_err.decode()
        assert res_out == ref_out
        assert b"resuming from checkpoint" in res_err
