"""In-process-vs-pool equivalence suite for the sweep executor.

The contract under test: :func:`repro.sim.sweep.run_sweep` returns rows
**bit-identical** to its in-process ``jobs=1`` run for any ``jobs`` count,
including under an active fault-injection configuration -- plus
crash/timeout retries, dead-lettering, resume across ``jobs`` values and
telemetry export around that contract.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.config import PlatformConfig, ScalingAlgorithm
from repro.core.errors import ConfigurationError
from repro.scheduler.resilience import RetryPolicy
from repro.sim import sweep
from repro.sim.sweep import (
    SweepExecutionError,
    SweepSpec,
    TaskFailure,
    _run_task,
    resolve_jobs,
    run_sweep,
)


def small_base(**overrides) -> PlatformConfig:
    config = PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 60.0, "repetitions": 2}
    )
    if overrides:
        config = config.with_overrides(**overrides)
    return config


SPEC = SweepSpec(
    scaling=(ScalingAlgorithm.ALWAYS, ScalingAlgorithm.NEVER),
    mean_interarrival=(2.5, 3.0),
)


def rows_as_bytes(rows) -> bytes:
    """Canonical byte serialization of a row list (the golden form)."""
    return json.dumps(
        [row.as_flat_dict() for row in rows], sort_keys=True
    ).encode()


# -- fault-injecting task runners (must be top-level for pickling) -----------

_FLAKY_DIR_VAR = "SCAN_TEST_FLAKY_DIR"


def _flaky_runner(payload):
    """Crash each task's first attempt; succeed via the real runner after."""
    marker = os.path.join(
        os.environ[_FLAKY_DIR_VAR],
        f"{payload.cell_index}_{payload.rep_start}",
    )
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("injected worker crash")
    return _run_task(payload)


def _poison_runner(payload):
    raise RuntimeError("poison task")


def _slow_first_runner(payload):
    """Sleep past the round deadline on each task's first attempt."""
    marker = os.path.join(
        os.environ[_FLAKY_DIR_VAR],
        f"{payload.cell_index}_{payload.rep_start}",
    )
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(5.0)
    return _run_task(payload)


class TestEquivalence:
    @pytest.fixture(scope="class")
    def serial_rows(self):
        return run_sweep(small_base(), SPEC, base_seed=42, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_rows_identical_across_jobs(self, serial_rows, jobs):
        parallel = run_sweep(small_base(), SPEC, base_seed=42, jobs=jobs)
        assert parallel == serial_rows
        assert rows_as_bytes(parallel) == rows_as_bytes(serial_rows)

    def test_identical_under_fault_injection(self):
        base = small_base(
            faults={
                "mtbf_tu": 40.0,
                "p_boot_fail": 0.2,
                "p_deploy_fail": 0.2,
                "p_straggler": 0.1,
            },
            resilience={"max_attempts": 3},
        )
        serial = run_sweep(base, SPEC, base_seed=99)
        parallel = run_sweep(base, SPEC, base_seed=99, jobs=2)
        assert parallel == serial
        assert rows_as_bytes(parallel) == rows_as_bytes(serial)
        # The chaos config actually bit: at least one cell saw failures.
        assert any(
            row["failed_runs"].mean > 0 or row["completion_fraction"].mean < 1.0
            for row in serial
        )

    def test_row_order_is_grid_order(self, serial_rows):
        parallel = run_sweep(small_base(), SPEC, base_seed=42, jobs=2)
        assert [r.params for r in parallel] == [r.params for r in serial_rows]


class TestResilience:
    def test_crashed_tasks_retry_to_identical_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAKY_DIR_VAR, str(tmp_path))
        serial = run_sweep(small_base(), SPEC, base_seed=42)
        parallel = run_sweep(
            small_base(),
            SPEC,
            base_seed=42,
            jobs=2,
            task_runner=_flaky_runner,
        )
        assert parallel == serial
        # Every task left its first-attempt crash marker.
        assert len(list(tmp_path.iterdir())) == SPEC.size()

    def test_poison_tasks_dead_letter(self, monkeypatch):
        monkeypatch.setattr(
            sweep, "TASK_RETRY", RetryPolicy(max_attempts=2, base_delay_tu=0.0)
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            run_sweep(
                small_base(),
                SPEC,
                base_seed=42,
                jobs=2,
                task_runner=_poison_runner,
            )
        failures = excinfo.value.failures
        assert len(failures) == SPEC.size()
        assert all(isinstance(f, TaskFailure) for f in failures)
        assert all(f.attempts == 2 for f in failures)
        assert "poison task" in str(excinfo.value)

    def test_timeout_then_retry_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAKY_DIR_VAR, str(tmp_path))
        spec = SweepSpec(mean_interarrival=(2.5,))
        serial = run_sweep(small_base(), spec, base_seed=7)
        parallel = run_sweep(
            small_base(),
            spec,
            base_seed=7,
            jobs=2,
            task_timeout_s=0.5,
            task_runner=_slow_first_runner,
        )
        assert parallel == serial


class TestReporting:
    def test_progress_fires_once_per_cell(self):
        calls = []
        run_sweep(
            small_base(),
            SPEC,
            base_seed=42,
            jobs=2,
            progress=lambda done, total, cell: calls.append((done, total, cell)),
        )
        assert len(calls) == SPEC.size()
        assert [done for done, _, _ in calls] == list(range(1, SPEC.size() + 1))
        assert all(total == SPEC.size() for _, total, _ in calls)


class TestStreamingResults:
    """The result sink against the process-pool executor.

    Streaming must keep rows bit-identical, dead-lettered tasks must land
    in the ledger as ``failed`` (the resume retry set -- the regression
    this class pins), and a resume must schedule exactly the missing
    repetitions.
    """

    def _store(self, tmp_path, name="r.jsonl"):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        return ResultStore(open_ledger(str(tmp_path / name)))

    def test_streamed_rows_identical(self, tmp_path):
        serial = run_sweep(small_base(), SPEC, base_seed=42)
        store = self._store(tmp_path)
        try:
            parallel = run_sweep(
                small_base(), SPEC, base_seed=42, jobs=2, results=store
            )
        finally:
            store.close()
        assert rows_as_bytes(parallel) == rows_as_bytes(serial)

    def test_dead_letter_recorded_as_failed_then_resumed(self, tmp_path,
                                                         monkeypatch):
        """Regression: the SweepExecutionError path must write ``failed``
        records, so the next ``--resume`` retries those repetitions
        instead of silently treating the sweep as unschedulable."""
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        monkeypatch.setattr(
            sweep, "TASK_RETRY", RetryPolicy(max_attempts=2, base_delay_tu=0.0)
        )
        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        with pytest.raises(SweepExecutionError):
            run_sweep(
                small_base(),
                SPEC,
                base_seed=42,
                jobs=2,
                task_runner=_poison_runner,
                results=store,
            )
        store.close()
        state = ResultStore(open_ledger(str(path))).load()
        # Every repetition of every cell is dead-lettered in the ledger.
        reps = small_base().simulation.repetitions
        assert len(state.failed) == SPEC.size() * reps
        assert state.completed == {}
        assert all("poison" in r.error for r in state.failed.values())
        # A resume with a healthy runner retries exactly those and
        # converges on the serial rows.
        store = ResultStore(open_ledger(str(path)))
        try:
            rows = run_sweep(
                small_base(),
                SPEC,
                base_seed=42,
                jobs=2,
                results=store,
                resume=True,
            )
        finally:
            store.close()
        serial = run_sweep(small_base(), SPEC, base_seed=42)
        assert rows_as_bytes(rows) == rows_as_bytes(serial)
        final = ResultStore(open_ledger(str(path))).load()
        assert len(final.completed) == SPEC.size() * reps
        assert final.failed == {}

    def test_resume_partial_cell_runs_only_missing(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(
            small_base(), SPEC, base_seed=42, jobs=2, results=store
        )
        store.close()
        lines = path.read_text().splitlines()
        total_records = len(lines) - 1
        # Drop the last three records: one cell loses both reps, another
        # loses one -- a resume runs exactly the missing repetitions.
        path.write_text("\n".join(lines[:-3]) + "\n")
        store = ResultStore(open_ledger(str(path)))
        try:
            rows = run_sweep(
                small_base(),
                SPEC,
                base_seed=42,
                jobs=2,
                results=store,
                resume=True,
            )
        finally:
            store.close()
        serial = run_sweep(small_base(), SPEC, base_seed=42)
        assert rows_as_bytes(rows) == rows_as_bytes(serial)
        final = path.read_text().splitlines()
        assert len(final) - 1 == total_records  # no duplicates

    def test_resume_complete_store_schedules_nothing(self, tmp_path):
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        serial = run_sweep(small_base(), SPEC, base_seed=42)
        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(
            small_base(), SPEC, base_seed=42, jobs=2, results=store
        )
        store.close()
        before = path.read_text()
        # Both dispatchers share one progress semantics: only cells this
        # call completes are announced.
        for jobs in (1, 2):
            store = ResultStore(open_ledger(str(path)))
            calls = []
            try:
                rows = run_sweep(
                    small_base(),
                    SPEC,
                    base_seed=42,
                    jobs=jobs,
                    results=store,
                    resume=True,
                    progress=lambda d, t, c: calls.append(d),
                )
            finally:
                store.close()
            assert path.read_text() == before
            assert calls == []  # no cell newly completed
            assert rows_as_bytes(rows) == rows_as_bytes(serial)

    @pytest.mark.parametrize("first,then", [(1, 2), (2, 1)])
    def test_resume_across_jobs_values(self, tmp_path, first, then):
        """A ledger started in-process resumes on the pool, and back."""
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        serial = run_sweep(small_base(), SPEC, base_seed=42)
        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(small_base(), SPEC, base_seed=42, jobs=first, results=store)
        store.close()
        lines = path.read_text().splitlines()
        # Keep the header and one record, as if killed right after it.
        path.write_text("\n".join(lines[:2]) + "\n")
        store = ResultStore(open_ledger(str(path)))
        calls = []
        try:
            rows = run_sweep(
                small_base(),
                SPEC,
                base_seed=42,
                jobs=then,
                results=store,
                resume=True,
                progress=lambda d, t, c: calls.append(d),
            )
        finally:
            store.close()
        assert rows_as_bytes(rows) == rows_as_bytes(serial)
        final = path.read_text().splitlines()
        # The ledger grew by exactly the missing records, kept in front.
        assert final[:2] == lines[:2]
        assert len(final) == len(lines)
        assert sorted(calls) == list(range(1, SPEC.size() + 1))

    def test_nonempty_store_without_resume_refused(self, tmp_path):
        from repro.core.errors import ConfigurationError
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        path = tmp_path / "r.jsonl"
        store = ResultStore(open_ledger(str(path)))
        run_sweep(
            small_base(), SPEC, base_seed=42, jobs=2, results=store
        )
        store.close()
        store = ResultStore(open_ledger(str(path)))
        try:
            with pytest.raises(ConfigurationError, match="--resume"):
                run_sweep(
                    small_base(), SPEC, base_seed=42, jobs=2, results=store
                )
        finally:
            store.close()


class TestConfig:
    def test_resolve_jobs(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(3) == 3
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)

    def test_bad_seed_mode_rejected(self):
        """A ledger written under the retired disjoint seed mode is
        refused on resume, not continued with different seeds."""
        import dataclasses

        from repro.core.ledger import MemoryLedger
        from repro.sim.results import ResultStore, sweep_meta

        base = small_base()
        meta = sweep_meta(base, list(SPEC.cells()), 2, 42)
        store = ResultStore(MemoryLedger())
        store.write_meta(dataclasses.replace(meta, seed_mode="disjoint"))
        with pytest.raises(ConfigurationError, match="seed_mode"):
            run_sweep(base, SPEC, base_seed=42, results=store, resume=True)

    def test_custom_registry_rejected(self):
        from repro.apps.registry import default_registry

        with pytest.raises(ValueError, match="registry"):
            run_sweep(
                small_base(), SPEC, base_seed=1, jobs=2,
                registry=default_registry(),
            )
