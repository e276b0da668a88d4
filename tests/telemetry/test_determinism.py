"""The telemetry determinism contract.

Disabled telemetry must be structurally absent (no hub, no imports, no
RNG draws); enabled telemetry may only *observe*, so every simulated
result is bit-identical either way.
"""

import sys

import pytest

from repro.core.config import PlatformConfig, TelemetryConfig
from repro.sim.session import SimulationSession


def _run(telemetry: bool, chaos: bool = False, seed: int = 4):
    config = PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 60.0}
    )
    if chaos:
        config = config.with_overrides(
            faults={"mtbf_tu": 40.0, "p_straggler": 0.05, "p_deploy_fail": 0.05}
        )
    if telemetry:
        config = config.with_overrides(telemetry={"enabled": True})
    session = SimulationSession(config)
    return session, session.run(seed=seed)


class TestHubFastPath:
    def test_disabled_config_yields_no_hub(self):
        from repro.telemetry.hub import TelemetryHub

        assert TelemetryHub.from_config(None) is None
        assert TelemetryHub.from_config(TelemetryConfig()) is None

    def test_enabled_config_builds_selected_instruments(self):
        from repro.telemetry.hub import TelemetryHub

        hub = TelemetryHub.from_config(
            TelemetryConfig(enabled=True, trace=True, metrics=False,
                            audit=False)
        )
        assert hub.tracer is not None
        assert hub.metrics is None
        assert hub.audit is None

    def test_disabled_session_has_no_hub(self):
        session, _ = _run(telemetry=False)
        assert session.telemetry is None


class TestBitIdenticalResults:
    def test_enabled_telemetry_does_not_change_results(self):
        _, plain = _run(telemetry=False)
        session, traced = _run(telemetry=True)
        assert traced == plain
        # ... while actually having traced the run.
        assert session.telemetry.tracer.n_events > 0

    def test_identical_under_chaos(self):
        # Fault injection draws from the RNG on the hot path; telemetry
        # observing those events must not shift a single draw.
        _, plain = _run(telemetry=False, chaos=True)
        _, traced = _run(telemetry=True, chaos=True)
        assert traced == plain

    def test_sim_time_results_repeat_across_traced_runs(self):
        _, first = _run(telemetry=True)
        _, second = _run(telemetry=True)
        assert first == second


class TestImportIsolation:
    def test_disabled_run_never_imports_telemetry(self):
        """A telemetry-off session works with repro.telemetry unimportable.

        This is the in-process version of the CI determinism job (which
        compares whole-process output byte-for-byte under an import
        blocker): pop the package from sys.modules, refuse any reimport,
        and run a full session.
        """
        removed = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "repro.telemetry" or name.startswith("repro.telemetry.")
        }

        class _Blocker:
            def find_spec(self, name, path=None, target=None):
                if name == "repro.telemetry" or name.startswith(
                    "repro.telemetry."
                ):
                    raise ImportError(f"{name} blocked by determinism test")
                return None

        blocker = _Blocker()
        sys.meta_path.insert(0, blocker)
        try:
            _, result = _run(telemetry=False)
            assert result.completed_runs > 0
        finally:
            sys.meta_path.remove(blocker)
            sys.modules.update(removed)

    def test_enabled_run_fails_under_import_blocker(self):
        """Sanity check that the blocker actually blocks."""
        removed = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "repro.telemetry" or name.startswith("repro.telemetry.")
        }

        class _Blocker:
            def find_spec(self, name, path=None, target=None):
                if name == "repro.telemetry" or name.startswith(
                    "repro.telemetry."
                ):
                    raise ImportError(f"{name} blocked by determinism test")
                return None

        blocker = _Blocker()
        sys.meta_path.insert(0, blocker)
        try:
            with pytest.raises(ImportError):
                _run(telemetry=True)
        finally:
            sys.meta_path.remove(blocker)
            sys.modules.update(removed)
