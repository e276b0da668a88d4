"""Ablation: the EQT estimator's EWMA smoothing factor.

EQT_i feeds both ETT (Eq. 2) and hence every allocation/scaling decision.
alpha -> 1 means "trust only the last observed wait" (jumpy); alpha -> 0
means "never update" (stale).  The ablation sweeps alpha at moderate load
and reports decision quality through the usual profit metric, plus a
direct measurement of EQT tracking error against realised waits.
"""

from __future__ import annotations

from repro.analysis.stats import aggregate_runs
from repro.core.bus import EventRecorder, TaskStarted
from repro.core.config import AllocationAlgorithm, ScalingAlgorithm
from repro.sim.report import render_table
from repro.sim.session import SimulationSession, run_repetitions

from .conftest import FIG4_UNIT_GB, bench_config

ALPHAS = (0.05, 0.3, 1.0)


def _config(alpha):
    return bench_config(
        workload={"mean_interarrival": 2.2, "size_unit_gb": FIG4_UNIT_GB},
        scheduler={
            "allocation": AllocationAlgorithm.LONG_TERM_ADAPTIVE,
            "scaling": ScalingAlgorithm.PREDICTIVE,
            "eqt_alpha": alpha,
        },
    )


def run_ablation():
    rows = []
    for alpha in ALPHAS:
        results = run_repetitions(_config(alpha), base_seed=5100)
        stats = aggregate_runs([r.metrics() for r in results])
        rows.append((alpha, stats))
    return rows


def measure_tracking_error(alpha: float) -> float:
    """Mean |EQT prediction - realised wait| over one session's tasks."""
    recorder = EventRecorder()
    session = SimulationSession(
        _config(alpha),
        observers=[lambda bus, p: recorder.attach(bus, [TaskStarted])],
    )
    session.run(seed=5150)
    estimator_alpha = alpha
    # Replay the observed waits through a fresh EWMA and score one-step
    # prediction error per stage.
    waits_by_stage: dict[int, list[float]] = {}
    for event in recorder.of_type(TaskStarted):
        waits_by_stage.setdefault(event.stage, []).append(event.wait)
    total_error = 0.0
    count = 0
    for waits in waits_by_stage.values():
        estimate = 0.0
        seen = 0
        for wait in waits:
            total_error += abs(estimate - wait)
            count += 1
            estimate = (
                wait
                if seen == 0
                else estimator_alpha * wait + (1 - estimator_alpha) * estimate
            )
            seen += 1
    return total_error / max(count, 1)


def test_eqt_alpha_ablation(print_header, benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    errors = {alpha: measure_tracking_error(alpha) for alpha in ALPHAS}
    print_header("Ablation -- EQT EWMA smoothing factor (interval 2.2)")
    print(
        render_table(
            ["alpha", "profit/run", "latency", "EQT tracking error (TU)"],
            [
                [alpha, stats["mean_profit_per_run"], stats["mean_latency"],
                 round(errors[alpha], 3)]
                for alpha, stats in rows
            ],
        )
    )

    # All settings must complete comparable work: EQT is a tuning knob,
    # not a correctness switch.
    completed = [stats["completed_runs"].mean for _a, stats in rows]
    assert max(completed) - min(completed) <= 0.15 * max(completed)
    assert all(err >= 0.0 for err in errors.values())
