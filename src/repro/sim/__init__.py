"""The evaluation harness.

Everything Section IV needs: single simulation sessions, repeated runs
with the paper's mean +/- 1 sigma convention, the Table I parameter sweep,
and plain-text reporters that regenerate each table/figure's rows.

- :mod:`repro.sim.session` -- build-and-run one simulated SCAN deployment.
- :mod:`repro.sim.metrics` -- the per-session result record.
- :mod:`repro.sim.sweep` -- parameter grids and the one sweep executor,
  ``run_sweep(..., jobs=N)``: in-process for ``jobs=1``, a process pool
  otherwise, bit-identical rows either way.
- :mod:`repro.sim.results` -- result ledgers and incremental
  aggregation; the crash-resume substrate for long sweeps.
- :mod:`repro.sim.report` -- ASCII table/series rendering.
"""

from repro.sim.metrics import SessionResult
from repro.sim.session import SimulationSession, run_repetitions
from repro.sim.sweep import (
    SweepSpec,
    SweepRow,
    SweepExecutionError,
    resolve_jobs,
    run_cell_runs,
    row_from_runs,
    run_sweep,
)
from repro.sim.results import (
    ResultRecord,
    ResultStore,
    SweepAggregator,
    SweepMeta,
    open_result_stream,
)
from repro.sim.report import (
    render_table,
    render_series,
    rows_to_series,
    format_summary,
)

__all__ = [
    "SessionResult",
    "SimulationSession",
    "run_repetitions",
    "SweepSpec",
    "SweepRow",
    "run_cell_runs",
    "row_from_runs",
    "run_sweep",
    "SweepExecutionError",
    "resolve_jobs",
    "ResultRecord",
    "ResultStore",
    "SweepAggregator",
    "SweepMeta",
    "open_result_stream",
    "render_table",
    "render_series",
    "rows_to_series",
    "format_summary",
]
