"""Seed contract for the sweep executor.

Repetition *k* of every grid cell runs with seed ``base_seed + k`` --
common random numbers across cells, the paper's variance-reduction
convention -- whichever ``jobs`` value dispatches it:

1. **Golden stability** -- the first 50 task seeds match a hard-coded
   fixture, so any change to the seed arithmetic fails loudly.
2. **Serial compatibility** -- the seeds the ledger records are exactly the
   ones :func:`repro.sim.session.run_repetitions` assigns, at ``jobs`` 1
   and 2.
3. **Ledger compatibility** -- the header still names the ``"crn"`` seed
   mode, so ledgers written before the executors merged still resume.
"""

from __future__ import annotations

import pytest

from repro.core.config import PlatformConfig, ScalingAlgorithm
from repro.core.errors import ConfigurationError
from repro.core.ledger import MemoryLedger
from repro.sim.results import ResultStore
from repro.sim.session import run_repetitions
from repro.sim.sweep import SweepSpec, _build_tasks, run_sweep

# First 50 seeds in grid-major order (cell 0..4, reps 0..9) for
# base_seed=1000.  Hard-coded on purpose: regenerating them with the same
# formula would make the test a tautology.
GOLDEN_CRN = [
    # every cell reuses base_seed + k (common random numbers)
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
    1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009,
]

SPEC = SweepSpec(
    scaling=(ScalingAlgorithm.ALWAYS, ScalingAlgorithm.NEVER),
    mean_interarrival=(2.5,),
)


def small_base() -> PlatformConfig:
    return PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 40.0}
    )


def ledger_state(jobs: int, repetitions: int = 3, base_seed: int = 11):
    store = ResultStore(MemoryLedger())
    run_sweep(
        small_base(), SPEC, repetitions=repetitions, base_seed=base_seed,
        jobs=jobs, results=store,
    )
    return store.load()


class TestGolden:
    def test_crn_matches_fixture(self):
        cells = [{"cell": i} for i in range(5)]
        tasks = _build_tasks(small_base(), cells, 10, 1000, None, ())
        seeds = [seed for i in range(5) for seed in tasks[i].seeds]
        assert seeds == GOLDEN_CRN


class TestSerialCompatibility:
    def test_crn_reproduces_run_repetitions_seeds(self):
        results = run_repetitions(small_base(), repetitions=3, base_seed=11)
        serial_seeds = [r.seed for r in results]
        for jobs in (1, 2):
            state = ledger_state(jobs)
            # Every cell, not just cell 0, sees the serial ordering.
            for cell_index in range(SPEC.size()):
                assert [
                    state.completed[(cell_index, k)].seed for k in range(3)
                ] == serial_seeds

    def test_crn_default_mode(self):
        assert ledger_state(jobs=1, repetitions=1).meta.seed_mode == "crn"


class TestValidation:
    def test_zero_repetitions_rejected(self):
        with pytest.raises(ConfigurationError, match="repetitions"):
            run_sweep(small_base(), SPEC, repetitions=0)
