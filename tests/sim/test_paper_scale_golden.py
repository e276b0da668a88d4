"""Byte-identity of paper-scale sessions, where Eq. 1 is hottest.

The other golden fixtures run the busy preset or short sweeps; none of
them reaches the paper's own calibration (``size_unit_gb=4.0``, interval
2.0), where predictive scaling evaluates Eq. 1 over queues of ~20 jobs at
nearly every decision.  ``fixtures/paper_scale_golden.json`` pins
``SessionResult.metrics()`` for one such cell per allocation algorithm
under the time reward, plus one throughput-reward cell (whose marginal
value does depend on latency, so it keeps the ETT path).

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.sim.test_paper_scale_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import PlatformConfig
from repro.sim.session import SimulationSession

FIXTURE = Path(__file__).parent / "fixtures" / "paper_scale_golden.json"

SEED = 7

#: cell name -> (allocation, reward scheme)
CELLS = {
    "greedy": ("greedy", "time"),
    "long_term": ("long_term", "time"),
    "long_term_adaptive": ("long_term_adaptive", "time"),
    "learned": ("learned", "time"),
    "throughput_long_term_adaptive": ("long_term_adaptive", "throughput"),
}


def _config(allocation: str, scheme: str) -> PlatformConfig:
    return PlatformConfig.paper_defaults().with_overrides(
        workload={"size_unit_gb": 4.0, "mean_interarrival": 2.0},
        scheduler={"allocation": allocation, "scaling": "predictive"},
        reward={"scheme": scheme},
        simulation={"duration": 400.0},
    )


def _canonical(name: str) -> str:
    allocation, scheme = CELLS[name]
    result = SimulationSession(_config(allocation, scheme)).run(seed=SEED)
    return json.dumps(result.metrics(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_paper_scale_cell_byte_identical(name):
    golden = json.loads(FIXTURE.read_text())
    assert _canonical(name) == golden[name]


if __name__ == "__main__":  # regeneration entry point
    out = {name: _canonical(name) for name in sorted(CELLS)}
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE}")
