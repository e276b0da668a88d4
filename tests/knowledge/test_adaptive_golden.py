"""Bit-identity pin for adaptive-provider sessions.

``fixtures/adaptive_golden.json`` was captured from the sort-then-fit
online refitter.  The refitter's hot path (incremental sorted windows,
the lean :func:`~repro.analysis.regression.fit_linear`) must reproduce
every installed float: these tests re-run the same sessions and demand
exact equality of the session metrics, the final plane snapshot and the
full refit history.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.knowledge.test_adaptive_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import PlatformConfig
from repro.core.presets import make_preset
from repro.sim.session import SimulationSession

FIXTURE = Path(__file__).parent / "fixtures" / "adaptive_golden.json"

SEEDS = (0, 1)


def _configs() -> dict[str, PlatformConfig]:
    return {
        "fanout": make_preset("fanout").with_overrides(
            knowledge={"provider": "adaptive"},
            workload={"mean_interarrival": 5.0},
            simulation={"duration": 300.0},
        ),
        "drift": make_preset("drift").with_overrides(
            knowledge={"provider": "adaptive"},
            simulation={"duration": 300.0},
        ),
    }


def _capture(config: PlatformConfig, seed: int) -> dict:
    session = SimulationSession(config)
    result = session.run(seed=seed)
    history = [repr(record) for record in session.plane.history]
    return {
        "metrics": result.metrics(),
        "snapshot": session.plane.snapshot(),
        "refits": session.refitter.refits,
        "history_len": len(history),
        # The full history runs to thousands of records; its digest pins
        # every one of them byte for byte at a fraction of the size.
        "history_sha256": hashlib.sha256(
            "\n".join(history).encode()
        ).hexdigest(),
        "history_tail": history[-8:],
    }


def _canonical(payload: dict) -> str:
    # NaN-bearing fields (latency percentiles, cold-prior history) compare
    # as serialised text, where NaN == NaN.
    return json.dumps(payload, sort_keys=True)


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(_configs()))
def test_adaptive_session_bit_identical(name, seed):
    expected = _golden()[name][str(seed)]
    actual = _capture(_configs()[name], seed)
    assert actual["history_tail"] == expected["history_tail"]
    assert _canonical(actual) == _canonical(expected)


if __name__ == "__main__":  # regeneration entry point
    out = {
        name: {str(seed): _capture(cfg, seed) for seed in SEEDS}
        for name, cfg in _configs().items()
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE}")
