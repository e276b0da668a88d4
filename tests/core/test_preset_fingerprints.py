"""Fingerprints of every preset's ``run --json`` text at seeds 1 and 2.

``fixtures/preset_fingerprints.json`` maps ``"<preset>/<seed>"`` to the
SHA-256 of ``json.dumps(result.as_dict(), default=str, indent=2)``: the
text ``scan-sim run --json`` prints, without its final newline.  Each
session runs the registered preset cut to 60 TU, i.e. what ``scan-sim
run --config FILE --seed N --json`` prints for ``config-dump <preset>``
with ``simulation.duration`` set to 60 (``run --preset`` ignores
``--duration``).

This replaces comparing those 22 outputs against a parent checkout by
hand; a change that moves any of them must be intentional.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.core.test_preset_fingerprints
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.presets import make_preset, preset_names
from repro.sim.session import SimulationSession

FIXTURE = Path(__file__).parent / "fixtures" / "preset_fingerprints.json"

SEEDS = (1, 2)
DURATION_TU = 60


def run_json(preset: str, seed: int) -> str:
    """The text ``run --json`` prints for *preset* cut to 60 TU."""
    config = make_preset(preset).with_overrides(
        simulation={"duration": DURATION_TU}
    )
    result = SimulationSession(config).run(seed=seed)
    return json.dumps(result.as_dict(), default=str, indent=2)


def fingerprint(preset: str, seed: int) -> str:
    return hashlib.sha256(run_json(preset, seed).encode()).hexdigest()


KEYS = [(name, seed) for name in preset_names() for seed in SEEDS]


def _capture() -> dict:
    return {f"{name}/{seed}": fingerprint(name, seed) for name, seed in KEYS}


def test_fixture_covers_every_preset():
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == sorted(f"{name}/{seed}" for name, seed in KEYS)


@pytest.mark.parametrize("preset,seed", KEYS)
def test_run_json_unchanged(preset, seed):
    expected = json.loads(FIXTURE.read_text())[f"{preset}/{seed}"]
    assert fingerprint(preset, seed) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
