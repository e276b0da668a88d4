"""The Chrome trace of two short sessions, pinned as a golden fixture.

``fixtures/trace_golden.json`` records, per session, the number of trace
events per ``(cat, name, ph)`` and a sha256 of the normalized event list:
task spans, boot spans, cloud instants, decision instants, broker and
engine spans, in the order they were written, with their sim-time
``ts``/``dur``, lane, args and error flag.

The two sessions cover every span the bus adapters build:

- ``chaos``: the chaos preset shortened to 200 TU -- stragglers,
  speculative twins, corruption, VM failures and deploy failures;
- ``star_fanout``: the 16-node fan-out DAG for 100 TU -- re-pools
  (``celar.resize``) and hire-or-wait decision instants.

Normalization keeps the fixture about behaviour, not bookkeeping:

- ``"M"`` lane metadata and each span's ``wall_us`` are dropped;
- so are the per-pass ``scheduler.dispatch`` span and ``queue.depth``
  counter, which no bus event describes;
- cloud instants keep only their ``tier`` and ``cores`` args (resize
  instants none), the ones every version of them carries;
- job names and worker lanes come from process-wide counters, so both
  are renamed in order of first appearance.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.telemetry.test_trace_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import PlatformConfig
from repro.core.presets import make_preset
from repro.sim.session import SimulationSession
from repro.telemetry.tracing import lane_for_worker

FIXTURE = Path(__file__).parent / "fixtures" / "trace_golden.json"

SEED = 3

#: Events no bus event maps to; not part of the pinned trace.
_DROPPED = {"scheduler.dispatch", "queue.depth"}

#: Cloud instant -> the args kept for comparison.
_CLOUD_ARGS = {
    "celar.deploy": ("tier", "cores"),
    "celar.deploy_failed": ("tier", "cores"),
    "celar.resize": (),
}


def _configs() -> dict[str, PlatformConfig]:
    return {
        "chaos": make_preset("chaos").with_overrides(
            simulation={"duration": 200.0}
        ),
        "star_fanout": PlatformConfig.paper_defaults().with_overrides(
            workflow="star_fanout", simulation={"duration": 100.0}
        ),
    }


def _trace_events(config: PlatformConfig) -> list[dict]:
    session = SimulationSession(
        config.with_overrides(telemetry={"enabled": True})
    )
    session.run(seed=SEED)
    return session.telemetry.tracer.to_chrome_trace()["traceEvents"]


def _normalize(events: list[dict]) -> list[dict]:
    jobs: dict[str, str] = {}
    workers: dict[int, int] = {}
    first_worker_lane = lane_for_worker(0)
    out = []
    for event in events:
        if event["ph"] == "M" or event["name"] in _DROPPED:
            continue
        event = dict(event)
        args = dict(event.get("args", {}))
        args.pop("wall_us", None)
        if event["name"] in _CLOUD_ARGS:
            args = {k: args[k] for k in _CLOUD_ARGS[event["name"]]}
        if "job" in args:
            job = jobs.setdefault(args["job"], f"job{len(jobs)}")
            if event["cat"] == "task":
                event["name"] = job + event["name"][len(args["job"]):]
            args["job"] = job
        if event["tid"] >= first_worker_lane:
            event["tid"] = workers.setdefault(
                event["tid"], first_worker_lane + len(workers)
            )
        event["args"] = args
        out.append(event)
    return out


def _summary(config: PlatformConfig) -> dict:
    events = _normalize(_trace_events(config))
    counts: dict[str, int] = {}
    for event in events:
        # Task spans are named "<job>/s<stage>"; count them per stage.
        name = event["name"].rsplit("/", 1)[-1]
        key = f"{event['cat']}/{name}/{event['ph']}"
        counts[key] = counts.get(key, 0) + 1
    canonical = json.dumps(events, sort_keys=True).encode()
    return {
        "events": len(events),
        "counts": dict(sorted(counts.items())),
        "sha256": hashlib.sha256(canonical).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(_configs()))
def test_trace_matches_golden(name):
    golden = json.loads(FIXTURE.read_text())[name]
    summary = _summary(_configs()[name])
    assert summary["counts"] == golden["counts"]
    assert summary == golden


if __name__ == "__main__":  # regeneration entry point
    out = {name: _summary(cfg) for name, cfg in sorted(_configs().items())}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE}")
