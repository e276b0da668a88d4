#!/usr/bin/env python
"""Gate the benchmark's deterministic counters against a committed baseline.

For each workload this runs::

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

and compares its deterministic counters exactly against
``benchmarks/perf_counters.json``.  The simulation workloads report every
counter in ``perfbench.sims.DETERMINISTIC_COUNTERS`` (event counts, EET
memo hits, provider calls, placements, bus publishes, scaling decisions,
pool acquires) and ``desim.processes``, the generator processes started
after assembly (the arrival process alone: stage executions, boots and
fault timers are calendar callbacks); ``service_mixed`` reports its queue pushes and ledger
appends, the two counters ``perfbench.service`` checks repeat across its
traced runs.  The counters depend only on the seed and the code, never on
the host, so any difference means the change moved the simulated
behaviour, the decision path's call pattern or the service's ledger
traffic.  Wall time is not gated.

Usage (from the repository root)::

    python scripts/check_perf_counters.py           # compare, exit 1 on drift
    python scripts/check_perf_counters.py --write   # regenerate the baseline

A change that moves a counter on purpose regenerates the baseline with
``--write`` and says why in its change notes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "benchmarks", "perf_counters.json")
SIM_WORKLOADS = ("chain_paper", "dag_adaptive", "tiers_chaos")
SERVICE_COUNTERS = ("service.queue.push.calls", "service.store.appends")
PROCESS_COUNTER = "desim.processes"
SEED = 1


def _counter_names() -> dict:
    """The gated counter names, by workload."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.sims import DETERMINISTIC_COUNTERS

    names = {w: DETERMINISTIC_COUNTERS + (PROCESS_COUNTER,) for w in SIM_WORKLOADS}
    names["service_mixed"] = SERVICE_COUNTERS
    return names


def measure(workload: str, names: tuple) -> dict:
    """The traced run's counters for *workload* at the gate's seed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: perfbench checks failed")
    return {name: result["metrics"][name]["value"] for name in names}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the baseline instead of comparing")
    args = parser.parse_args(argv)
    names = _counter_names()
    measured = {w: measure(w, names[w]) for w in names}
    if args.write:
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump({"seed": SEED, "counters": measured}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {os.path.relpath(BASELINE, ROOT)}")
        return 0
    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)["counters"]
    drift = []
    for workload, counters in names.items():
        expected = baseline.get(workload, {})
        for name in counters:
            want, got = expected.get(name), measured[workload][name]
            status = "ok" if want == got else "DRIFT"
            print(f"{workload:<13} {name:<32} {want!s:>9} {got!s:>9}  {status}")
            if want != got:
                drift.append(f"{workload} {name}: baseline {want}, measured {got}")
    for line in drift:
        print(f"counter drift: {line}", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
