#!/usr/bin/env python
"""Crash-resume conformance smoke for ``scan-sim sweep --results-out``.

The CI ``sweep-smoke`` job runs this against *real* subprocesses:

1. run the sweep uninterrupted, capturing its table as the reference;
2. start the identical sweep against a fresh JSONL result ledger, poll
   the ledger, and SIGKILL its whole process group (driver and pool
   workers) mid-grid, after some repetitions have committed but before
   the sweep can finish;
3. resume with ``--resume`` on the same ledger and let it complete;
4. assert the conformance contract:
   - **no repetition lost**: the ledger holds every (cell, repetition)
     of the grid exactly once,
   - **no repetition re-run**: every key committed before the kill is
     still the *first* (and only) completed record for that key,
   - **byte-identical report**: the resumed run's table equals the
     uninterrupted reference byte for byte.

Usage::

    PYTHONPATH=src python scripts/sweep_resume_smoke.py [--jobs 2]

Exit code 0 on success; non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

#: Enough cells that a mid-grid kill is easy to land: 3 scaling policies
#: x 3 intervals x 2 repetitions = 18 repetitions of real simulation,
#: roughly a second each, so the kill window is seconds wide.
SWEEP_ARGS = [
    "sweep",
    "--duration", "1000",
    "--repetitions", "2",
    "--intervals", "2.2,2.5,2.8",
    "--seed", "7",
]
GRID_CELLS = 3 * 3
REPETITIONS = 2


def _run(extra: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *SWEEP_ARGS, *extra],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _start(extra: list[str]) -> subprocess.Popen:
    """Start the sweep as the leader of its own process group.

    The ``--jobs`` pool workers join that group, so one ``killpg`` takes
    down the driver and every worker together.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *SWEEP_ARGS, *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the sweep's whole process group and reap the driver."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member already exited
    proc.wait(timeout=30)


def _completed_keys(ledger: str) -> dict[tuple[int, int], int]:
    """(cell, rep) -> count of completed records in the ledger."""
    counts: dict[tuple[int, int], int] = {}
    try:
        with open(ledger, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return counts
    for i, line in enumerate(lines):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue  # torn tail from the kill: expected
            raise
        if raw.get("op") != "result":
            continue
        rec = raw["record"]
        if rec["status"] != "completed":
            continue
        key = (rec["cell_index"], rec["rep_index"])
        counts[key] = counts.get(key, 0) + 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the sweep subprocesses",
    )
    parser.add_argument(
        "--min-committed", type=int, default=3,
        help="repetitions that must be in the ledger before the kill",
    )
    args = parser.parse_args()
    jobs = ["--jobs", str(args.jobs)]
    total_reps = GRID_CELLS * REPETITIONS

    workdir = tempfile.mkdtemp(prefix="scan-sweep-smoke-")
    ledger = os.path.join(workdir, "results.jsonl")

    print(f"[1/4] reference run (uninterrupted, --jobs {args.jobs})")
    ref = _run(jobs)
    if ref.returncode != 0:
        print(ref.stdout, file=sys.stderr)
        raise AssertionError(f"reference sweep failed: {ref.returncode}")
    reference_table = ref.stdout

    print(f"[2/4] killing a streaming run mid-grid (ledger {ledger})")
    proc = _start([*jobs, "--results-out", ledger])
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            committed = _completed_keys(ledger)
            if proc.poll() is not None:
                raise AssertionError(
                    "sweep finished before the kill landed; raise "
                    "--duration or lower --min-committed"
                )
            if len(committed) >= args.min_committed:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("ledger never accumulated enough records")
    finally:
        _kill_group(proc)

    survived = _completed_keys(ledger)
    assert len(survived) < total_reps, (
        "kill landed after completion; nothing left to resume"
    )
    print(
        f"      killed with {len(survived)}/{total_reps} repetitions "
        f"committed"
    )

    print("[3/4] resuming on the same ledger")
    resumed = _run([*jobs, "--results-out", ledger, "--resume"])
    if resumed.returncode != 0:
        print(resumed.stdout, file=sys.stderr)
        raise AssertionError(f"resume failed: {resumed.returncode}")

    print("[4/4] checking the conformance contract")
    final = _completed_keys(ledger)
    # No repetition lost: the full grid is present...
    expected = {
        (cell, rep)
        for cell in range(GRID_CELLS)
        for rep in range(REPETITIONS)
    }
    missing = expected - set(final)
    assert not missing, f"LOST repetitions: {sorted(missing)}"
    extra_keys = set(final) - expected
    assert not extra_keys, f"unexpected keys: {sorted(extra_keys)}"
    # ...exactly once: nothing was re-run or double-recorded.
    dupes = {k: n for k, n in final.items() if n != 1}
    assert not dupes, f"RE-RUN/DUPLICATED repetitions: {dupes}"
    for key in survived:
        assert final[key] == 1, f"pre-kill record re-written: {key}"
    # And the resumed report is byte-identical to the reference.
    assert resumed.stdout == reference_table, (
        "resumed table differs from the uninterrupted reference:\n"
        f"--- reference ---\n{reference_table}\n"
        f"--- resumed ---\n{resumed.stdout}"
    )
    print(
        f"OK: {len(survived)} pre-kill + {total_reps - len(survived)} "
        f"resumed repetitions, zero lost, zero duplicated, report "
        f"byte-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
