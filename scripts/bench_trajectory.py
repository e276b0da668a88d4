#!/usr/bin/env python
"""Fold paired benchmark runs into the committed perf trajectory.

``BENCH_trajectory.json`` holds one entry per measured comparison of two
source trees (a *parent* and a *change*) on one benchmark workload.  An
entry is built from alternating pairs of untraced runs::

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

at the benchmark's run length ``T`` (``run_seconds`` in
``BENCHMARK.json``; an entry at any other length is refused), one pair
per seed; the side that runs first alternates from pair to
pair, the parent's first in the first pair.  perfbench overwrites its
record (``.perfbench_out/W-seedS-trace0.json``) on every run, so each
record is copied aside before the next run starts.

An entry holds each side's ``git_sha`` and ``src_sha256``, the host
block, the workload, the seeds, the run length and the pair count, and,
for every end-to-end metric in ``BENCHMARK.json``, each side's per-pair
values and their q1/median/q3, raw and normalized side by side, plus
the number of pairs the change won.  perfbench normalizes wall figures
by an interleaved reference loop whose speed depends on the measured
program's heap, so the raw figures are kept beside the normalized ones.
``peak_rss_mb`` is never normalized, so its two columns are equal.  A
figure whose raw form perfbench does not record (the simulation
workloads record a raw ``ms_per_tu`` but no raw ``ms_per_job``) has a
``null`` raw column and raw win count.

Usage (from the repository root; standard library only)::

    # run the pairs, copy each record aside, append one entry
    python scripts/bench_trajectory.py run --name NAME \\
        --parent PARENT_TREE --change CHANGE_TREE \\
        --workload service_mixed --seeds 2-11

    # fold records copied by an earlier ``run`` into an entry
    python scripts/bench_trajectory.py fold --name NAME \\
        --records DIR --workload service_mixed

    # validate BENCH_trajectory.json's schema and arithmetic
    python scripts/bench_trajectory.py --check

A tree is any checkout holding ``perfbench/`` and ``src/``, e.g. one
unpacked with ``git archive REV | tar -x -C DIR``.  Such a tree has no
``.git``, so perfbench records its ``git_sha`` as ``unknown``; pass
``--parent-sha``/``--change-sha`` to name the commits.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
RECORDS = os.path.join(ROOT, ".perfbench_out", "trajectory")
SCHEMA = "bench_trajectory/1"
SIDES = ("parent", "change")
FORMS = ("normalized", "raw")
HOST_KEYS = ("cpu_count", "cpus_usable", "implementation", "machine",
             "python")
#: End-to-end metrics perfbench reports as measured, never normalized.
UNNORMALIZED = ("peak_rss_mb",)
_GIT_SHA = re.compile(r"^([0-9a-f]{40}|unknown)$")
_SRC_SHA = re.compile(r"^[0-9a-f]{64}$")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def _wins(metric: dict, form: str) -> Optional[int]:
    if metric["parent"][form] is None:
        return None
    parent = metric["parent"][form]["values"]
    change = metric["change"][form]["values"]
    if metric["better"] == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def _record_path(records: str, workload: str, seed: int, side: str) -> str:
    return os.path.join(records, f"{workload}-seed{seed}-{side}.json")


def _parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds or len(set(seeds)) != len(seeds):
        raise SystemExit(f"--seeds {text!r}: need distinct seeds")
    return seeds


def run_pairs(trees: Dict[str, str], workload: str, seeds: Sequence[int],
              seconds: float, records: str) -> None:
    """Run one parent/change pair per seed and copy each record aside."""
    os.makedirs(records, exist_ok=True)
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            tree = trees[side]
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=tree, check=True, capture_output=True, text=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{side} seed {seed}: perfbench checks failed")
            stem = f"{workload}-seed{seed}-trace0.json"
            shutil.copyfile(os.path.join(tree, ".perfbench_out", stem),
                            _record_path(records, workload, seed, side))
            ms = result["metrics"]["ms_per_job"]["value"]
            print(f"seed {seed} {side:<6} ms_per_job {ms:.6g}", flush=True)


def fold(name: str, workload: str, records: str,
         shas: Dict[str, Optional[str]],
         seeds: Optional[Sequence[int]] = None) -> dict:
    """One trajectory entry from the copied records of *workload*: those
    of *seeds*, or every pair found."""
    if seeds is None:
        pattern = re.compile(rf"^{re.escape(workload)}-seed(\d+)-parent\.json$")
        seeds = sorted(
            int(m.group(1))
            for m in map(pattern.match, map(os.path.basename, glob.glob(
                os.path.join(records, f"{workload}-seed*-parent.json"))))
            if m
        )
    seeds = list(seeds)
    if not seeds:
        raise SystemExit(f"no {workload} records in {records}")
    loaded = {side: [] for side in SIDES}
    for seed in seeds:
        for side in SIDES:
            path = _record_path(records, workload, seed, side)
            if not os.path.exists(path):
                raise SystemExit(f"unpaired record: {path} is missing")
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            if not record["result"]["correct"] or record["trace"] != 0:
                raise SystemExit(f"{path}: not a correct untraced run")
            loaded[side].append(record)

    everything = loaded["parent"] + loaded["change"]
    host = {k: everything[0]["host"][k] for k in HOST_KEYS}
    for record in everything:
        if {k: record["host"][k] for k in HOST_KEYS} != host:
            raise SystemExit("records come from different hosts")
        if record["seconds"] != everything[0]["seconds"]:
            raise SystemExit("records have different run lengths")
    entry: dict = {"name": name, "workload": workload,
                   "seconds": everything[0]["seconds"], "seeds": seeds,
                   "pairs": len(seeds), "host": host}
    for side in SIDES:
        versions = {(r["host"]["git_sha"], r["host"]["src_sha256"])
                    for r in loaded[side]}
        if len(versions) != 1:
            raise SystemExit(f"the {side} records come from several trees")
        git_sha, src_sha = versions.pop()
        entry[side] = {"git_sha": shas.get(side) or git_sha,
                       "src_sha256": src_sha}

    metrics = {}
    for spec in _benchmark()["end_to_end"]:
        metric_name = spec["name"]
        metric = {"unit": spec["unit"], "better": spec["better"]}
        for side in SIDES:
            normalized = [r["result"]["metrics"][metric_name]["value"]
                          for r in loaded[side]]
            if metric_name in UNNORMALIZED:
                raw: Optional[List[float]] = normalized
            elif all(metric_name in r["raw"] for r in everything):
                raw = [r["raw"][metric_name] for r in loaded[side]]
            else:
                raw = None
            metric[side] = {
                "normalized": {"values": normalized, **_quartiles(normalized)},
                "raw": None if raw is None else {"values": raw,
                                                 **_quartiles(raw)},
            }
        metric["wins"] = {form: _wins(metric, form) for form in FORMS}
        metrics[metric_name] = metric
    entry["metrics"] = metrics
    return entry


def append_entry(entry: dict) -> None:
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = {"schema": SCHEMA, "entries": []}
    if any(e["name"] == entry["name"] for e in doc["entries"]):
        raise SystemExit(f"an entry named {entry['name']!r} already exists")
    doc["entries"].append(entry)
    problems = check(doc)
    if problems:
        raise SystemExit("\n".join(problems))
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"appended {entry['name']!r} to {os.path.relpath(TRAJECTORY, ROOT)}")


def check(doc: dict) -> List[str]:
    """Every schema or arithmetic problem of a trajectory document."""
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        return [f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}"]
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["entries must be a non-empty list"]
    benchmark = _benchmark()
    specs = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    names = [e.get("name") for e in entries]
    if len(set(names)) != len(names):
        problems.append(f"entry names repeat: {names}")
    for entry in entries:
        where = f"entry {entry.get('name')!r}"
        wanted = {"name", "workload", "seconds", "seeds", "pairs", "host",
                  "parent", "change", "metrics"}
        if set(entry) != wanted:
            problems.append(f"{where}: keys {sorted(entry)} != {sorted(wanted)}")
            continue
        seeds = entry["seeds"]
        if (not seeds or len(set(seeds)) != len(seeds)
                or entry["pairs"] != len(seeds)):
            problems.append(f"{where}: pairs must count distinct seeds")
        if entry["seconds"] != benchmark["run_seconds"]:
            problems.append(f"{where}: run length {entry['seconds']} s, not "
                            f"the benchmark's {benchmark['run_seconds']} s")
        if set(entry["host"]) != set(HOST_KEYS):
            problems.append(f"{where}: host keys {sorted(entry['host'])}")
        for side in SIDES:
            version = entry[side]
            if (set(version) != {"git_sha", "src_sha256"}
                    or not _GIT_SHA.match(str(version["git_sha"]))
                    or not _SRC_SHA.match(str(version["src_sha256"]))):
                problems.append(f"{where}: bad {side} version {version}")
        if set(entry["metrics"]) != set(specs):
            problems.append(f"{where}: metrics {sorted(entry['metrics'])} "
                            f"!= BENCHMARK.json {sorted(specs)}")
            continue
        for metric_name, metric in entry["metrics"].items():
            at = f"{where} {metric_name}"
            spec = specs[metric_name]
            if (metric.get("unit"), metric.get("better")) != (
                    spec["unit"], spec["better"]):
                problems.append(f"{at}: unit/better differ from BENCHMARK.json")
            try:
                if (metric["parent"]["raw"] is None) != (
                        metric["change"]["raw"] is None):
                    problems.append(f"{at}: raw figures on one side only")
                    continue
                for side in SIDES:
                    for form in FORMS:
                        stats = metric[side][form]
                        if stats is None and form == "raw":
                            continue
                        values = stats["values"]
                        if len(values) != entry["pairs"]:
                            problems.append(f"{at} {side} {form}: "
                                            f"{len(values)} values")
                            continue
                        if {k: stats[k] for k in ("q1", "median", "q3")} != \
                                _quartiles(values):
                            problems.append(f"{at} {side} {form}: quartiles "
                                            "do not match the values")
                for form in FORMS:
                    if metric["wins"][form] != _wins(metric, form):
                        problems.append(f"{at}: {form} win count is wrong")
            except (KeyError, TypeError) as exc:
                problems.append(f"{at}: malformed ({exc!r})")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="validate BENCH_trajectory.json and exit")
    sub = parser.add_subparsers(dest="command")
    for command in ("run", "fold"):
        p = sub.add_parser(command)
        p.add_argument("--name", required=True, help="the entry's name")
        p.add_argument("--workload", required=True)
        p.add_argument("--records", default=RECORDS,
                       help="where the copied records go / come from")
        p.add_argument("--parent-sha", default=None)
        p.add_argument("--change-sha", default=None)
        p.add_argument("--seeds", required=command == "run",
                       help="e.g. 2-11 or 1,3 (fold: default every pair "
                       "found)")
        if command == "run":
            p.add_argument("--parent", required=True, metavar="TREE")
            p.add_argument("--change", required=True, metavar="TREE")
    args = parser.parse_args(argv)

    if args.check:
        with open(TRAJECTORY, encoding="utf-8") as fh:
            problems = check(json.load(fh))
        for problem in problems:
            print(f"bench_trajectory: {problem}", file=sys.stderr)
        if not problems:
            print(f"{os.path.relpath(TRAJECTORY, ROOT)}: ok")
        return 1 if problems else 0
    if args.command is None:
        parser.error("give a command (run, fold) or --check")
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    if args.command == "run":
        trees = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
        run_pairs(trees, args.workload, seeds,
                  _benchmark()["run_seconds"], args.records)
    entry = fold(args.name, args.workload, args.records,
                 {"parent": args.parent_sha, "change": args.change_sha}, seeds)
    append_entry(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
