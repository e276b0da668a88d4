#!/usr/bin/env python
"""Runtime reachability census: which ``src/`` functions does no entry point call?

The census copies a source tree, puts a ``sitecustomize.py`` into the
copy's ``src/`` and runs every user-facing entry point of the copy with
``PYTHONPATH`` pointing there:

- every example (``full_sweep.py`` under a 240 s timeout);
- ``scan-sim run --preset P`` for every preset, a traced run with
  ``--trace-out``/``--metrics-out`` and ``trace`` on its output, a
  ``--config`` run;
- ``sweep`` in memory, to a JSONL ledger and ``--resume`` on it, to a
  SQLite ledger, and with ``--jobs 2``;
- ``table2``, ``policies``, ``workflows``, ``tiers``, ``config-dump``,
  ``kb`` (plain, ``--snapshot-out``, ``--preset fanout --json``, the
  adaptive drift preset, ``--diff``) and ``submit``;
- the three ``scripts/`` smokes, each perfbench workload at ``--trace 0``
  and ``--trace 1``, and ``pytest benchmarks/``.

The hook installs ``sys.setprofile`` and ``threading.setprofile`` and
appends each newly seen ``repro`` function as ``file:firstlineno:qualname``
to one file per process, with line-buffered writes: processes killed
with SIGKILL (``scan-sim serve`` under ``service_smoke.py``, the pool
workers under ``sweep_resume_smoke.py``) keep what they reached, which
an at-exit dump would lose.  The seen-set is keyed by
``(file, line, qualname)``, not ``id(code)``, because a freed code object
hands its id to a later one.

The report lists every function definition under ``src/repro`` (from
``ast``; a definition's first line is its first decorator, as in
``co_firstlineno``) that no process reached, minus :data:`KEEP`, whose
entries are live or kept on purpose although the entry points above do
not call them.  A full census takes about 25 minutes on 2 vCPUs; it is
not part of CI.

Usage::

    python scripts/census.py [--tree DIR] [--workdir DIR] [--lanes N]
    python scripts/census.py --workdir DIR --report-only

Standard library only.  Exit code 0 when every entry point exited as
expected, 1 otherwise (the report is printed either way).
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Environment variable naming the directory the hook writes into.
CALLS_ENV = "SCAN_CENSUS_DIR"

#: Functions the entry points do not call that stay on purpose, as
#: ``fnmatch`` patterns over ``module-path:qualname`` -> reason.
KEEP: Dict[str, str] = {
    "repro/genomics/formats/*:parse_*": (
        "record readers: the stand-in for real NGS data (PAPER.md)"
    ),
    "repro/genomics/formats/*:write_*": (
        "record writers: the stand-in for real NGS data (PAPER.md)"
    ),
    "repro/genomics/formats/*:_parse_charge": "MGF reader helper",
    "repro/genomics/formats/*:_split_meta": "VCF reader helper",
    "repro/genomics/formats/*:VcfRecord.from_line": "VCF reader",
    "repro/genomics/formats/*:VcfHeader.from_lines": "VCF reader",
    "repro/broker/sharders.py:shard_*": (
        "record-level sharders over the NGS stand-in records"
    ),
    "repro/core/rpc.py:*._rpc_*": (
        "HTTP endpoints: live routes the smoke script does not request"
    ),
    "repro/core/rpc.py:ScanRpcServer.stop": (
        "run when `scan-sim serve` exits; the smoke script SIGKILLs it"
    ),
    "repro/core/platform.py:SCANPlatform.close": (
        "run when `scan-sim serve` exits; the smoke script SIGKILLs it"
    ),
    "repro/knowledge/plane.py:fit_stage_fact": (
        "batch fit that pins the online refitter's order-independent fit"
    ),
    "repro/telemetry/audit.py:replay_decision": (
        "offline re-derivation of a logged Eq. 1 decision"
    ),
    "repro/knowledge/advisor.py:ShardAdvisor._fixed_advice": (
        "broker and advisor fallback advice (tests/knowledge/test_advisor.py,"
        " tests/broker/test_broker.py)"
    ),
    "repro/workflows/compiled.py:CompiledWorkflow.as_app": (
        "DAG facade and DAG best_constant (tests/workflows/test_compiled.py)"
    ),
    "repro/service/queue.py:JobQueue.requeue": (
        "requeue path (tests/property/test_property_service.py)"
    ),
    "repro/service/queue.py:TenantQueue.evict_worst": (
        "shed path (tests/property/test_property_service.py)"
    ),
    "repro/sim/results.py:failed_records": (
        "sweep failure path (tests/sim/test_results.py)"
    ),
    "repro/knowledge/profiles.py:StageProfile.predict": (
        "reference that StageFact.predict mirrors"
        " (tests/knowledge/test_profiles.py)"
    ),
    "repro/ontology/sparql.py:cache_stats": (
        "SPARQL cache introspection: POST /kb/query takes arbitrary queries"
        " (tests/ontology/test_sparql_cache.py)"
    ),
    "repro/ontology/sparql.py:reset_cache_stats": (
        "SPARQL cache introspection: POST /kb/query takes arbitrary queries"
        " (tests/ontology/test_sparql_cache.py)"
    ),
    "repro/ontology/sparql.py:clear_caches": (
        "SPARQL cache reset: POST /kb/query takes arbitrary queries"
        " (tests/ontology/test_sparql_cache.py)"
    ),
    "repro/ontology/sparql.py:*Expr.evaluate": (
        "FILTER expressions: POST /kb/query takes arbitrary queries"
        " (tests/ontology/test_sparql.py)"
    ),
}

SITECUSTOMIZE = '''\
"""Census hook: record each repro function a process calls."""
import os
import sys
import threading

_DIR = os.environ.get({env!r})
if _DIR:
    _PREFIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repro")
    _SEEN = set()
    _OUT = open(
        os.path.join(_DIR, "calls-%d.txt" % os.getpid()), "a", buffering=1
    )

    def _hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(_PREFIX):
            return
        key = (filename, code.co_firstlineno,
               getattr(code, "co_qualname", code.co_name))
        if key in _SEEN:
            return
        _SEEN.add(key)
        _OUT.write("%s:%d:%s\\n" % key)

    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''.format(env=CALLS_ENV)


class Step:
    """One command of a census lane; *stdout* optionally names a file."""

    def __init__(
        self,
        argv: Sequence[str],
        stdout: Optional[str] = None,
        timeout: Optional[float] = None,
        ok: Sequence[object] = (0,),
    ) -> None:
        self.argv = list(argv)
        self.stdout = stdout
        self.timeout = timeout
        self.ok = tuple(ok)


def _cli(*args: str, **kw) -> Step:
    return Step([sys.executable, "-m", "repro.cli", *args], **kw)


def _py(*args: str, **kw) -> Step:
    return Step([sys.executable, *args], **kw)


def _presets(tree: str) -> List[str]:
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.core.presets import PRESETS\n"
         "print('\\n'.join(PRESETS.names()))"],
        cwd=tree, env=_env(tree, None), capture_output=True, text=True,
        check=True,
    )
    return out.stdout.split()


def lanes_for(tree: str, scratch: str) -> List[List[Step]]:
    """The entry points, as groups whose steps must run in order."""
    s = lambda name: os.path.join(scratch, name)  # noqa: E731
    # The longest group first, so the lanes finish together.
    groups: List[List[Step]] = [
        [_py("-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks")],
    ]
    for example in sorted(os.listdir(os.path.join(tree, "examples"))):
        if example.endswith(".py"):
            timeout = 240.0 if example == "full_sweep.py" else None
            # A timed-out full sweep still reached what it reached.
            groups.append([_py(os.path.join("examples", example),
                               timeout=timeout, ok=(0, "timeout"))])
    for preset in _presets(tree):
        groups.append([_cli("run", "--preset", preset, "--json")])
    groups.append([
        # A busy run, so the trace carries explained Eq. 1 decisions.
        _cli("run", "--preset", "busy", "--duration", "150", "--seed", "3",
             "--trace-out", s("run.trace.json"),
             "--metrics-out", s("run.prom")),
        _cli("trace", s("run.trace.json")),
    ])
    groups.append([
        _cli("config-dump", "smoke", stdout=s("smoke.json")),
        _cli("run", "--config", s("smoke.json"), "--json"),
    ])
    sweep = ("sweep", "--duration", "60", "--intervals", "2.0,3.0",
             "--repetitions", "2")
    groups.append([
        _cli(*sweep),
        _cli(*sweep, "--results-out", s("sweep.jsonl")),
        _cli(*sweep, "--results-out", s("sweep.jsonl"), "--resume"),
        _cli(*sweep, "--results-out", s("sweep.db")),
        _cli(*sweep, "--jobs", "2"),
    ])
    groups.append([
        _cli("table2"),
        _cli("policies"),
        _cli("policies", "--json"),
        _cli("workflows"),
        _cli("workflows", "--json"),
        _cli("tiers"),
        _cli("tiers", "--preset", "spot_saver", "--json"),
        _cli("submit"),
    ])
    groups.append([
        _cli("kb"),
        _cli("kb", "--snapshot-out", s("kb-before.json")),
        _cli("kb", "--preset", "fanout", "--json"),
        _cli("kb", "--preset", "drift", "--estimates", "adaptive",
             "--snapshot-out", s("kb-after.json")),
        _cli("kb", "--diff", s("kb-before.json"), s("kb-after.json")),
    ])
    groups.append([_py(os.path.join("scripts", "service_smoke.py"),
                       "--jobs", "300")])
    groups.append([_py(os.path.join("scripts", "sweep_resume_smoke.py"),
                       "--jobs", "2")])
    groups.append([_py(os.path.join("scripts", "check_perf_counters.py"))])
    for workload in ("chain_paper", "dag_adaptive", "tiers_chaos",
                     "service_mixed"):
        groups.append([
            _py("perfbench/run.py", "--workload", workload, "--trace", "0"),
            _py("perfbench/run.py", "--workload", workload, "--trace", "1"),
        ])
    return groups


def _env(tree: str, calls_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env.pop(CALLS_ENV, None)
    if calls_dir is not None:
        env[CALLS_ENV] = calls_dir
    return env


def run_lanes(
    tree: str, workdir: str, lanes: int
) -> List[Tuple[str, object]]:
    """Run every group over *lanes* threads; returns the failed steps."""
    calls_dir = os.path.join(workdir, "calls")
    logs = os.path.join(workdir, "logs")
    scratch = os.path.join(workdir, "scratch")
    for d in (calls_dir, logs, scratch):
        os.makedirs(d, exist_ok=True)
    groups = lanes_for(tree, scratch)
    env = _env(tree, calls_dir)
    queue = list(enumerate(groups))
    lock = threading.Lock()
    failures: List[Tuple[str, object]] = []

    def worker() -> None:
        while True:
            with lock:
                if not queue:
                    return
                index, group = queue.pop(0)
            for n, step in enumerate(group):
                label = " ".join(os.path.basename(a) for a in step.argv[1:])
                log = os.path.join(logs, f"{index:03d}-{n}.log")
                with open(log, "w") as err:
                    out = open(step.stdout, "w") if step.stdout else err
                    try:
                        code: object = subprocess.run(
                            step.argv, cwd=tree, env=env, stdout=out,
                            stderr=err, timeout=step.timeout,
                            start_new_session=True,
                        ).returncode
                    except subprocess.TimeoutExpired:
                        code = "timeout"
                    finally:
                        if out is not err:
                            out.close()
                print(f"  [{code}] {label}", flush=True)
                if code not in step.ok:
                    with lock:
                        failures.append((label, code))

    threads = [threading.Thread(target=worker) for _ in range(max(lanes, 1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return failures


def definitions(src: str) -> Iterator[Tuple[str, int, str, int]]:
    """(module path, first line, qualname, line count) of every def."""
    package = os.path.join(src, "repro")
    for dirpath, _dirs, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            rel = os.path.relpath(path, src).replace(os.sep, "/")
            yield from _walk(tree, rel, "")


def _walk(node: ast.AST, rel: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            qualname = prefix + child.name
            yield rel, first, qualname, child.end_lineno - first + 1
            yield from _walk(child, rel, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, rel, prefix + child.name + ".")
        else:
            yield from _walk(child, rel, prefix)


def reached(calls_dir: str, src: str) -> Set[Tuple[str, int, str]]:
    seen: Set[Tuple[str, int, str]] = set()
    for name in os.listdir(calls_dir):
        with open(os.path.join(calls_dir, name), encoding="utf-8") as fh:
            for line in fh:
                path, lineno, qualname = line.rstrip("\n").rsplit(":", 2)
                rel = os.path.relpath(path, src).replace(os.sep, "/")
                seen.add((rel, int(lineno), qualname))
    return seen


def kept_by(rel: str, qualname: str) -> Optional[str]:
    for pattern, reason in KEEP.items():
        if fnmatch.fnmatchcase(f"{rel}:{qualname}", pattern):
            return reason
    return None


def report(tree: str, workdir: str) -> int:
    """Print the unreached functions; returns how many there are."""
    src = os.path.join(tree, "src")
    seen = reached(os.path.join(workdir, "calls"), src)
    unreached, kept = [], []
    for rel, first, qualname, lines in definitions(src):
        if (rel, first, qualname) in seen:
            continue
        reason = kept_by(rel, qualname)
        (kept if reason else unreached).append((rel, first, qualname, lines))
    for rel, first, qualname, lines in unreached:
        print(f"{rel}:{first}  {qualname}  ({lines} lines)")
    print(
        f"unreached: {len(unreached)} functions "
        f"({sum(u[3] for u in unreached)} lines); kept on purpose: "
        f"{len(kept)} ({sum(k[3] for k in kept)} lines); "
        f"reached: {len(seen)}"
    )
    return len(unreached)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT,
                        help="source tree to census (default: this repo)")
    parser.add_argument("--workdir",
                        help="where the copy, logs and call files go "
                        "(default: a new temporary directory)")
    parser.add_argument("--lanes", type=int, default=1,
                        help="entry-point groups run in parallel")
    parser.add_argument("--report-only", action="store_true",
                        help="re-read the call files of an earlier census")
    args = parser.parse_args(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="scan-census-")
    copy = os.path.join(workdir, "tree")
    failures: List[Tuple[str, object]] = []
    if not args.report_only:
        if os.path.exists(copy):
            parser.error(f"{copy} exists; pass a fresh --workdir")
        shutil.copytree(
            args.tree, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".perfbench_out", ".pytest_cache",
                "*.egg-info",
            ),
        )
        with open(os.path.join(copy, "src", "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        print(f"census of {args.tree} in {workdir}", flush=True)
        failures = run_lanes(copy, workdir, args.lanes)
    report(copy, workdir)
    for label, code in failures:
        print(f"FAILED [{code}] {label}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
