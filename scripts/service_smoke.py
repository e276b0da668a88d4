#!/usr/bin/env python
"""End-to-end crash-recovery smoke for ``scan-sim serve --service``.

The CI ``smoke`` job runs this against a *real* subprocess:

1. start the server with a SQLite queue store;
2. submit 1000 jobs across 4 tenants over HTTP;
3. drain in small chunks, then SIGKILL the server mid-drain;
4. restart the server on the same store;
5. assert full recovery: every accepted job is completed or still
   queued -- none lost, none duplicated -- then finish the drain.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--jobs 1000] [--port 0]

Exit code 0 on success; non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

TENANTS = ("alpha", "beta", "gamma", "delta")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(method: str, url: str, payload: dict | None = None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def _wait_for_server(base: str, deadline_s: float = 30.0) -> None:
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            _request("GET", f"{base}/health")
            return
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise RuntimeError(f"server at {base} never came up")


def _start_server(port: int, store: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--service", "--store", store,
            "--host", "127.0.0.1", "--port", str(port),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1000)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    port = args.port or _free_port()
    base = f"http://127.0.0.1:{port}"
    store = os.path.join(tempfile.mkdtemp(prefix="scan-smoke-"), "queue.db")

    print(f"[1/5] starting server on {base} (store {store})")
    proc = _start_server(port, store)
    try:
        _wait_for_server(base)

        print(f"[2/5] submitting {args.jobs} jobs across {len(TENANTS)} tenants")
        submitted = []
        for i in range(args.jobs):
            tenant = TENANTS[i % len(TENANTS)]
            body = _request(
                "POST", f"{base}/tenants/{tenant}/jobs",
                {"name": f"smoke-{i}", "size_gb": 1.0 + (i % 5),
                 "uid": f"{tenant}-smoke-{i:05d}"},
            )
            submitted.append(body["job"]["uid"])
        assert len(set(submitted)) == args.jobs, "duplicate uid assigned"
        state = _request("GET", f"{base}/service/state")
        assert state["accepted"] == args.jobs, state

        print("[3/5] draining in chunks, then SIGKILL mid-drain")
        drained = {}
        for _ in range(3):
            out = _request("POST", f"{base}/drain", {"max_jobs": 20})
            drained.update(out["outcomes"])
        # Lease a few more without resolving them: interrupted in flight.
        for _ in range(5):
            _request("POST", f"{base}/pop", {})
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        print(f"      killed with {len(drained)} drained, 5 leases in flight")

        print("[4/5] restarting on the same store")
        proc = _start_server(port, store)
        _wait_for_server(base)

        state = _request("GET", f"{base}/service/state")
        completed = state["finished"].get("completed", 0)
        queued = state["queued"]
        print(
            f"      recovered: {queued} queued + {completed} completed, "
            f"{state['recovered_interrupted']} interrupted re-queued"
        )
        # The recovery contract: nothing lost, nothing duplicated.
        assert state["leased"] == 0, f"leases must reset at boot: {state}"
        assert completed == len(drained), (completed, len(drained))
        assert queued + completed == args.jobs, (
            f"LOST OR DUPLICATED JOBS: {queued} queued + {completed} "
            f"completed != {args.jobs} accepted"
        )
        assert state["recovered_interrupted"] == 5, state
        # Re-submitting a completed uid must be rejected as a duplicate.
        done_uid = next(iter(drained))
        tenant = done_uid.split("-smoke-")[0]
        try:
            _request(
                "POST", f"{base}/tenants/{tenant}/jobs",
                {"name": "dup", "size_gb": 1.0, "uid": done_uid},
            )
            raise AssertionError("duplicate resubmission was accepted")
        except urllib.error.HTTPError as err:
            assert err.code == 409, err.code

        print(f"[5/5] finishing the drain of {queued} recovered jobs")
        while True:
            out = _request("POST", f"{base}/drain", {"max_jobs": 100})
            if not out["outcomes"] and out["queued"] == 0:
                break
        state = _request("GET", f"{base}/service/state")
        total_done = sum(state["finished"].values())
        assert total_done == args.jobs, state
        assert state["queued"] == 0 and state["leased"] == 0, state
        print(
            f"OK: all {args.jobs} accepted jobs accounted for across the "
            f"kill/restart cycle ({state['finished']})"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
