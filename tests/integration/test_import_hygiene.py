"""A simulation and a JSONL service plane load no heavy package.

XML, HTTP, TLS, SQLite and process pools are each reached from one
optional path (the RDF/XML writer, the RPC server, a SQLite ledger, a
parallel sweep), so those paths import them on first use.  The same holds
for the ontology stack and the knowledge base over it, which only the
facade, the broker and the ``kb``/``table2`` commands use.  Every package
they pull in costs resident memory in each sweep worker and benchmark
process.  The check runs in a fresh interpreter: this test process has
long since imported all of them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

HEAVY = (
    "xml.sax",
    "urllib.request",
    "http.client",
    "ssl",
    "sqlite3",
    "concurrent.futures",
    "multiprocessing",
    "repro.ontology",
    "repro.knowledge.kb",
)

SCRIPT = textwrap.dedent(
    """
    import os, sys, tempfile

    import repro.sim
    from repro.core.presets import make_preset
    from repro.service.plane import ServicePlane
    from repro.sim.session import SimulationSession

    cfg = make_preset("busy").with_overrides(simulation={"duration": 100.0})
    assert SimulationSession(cfg).run(seed=1).completed_runs > 0

    with tempfile.TemporaryDirectory() as tmp:
        plane = ServicePlane(store=os.path.join(tmp, "queue.jsonl"))
        decision, _job = plane.submit("tenant-a", "job-1", 4.0)
        assert decision.accepted
        leased = plane.pop()
        plane.finish(leased.uid)
        plane.close()

    print(" ".join(m for m in sys.argv[1:] if m in sys.modules))
    """
)


def test_session_and_jsonl_service_skip_heavy_stdlib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *HEAVY],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == []
