"""Fingerprint of the knowledge base's triples and of its ranked query.

``fixtures/kb_fingerprint.json`` pins, as SHA-256 digests, every triple
of the SCAN ontology in the store's own iteration order
(``store.match()``), the same for a knowledge base bootstrapped from the
GATK model, and the rows of ``ranked_instances("gatk")`` in the order
the query returns them.

Iteration order is pinned, not just the triple set: SPARQL rows tied on
their ``ORDER BY`` keys come out in store order, and the RDF/XML writer
sorts, so a sorted comparison would miss a change of order.  The store's
inner indexes are sets, whose order follows ``str`` hashes, so the
capture runs in a fresh interpreter with a fixed ``PYTHONHASHSEED``.

Regenerate (only when an *intentional* behaviour change lands)::

    PYTHONPATH=src python -m tests.knowledge.test_kb_fingerprint
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

FIXTURE = Path(__file__).parent / "fixtures" / "kb_fingerprint.json"

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import hashlib, json

    from repro.apps.gatk import build_gatk_model
    from repro.knowledge.kb import SCANKnowledgeBase
    from repro.ontology.scan_ontology import build_scan_ontology
    from repro.ontology.triples import IRI, Literal

    def term(value):
        if isinstance(value, Literal):
            return f'"{value.value!r}"^^<{value.datatype}>'
        if isinstance(value, IRI):
            return f"<{value}>"
        return repr(value)

    def digest(lines):
        return hashlib.sha256("\\n".join(lines).encode()).hexdigest()

    def store_entry(store):
        lines = [" ".join(term(t) for t in triple) for triple in store.match()]
        return {"triples": len(lines), "sha256": digest(lines)}

    kb = SCANKnowledgeBase()
    observations = kb.bootstrap_from_model(build_gatk_model())
    rows = kb.ranked_instances("gatk")
    row_lines = [
        " ".join(f"{key}={term(value)}" for key, value in sorted(row.items()))
        for row in rows
    ]
    print(json.dumps({
        "scan_ontology": store_entry(build_scan_ontology().store),
        "gatk_kb": dict(store_entry(kb.ontology.store),
                        observations=observations),
        "ranked_gatk": {
            "rows": len(rows),
            "sha256": digest(row_lines),
            "head": row_lines[:3],
        },
    }, indent=2, sort_keys=True))
    """
)


def _capture() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_knowledge_base_triples_and_ranking_unchanged():
    expected = json.loads(FIXTURE.read_text())
    actual = _capture()
    assert actual["ranked_gatk"]["head"] == expected["ranked_gatk"]["head"]
    assert actual == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_capture(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
