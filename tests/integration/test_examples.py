"""Smoke tests: every example script runs and prints what it promises.

The figure-regeneration examples are exercised indirectly by the benchmark
suite (same code paths) and skipped here for time; the rest run end to end
as subprocesses, exactly as a user would invoke them.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "broker advice" in out
        assert "analysis complete" in out
        assert "platform metrics:" in out

    def test_knowledge_base_tour(self):
        out = run_example("knowledge_base_tour.py")
        assert "owl:NamedIndividual" in out
        assert "GATK1" in out
        assert "Shard advice" in out
        # Table II recovery printed paper-vs-fit pairs.
        assert "HaplotypeCaller" in out

    def test_data_broker_sharding(self):
        out = run_example("data_broker_sharding.py")
        assert "25 shards" in out
        assert "whole blocks moved" in out
        assert "duplicate collapsed" in out

    def test_cancer_pipeline(self):
        out = run_example("cancer_pipeline.py", timeout=600.0)
        assert "true mutations recovered" in out
        assert "somatic calls survive" in out
        assert "##fileformat=VCF" in out
        assert "integrated score" in out

    def test_resilience_demo(self):
        out = run_example("resilience_demo.py", timeout=600.0)
        assert "chaos ablation" in out
        assert "resilience ON" in out
        assert "resilience OFF" in out
        assert "kept" in out

    def test_integrative_workflow(self):
        out = run_example("integrative_workflow.py")
        assert "workflow complete" in out
        assert "bwa, cellprofiler, cytoscape, gatk, maxquant" in out
        # The step timeline: all three entry branches start, and the
        # integration step starts only after the slowest branch finished.
        events = re.findall(r"^\s*t=\s*[\d.]+\s+(start|finish)\s+(\w+)$", out, re.M)
        for entry in ("align", "peptides", "phenotypes"):
            assert ("start", entry) in events
        assert events.index(("start", "integrate")) > max(
            events.index(("finish", tail))
            for tail in ("variants", "peptides", "phenotypes")
        )
        assert events[-1] == ("finish", "integrate")

    def test_custom_policy_demo(self):
        out = run_example("custom_policy_demo.py")
        assert "escalating" in out
        assert "greedy" in out
        assert "custom policy demo complete" in out

    def test_dag_workflow_demo(self):
        out = run_example("dag_workflow_demo.py")
        assert "star_fanout (16 nodes, dag)" in out
        assert "critical-path ETT" in out
        assert "branch overlap recovered" in out
        assert "fanout preset session" in out

    def test_cost_frontier_demo(self):
        out = run_example("cost_frontier_demo.py", timeout=600.0)
        assert "frontier" in out
        assert "per-tier cost curves" in out
        assert "cheapest mix per deadline" in out
        assert "spot_saver" in out

    def test_examples_all_covered(self):
        """Every example file is either tested here or a figure/sweep
        regenerator covered by the benchmark suite."""
        here = {
            "quickstart.py", "knowledge_base_tour.py",
            "data_broker_sharding.py", "cancer_pipeline.py",
            "integrative_workflow.py", "resilience_demo.py",
            "custom_policy_demo.py", "dag_workflow_demo.py",
            "cost_frontier_demo.py",
        }
        # Each regenerates a paper figure that the CI paper-claims job
        # checks through the benchmark named beside it.
        bench_covered = {
            "figure4_scaling.py",  # benchmarks/test_fig4_profit_vs_arrival.py
            "figure5_corestages.py",  # benchmarks/test_fig5_reward_cost.py
            "full_sweep.py",  # benchmarks/test_table1_sweep.py and
            # benchmarks/test_fullgrid_claims.py
        }
        on_disk = {p.name for p in EXAMPLES.glob("*.py")}
        assert on_disk == here | bench_covered
