"""Tests for workflow DAG specifications."""

import pytest

from repro.workflows.library import (
    integrative_figure1_workflow,
    mirna_fusion_workflow,
    variation_detection_workflow,
)
from repro.workflows.spec import WorkflowError, WorkflowSpec, WorkflowStep


def steps(*pairs):
    return [WorkflowStep(name, app) for name, app in pairs]


class TestConstruction:
    def test_single_step(self):
        spec = WorkflowSpec("w", [WorkflowStep("only", "gatk")], [])
        assert spec.entry_steps == ["only"]
        assert spec.terminal_steps == ["only"]
        assert len(spec) == 1

    def test_duplicate_step_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate step"):
            WorkflowSpec(
                "w", steps(("a", "gatk"), ("a", "bwa")), []
            )

    def test_unknown_app_rejected(self):
        with pytest.raises(WorkflowError, match="unregistered app"):
            WorkflowSpec("w", [WorkflowStep("a", "nonexistent")], [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(WorkflowError, match="unknown step"):
            WorkflowSpec("w", [WorkflowStep("a", "gatk")], [("a", "ghost")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate edge"):
            WorkflowSpec(
                "w",
                steps(("a", "bwa"), ("b", "gatk")),
                [("a", "b"), ("a", "b")],
            )

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowSpec("w", [], [])

    def test_bad_output_ratio_rejected(self):
        with pytest.raises(WorkflowError):
            WorkflowStep("a", "gatk", output_ratio=0.0)


class TestCycleDetection:
    def test_two_cycle_rejected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowSpec(
                "w",
                steps(("a", "bwa"), ("b", "bwa")),
                [("a", "b"), ("b", "a")],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            WorkflowSpec("w", steps(("a", "bwa")), [("a", "a")])

    def test_diamond_is_fine(self):
        spec = WorkflowSpec(
            "w",
            steps(("src", "bwa"), ("l", "gatk"), ("r", "gatk"), ("sink", "cytoscape")),
            [("src", "l"), ("src", "r"), ("l", "sink"), ("r", "sink")],
        )
        order = spec.topological_order
        assert order.index("src") < order.index("l") < order.index("sink")
        assert order.index("src") < order.index("r") < order.index("sink")


class TestFormatChecking:
    def test_sam_feeds_bam_consumer(self):
        # bwa outputs SAM, gatk consumes BAM: interchangeable encodings.
        variation_detection_workflow()

    def test_csv_consumer_accepts_anything(self):
        WorkflowSpec(
            "w",
            steps(("call", "gatk"), ("integrate", "cytoscape")),
            [("call", "integrate")],
        )

    def test_incompatible_edge_rejected(self):
        # maxquant outputs CSV; gatk consumes BAM: no good.
        with pytest.raises(WorkflowError, match="consumes"):
            WorkflowSpec(
                "w",
                steps(("pep", "maxquant"), ("call", "gatk")),
                [("pep", "call")],
            )


class TestLibrary:
    def test_all_library_workflows_valid(self):
        for factory in (
            variation_detection_workflow,
            mirna_fusion_workflow,
            integrative_figure1_workflow,
        ):
            spec = factory()
            assert spec.topological_order
            assert spec.entry_steps

    def test_figure1_shape(self):
        spec = integrative_figure1_workflow()
        assert set(spec.entry_steps) == {"align", "peptides", "phenotypes"}
        assert spec.terminal_steps == ["integrate"]
        assert set(spec.parents("integrate")) == {
            "variants", "peptides", "phenotypes",
        }
