"""Tests for compiled workflows: lowering specs to scheduler-native DAGs."""

import pytest

from repro.workflows.compiled import CompiledWorkflow, chain_of, compile_spec
from repro.workflows.library import (
    gatk_chain_workflow,
    mirna_fusion_workflow,
    star_fanout_workflow,
    variation_detection_workflow,
)
from repro.workflows.spec import WorkflowError, WorkflowSpec, WorkflowStep


def diamond_spec(src_ratio=0.5, left_ratio=2.0, right_ratio=3.0):
    # Cytoscape consumes CSV (the universal consumer), so any topology
    # is format-valid -- the shape, not the tools, is under test.
    return WorkflowSpec(
        "diamond",
        [
            WorkflowStep("src", "cytoscape", output_ratio=src_ratio),
            WorkflowStep("left", "cytoscape", output_ratio=left_ratio),
            WorkflowStep("right", "cytoscape", output_ratio=right_ratio),
            WorkflowStep("sink", "cytoscape"),
        ],
        [("src", "left"), ("src", "right"), ("left", "sink"), ("right", "sink")],
    )


class TestChainOf:
    def test_shape_matches_app(self, gatk_model):
        wf = chain_of(gatk_model)
        assert wf.is_chain
        assert wf.n_nodes == gatk_model.n_stages == 7
        assert wf.entries == (0,)
        assert wf.terminals == (6,)

    def test_nodes_alias_app_stage_models(self, gatk_model):
        # Identity, not equality: the estimator must serve the exact same
        # StageModel objects (and floats) the legacy scheduler used.
        wf = chain_of(gatk_model)
        for i in range(wf.n_nodes):
            assert wf.node(i).model is gatk_model.stage(i)

    def test_compilation_is_cached(self, gatk_model):
        assert chain_of(gatk_model) is chain_of(gatk_model)

    def test_input_passes_through_unscaled(self, gatk_model):
        wf = chain_of(gatk_model)
        size = 7.3
        # Same object, not just same value: EET memo keys must not churn.
        assert wf.node_input_gb(3, size) is size

    def test_scope_and_worker_class_are_the_apps(self, gatk_model):
        wf = chain_of(gatk_model)
        for node in wf:
            assert node.scope == gatk_model.name
            assert node.worker_class == gatk_model.worker_class

    def test_actual_app_lands_on_nodes(self, gatk_model):
        from repro.knowledge.plane import drifted_model

        truth = drifted_model(gatk_model, 0.5)
        # chain_of hashes by app VALUE; drop compilations cached from
        # value-equal app instances so identity checks see this pair.
        chain_of.cache_clear()
        wf = chain_of(gatk_model, truth)
        for i in range(wf.n_nodes):
            assert wf.node(i).actual is truth.stage(i)


class TestCompileSpecChain:
    def test_gatk_chain_spec_matches_chain_of(self):
        spec = gatk_chain_workflow()
        compiled = compile_spec(spec)
        gatk = spec.registry.get("gatk")
        chain = chain_of(gatk)
        assert compiled.is_chain
        assert compiled.n_nodes == chain.n_nodes
        for i in range(chain.n_nodes):
            # The spec path aliases its registry's exact stage objects
            # (chain_of may serve a value-equal cached compilation, so
            # compare by value there): chain jobs through the DAG path
            # reproduce legacy arithmetic bit for bit.
            assert compiled.node(i).model is gatk.stage(i)
            assert compiled.node(i).model == chain.node(i).model

    def test_multi_app_pipeline_is_still_a_chain(self):
        wf = compile_spec(variation_detection_workflow())
        assert wf.is_chain
        assert wf.n_nodes == 10  # bwa(3) + gatk(7)
        # Stitch point: gatk's first stage hangs off bwa's last.
        assert wf.node(3).parents == (2,)


class TestCompileSpecDag:
    def test_star_fanout_shape(self):
        wf = compile_spec(star_fanout_workflow())
        assert not wf.is_chain
        assert wf.n_nodes == 16  # star(3) + gatk(7) + mutect(4) + cyto(2)
        assert wf.entries == (0,)
        assert wf.terminals == (wf.n_nodes - 1,)

    def test_branches_fan_from_aligner_tail(self):
        wf = compile_spec(star_fanout_workflow())
        align_tail = 2  # star's last stage
        branch_heads = [
            n.index for n in wf if n.parents == (align_tail,)
        ]
        assert len(branch_heads) == 2
        scopes = {wf.node(i).scope for i in branch_heads}
        assert scopes == {"star_fanout/germline", "star_fanout/somatic"}

    def test_fan_in_waits_on_both_branch_tails(self):
        wf = compile_spec(star_fanout_workflow())
        sink_head = min(
            n.index for n in wf if n.scope == "star_fanout/integrate"
        )
        parents = wf.node(sink_head).parents
        assert len(parents) == 2
        assert {wf.node(p).scope for p in parents} == {
            "star_fanout/germline", "star_fanout/somatic",
        }

    def test_branch_input_scales(self):
        wf = compile_spec(star_fanout_workflow())
        by_scope = {}
        for n in wf:
            by_scope.setdefault(n.scope, n)  # first node of each step
        assert by_scope["star_fanout/align"].input_scale == 1.0
        # STAR emits 0.9x of its input; both callers read that.
        assert by_scope["star_fanout/germline"].input_scale == pytest.approx(0.9)
        assert by_scope["star_fanout/somatic"].input_scale == pytest.approx(0.9)
        # Fan-in sums both branch outputs: 0.9*0.01 + 0.9*0.005.
        assert by_scope["star_fanout/integrate"].input_scale == pytest.approx(
            0.0135
        )

    def test_diamond_fan_in_sums_parent_outputs(self):
        wf = compile_spec(diamond_spec())
        sink = next(n for n in wf if n.scope == "diamond/sink")
        # src halves the input, then left doubles and right triples it:
        # the sink consumes 0.5*2 + 0.5*3 = 2.5x the workflow input.
        assert sink.input_scale == pytest.approx(2.5)
        assert wf.node_input_gb(sink.index, 4.0) == pytest.approx(10.0)

    def test_as_app_flattens_every_node(self, registry):
        wf = compile_spec(star_fanout_workflow())
        app = wf.as_app()
        assert app.n_stages == wf.n_nodes
        assert app.input_format is registry.get("star").input_format
        assert app.output_format is registry.get("cytoscape").output_format
        for i in range(wf.n_nodes):
            stage = app.stage(i)
            assert stage.index == i
            assert stage.a == wf.node(i).model.a

    def test_describe_is_json_shaped(self):
        wf = compile_spec(star_fanout_workflow())
        d = wf.describe()
        assert set(d) == {
            "name", "nodes", "entries", "terminals", "chain", "steps",
        }
        assert d["nodes"] == len(d["steps"]) == 16
        assert d["chain"] is False


class TestSizePropagation:
    """A step's input is the sum of its parents' outputs; every entry
    step reads the job's input."""

    @staticmethod
    def step_input_gb(wf, step, job_gb):
        head = next(n for n in wf if n.scope == f"{wf.name}/{step}")
        return wf.node_input_gb(head.index, job_gb)

    def test_linear_chain(self):
        wf = compile_spec(variation_detection_workflow())
        assert self.step_input_gb(wf, "align", 100.0) == 100.0
        # bwa passes its input through (output ratio 1.0).
        assert self.step_input_gb(wf, "call", 100.0) == 100.0

    def test_fan_in_sums_parents(self):
        wf = compile_spec(mirna_fusion_workflow())
        assert self.step_input_gb(wf, "align_tumour", 25.0) == 25.0
        assert self.step_input_gb(wf, "align_normal", 25.0) == 25.0
        assert self.step_input_gb(wf, "somatic", 25.0) == pytest.approx(50.0)


class TestValidation:
    def test_unsorted_nodes_rejected(self):
        wf = compile_spec(diamond_spec())
        nodes = wf.nodes
        with pytest.raises(WorkflowError, match="index"):
            CompiledWorkflow("bad", (nodes[1],) + nodes[2:])

    def test_empty_rejected(self):
        with pytest.raises(WorkflowError, match="zero nodes"):
            CompiledWorkflow("bad", ())
