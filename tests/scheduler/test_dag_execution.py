"""DAG jobs as the scheduler's native unit of work.

Chains stay on the legacy forward-sum/next-stage code paths; these tests
pin the DAG-only behaviour: fan-out release, fan-in barriers,
critical-path ETT, per-node worker classes, and the workflow-scoped
default estimate provider.
"""

import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import SchedulerConfig
from repro.desim.engine import Environment
from repro.knowledge.plane import StaticEstimateProvider
from repro.scheduler.allocation import BestConstantAllocation
from repro.scheduler.estimator import PipelineEstimator
from repro.scheduler.rewards import TimeReward
from repro.scheduler.scaling import AlwaysScale
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job
from repro.workflows.compiled import chain_of, compile_spec
from repro.workflows.library import make_workflow, star_fanout_workflow
from repro.workflows.spec import WorkflowSpec, WorkflowStep


#: Worker classes each library DAG's nodes must run on.
WORKER_CLASSES = {
    "star_fanout": {"star", "gatk", "mutect", "cytoscape"},
    "integrative_figure1": {
        "bwa", "gatk", "maxquant", "cellprofiler", "cytoscape",
    },
}


@pytest.fixture(scope="module")
def fanout():
    return compile_spec(star_fanout_workflow())


def diamond():
    spec = WorkflowSpec(
        "diamond",
        [
            WorkflowStep("src", "cytoscape"),
            WorkflowStep("left", "cytoscape"),
            WorkflowStep("right", "cytoscape"),
            WorkflowStep("sink", "cytoscape"),
        ],
        [("src", "left"), ("src", "right"), ("left", "sink"), ("right", "sink")],
    )
    return spec, compile_spec(spec)


class TestStepRelease:
    def test_fanout_releases_both_branches_at_once(self, fanout):
        app = star_fanout_workflow().registry.get("star")
        job = Job(app=app, size=5.0, submit_time=0.0, workflow=fanout)
        assert job.start_steps() == (0,)
        from repro.scheduler.tasks import StageRecord

        def run(stage, t):
            job.record_stage(StageRecord(
                stage=stage, queued_at=t, started_at=t,
                finished_at=t + 1.0, threads=1, tier="private",
            ))

        run(0, 0.0)
        assert job.ready_after(0) == [1]
        run(1, 1.0)
        assert job.ready_after(1) == [2]
        run(2, 2.0)
        # The aligner's tail releases germline AND somatic heads together.
        released = job.ready_after(2)
        assert len(released) == 2
        scopes = {fanout.node(i).scope for i in released}
        assert scopes == {"star_fanout/germline", "star_fanout/somatic"}

    def test_fan_in_waits_for_slowest_parent(self):
        spec, wf = diamond()
        app = spec.registry.get("cytoscape")
        job = Job(app=app, size=2.0, submit_time=0.0, workflow=wf)
        from repro.scheduler.tasks import StageRecord

        def run(stage, t):
            job.record_stage(StageRecord(
                stage=stage, queued_at=t, started_at=t,
                finished_at=t + 1.0, threads=1, tier="private",
            ))

        order = list(job.start_steps())
        # Drain src, then finish the left branch fully: the sink must NOT
        # release until the right branch also lands.
        sink_head = min(n.index for n in wf if n.scope == "diamond/sink")
        done = 0
        released_sink_at = None
        while order:
            stage = order.pop(0)
            run(stage, float(done))
            done += 1
            ready = job.ready_after(stage)
            if sink_head in ready:
                released_sink_at = stage
            order.extend(ready)
        left_tail = max(n.index for n in wf if n.scope == "diamond/left")
        right_tail = max(n.index for n in wf if n.scope == "diamond/right")
        assert released_sink_at in (left_tail, right_tail)
        assert job.completed_steps == frozenset(range(wf.n_nodes))


class TestCriticalPathETT:
    def test_diamond_longest_path_not_sum(self):
        spec, wf = diamond()
        app = spec.registry.get("cytoscape")
        estimator = PipelineEstimator(app, workflow=wf)
        job = Job(app=app, size=4.0, submit_time=0.0, workflow=wf)
        per_node = [
            estimator.eet(i, wf.node_input_gb(i, job.input_gb), 1)
            for i in range(wf.n_nodes)
        ]
        by_scope = {}
        for n in wf:
            by_scope.setdefault(n.scope, []).append(per_node[n.index])
        left = sum(by_scope["diamond/left"])
        right = sum(by_scope["diamond/right"])
        expected = (
            sum(by_scope["diamond/src"])
            + max(left, right)
            + sum(by_scope["diamond/sink"])
        )
        got = estimator.ett(job, now=0.0)
        assert got == pytest.approx(expected)
        # Strictly shorter than the serialized sum: branches overlap.
        assert got < sum(per_node)

    def test_completed_branch_drops_off_the_path(self):
        spec, wf = diamond()
        app = spec.registry.get("cytoscape")
        estimator = PipelineEstimator(app, workflow=wf)
        job = Job(app=app, size=4.0, submit_time=0.0, workflow=wf)
        from repro.scheduler.tasks import StageRecord

        before = estimator.ett(job, now=0.0)
        for stage in range(
            max(n.index for n in wf if n.scope == "diamond/src") + 1
        ):
            job.record_stage(StageRecord(
                stage=stage, queued_at=0.0, started_at=0.0,
                finished_at=0.0, threads=1, tier="private",
            ))
        after = estimator.ett(job, now=0.0)
        assert after < before

    def test_chain_workflow_keeps_legacy_forward_sum(self, gatk_model):
        wf = chain_of(gatk_model)
        with_wf = PipelineEstimator(gatk_model, workflow=wf)
        legacy = PipelineEstimator(gatk_model)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)
        # Bitwise ==, not approx: the chain gate must route through the
        # exact pre-DAG arithmetic.
        assert with_wf.ett(job, now=3.0) == legacy.ett(job, now=3.0)


class TestDefaultProvider:
    def test_dag_gets_workflow_scoped_provider(self, fanout):
        app = star_fanout_workflow().registry.get("star")
        estimator = PipelineEstimator(app, workflow=fanout)
        assert isinstance(estimator.estimates, StaticEstimateProvider)
        assert estimator.estimates.workflow is fanout
        assert estimator.estimates.n_stages == fanout.n_nodes

    def test_chain_serves_app_stage_models(self, gatk_model):
        estimator = PipelineEstimator(gatk_model)
        assert isinstance(estimator.estimates, StaticEstimateProvider)
        assert estimator.estimates.workflow is chain_of(gatk_model)
        for i in range(gatk_model.n_stages):
            assert estimator.estimates.stage_model(i) is gatk_model.stage(i)


class TestSchedulerRunsDags:
    def _build(self, env, wf, app):
        infra = Infrastructure(
            env, private_cores=624, private_cost=5.0,
            public_cores=1_000_000, public_cost=50.0,
        )
        celar = CelarManager(env, infra, startup_penalty_tu=0.5)
        scheduler = SCANScheduler(
            env, app, infra, celar, TimeReward(),
            BestConstantAllocation(ExecutionPlan.uniform(wf.n_nodes, 1)),
            AlwaysScale(),
            config=SchedulerConfig(),
            workflow=wf,
        )
        scheduler.start()
        return scheduler

    def _run(self, name):
        """Run one job of library workflow *name* to completion."""
        spec = make_workflow(name)
        wf = compile_spec(spec)
        app = spec.registry.get(wf.node(wf.entries[0]).app_name)
        env = Environment()
        scheduler = self._build(env, wf, app)
        job = Job(app=app, size=5.0, submit_time=0.0, workflow=wf)
        scheduler.submit(job)
        env.run(until=1000.0)
        assert job.is_complete
        return scheduler, wf, job

    @pytest.mark.parametrize("name", sorted(WORKER_CLASSES))
    def test_dag_job_completes_every_node(self, name):
        _, wf, job = self._run(name)
        assert len(job.history) == wf.n_nodes
        assert job.completed_steps == frozenset(range(wf.n_nodes))

    @pytest.mark.parametrize("name", sorted(WORKER_CLASSES))
    def test_branch_nodes_run_on_their_own_worker_classes(self, name):
        scheduler, wf, job = self._run(name)
        classes = {scheduler._worker_class(r.stage) for r in job.history}
        assert classes == WORKER_CLASSES[name]

    def test_figure1_fan_in_waits_for_all_three_branches(self):
        """Integration starts after the last node of every omics branch,
        and the three entry branches run at the same time."""
        _, wf, job = self._run("integrative_figure1")
        spans = {}
        for r in job.history:
            step = wf.node(r.stage).scope.rsplit("/", 1)[-1]
            start, finish = spans.get(step, (r.started_at, r.finished_at))
            spans[step] = (min(start, r.started_at), max(finish, r.finished_at))
        branches = {
            "ngs": ("align", "variants"),
            "proteomics": ("peptides",),
            "imaging": ("phenotypes",),
        }
        ends = {b: max(spans[s][1] for s in steps) for b, steps in branches.items()}
        starts = {b: spans[steps[0]][0] for b, steps in branches.items()}
        assert spans["integrate"][0] >= max(ends.values())
        assert max(starts.values()) < min(ends.values())

    def test_mismatched_job_workflow_rejected(self, fanout, gatk_model):
        env = Environment()
        app = star_fanout_workflow().registry.get("star")
        scheduler = self._build(env, fanout, app)
        job = Job(app=gatk_model, size=5.0, submit_time=0.0)  # plain chain
        from repro.core.errors import SchedulingError

        with pytest.raises(SchedulingError):
            scheduler.submit(job)
