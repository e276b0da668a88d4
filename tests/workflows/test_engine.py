"""Library workflows run end to end on the scheduler's native DAG path.

A workflow spec compiles to one node graph and runs as one
``Job(..., workflow=wf)`` on one :class:`SCANScheduler`; these tests pin
step ordering, fan-in barriers, branch concurrency, per-application
fleets and billing for whole flows.  A node's step is the tail of its
scope (``"IntegrativeNetworkAnalysis/align"`` -> ``"align"``).
"""

import pytest

from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import SchedulerConfig
from repro.core.errors import SchedulingError
from repro.desim.engine import Environment
from repro.scheduler.allocation import (
    BestConstantAllocation,
    find_best_constant_plan,
    make_allocation_policy,
)
from repro.scheduler.rewards import ThroughputReward
from repro.scheduler.scaling import make_scaling_policy
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job
from repro.workflows.compiled import compile_spec
from repro.workflows.library import (
    integrative_figure1_workflow,
    mirna_fusion_workflow,
    variation_detection_workflow,
)


class Run:
    """One workflow spec on a fresh cloud with the default policies."""

    def __init__(self, spec, allocation=None):
        self.spec = spec
        self.wf = compile_spec(spec)
        self.env = Environment()
        self.infra = Infrastructure(self.env)
        config = SchedulerConfig()
        self.app = spec.registry.get(self.wf.node(self.wf.entries[0]).app_name)
        self.scheduler = SCANScheduler(
            self.env, self.app, self.infra,
            CelarManager(self.env, self.infra), ThroughputReward(),
            allocation or make_allocation_policy(config.allocation),
            make_scaling_policy(
                config.scaling, horizon_tu=config.predictive_horizon
            ),
            config=config,
            workflow=self.wf,
        )
        self.scheduler.start()

    def submit(self, size):
        job = Job(app=self.app, size=size, submit_time=self.env.now,
                  workflow=self.wf)
        return self.scheduler.submit(job)

    def step(self, index):
        return self.wf.node(index).scope.rsplit("/", 1)[-1]

    def span(self, job, step):
        """(first start, last finish) of *step*'s nodes in *job*."""
        records = [r for r in job.history if self.step(r.stage) == step]
        assert records, f"step {step!r} never ran"
        return (min(r.started_at for r in records),
                max(r.finished_at for r in records))

    def steps_done(self, job):
        """Steps whose every node has completed."""
        return {
            step for step in self.spec.steps
            if all(job.step_done(n.index) for n in self.wf
                   if self.step(n.index) == step)
        }


class TestExecution:
    def test_linear_chain_runs_in_order(self):
        run = Run(variation_detection_workflow())
        job = run.submit(5.0)
        run.env.run(until=2000.0)
        assert job.is_complete
        # The GATK step cannot start before the alignment finished.
        assert run.span(job, "call")[0] >= run.span(job, "align")[1]
        assert job.latency() > 0

    def test_fan_in_waits_for_all_parents(self):
        spec = mirna_fusion_workflow()
        run = Run(spec)
        job = run.submit(5.0)
        run.env.run(until=3000.0)
        assert job.is_complete
        somatic_start = run.span(job, "somatic")[0]
        for parent in ("align_tumour", "align_normal"):
            assert somatic_start >= run.span(job, parent)[1]
        # Fan-in input size: the sum of both alignments' outputs.
        head = min(n.index for n in run.wf if run.step(n.index) == "somatic")
        outputs = sum(
            spec.steps[p].output_ratio for p in ("align_tumour", "align_normal")
        )
        assert run.wf.node_input_gb(head, 5.0) == pytest.approx(5.0 * outputs)

    def test_figure1_full_dag(self):
        spec = integrative_figure1_workflow()
        run = Run(spec)
        job = run.submit(10.0)
        run.env.run(until=3000.0)
        assert job.is_complete
        assert run.steps_done(job) == set(spec.topological_order)
        # One fleet per application, all on one scheduler.
        fleets = {run.wf.node(r.stage).worker_class for r in job.history}
        assert fleets == {
            "bwa", "gatk", "maxquant", "cellprofiler", "cytoscape",
        }

    def test_branches_run_concurrently(self):
        """Independent branches must overlap in time."""
        run = Run(integrative_figure1_workflow())
        job = run.submit(10.0)
        run.env.run(until=3000.0)
        align = run.span(job, "align")
        peptides = run.span(job, "peptides")
        assert align[0] < peptides[1]
        assert peptides[0] < align[1]

    def test_step_state_progression(self):
        run = Run(variation_detection_workflow())
        job = run.submit(5.0)
        seen = [run.steps_done(job)]
        while not job.is_complete and run.env.now < 2000.0:
            run.env.run(until=run.env.now + 1.0)
            if run.steps_done(job) != seen[-1]:
                seen.append(run.steps_done(job))
        assert seen == [set(), {"align"}, {"align", "call"}]

    def test_latency_before_completion_raises(self):
        run = Run(variation_detection_workflow())
        job = run.submit(5.0)
        with pytest.raises(SchedulingError):
            job.latency()


class TestSharedResources:
    def test_all_fleets_bill_one_infrastructure(self):
        run = Run(integrative_figure1_workflow())
        run.submit(10.0)
        run.env.run(until=3000.0)
        total = run.infra.accumulated_cost()
        assert total > 0
        # Every fleet's core-time lands on the one tier stack.
        assert total == pytest.approx(
            sum(t.accumulated_cost() for t in run.infra.tiers)
        )

    def test_workflow_reward_uses_total_input(self):
        run = Run(variation_detection_workflow())
        job = run.submit(5.0)
        run.env.run(until=2000.0)
        expected = ThroughputReward()(job.latency(), 5.0)
        assert job.reward_paid == pytest.approx(expected)

    def test_best_constant_config_supported(self):
        spec = variation_detection_workflow()
        plan = find_best_constant_plan(
            compile_spec(spec).as_app(), ThroughputReward(),
            core_cost=5.0, job_size=5.0,
        )
        run = Run(spec, allocation=BestConstantAllocation(plan))
        job = run.submit(5.0)
        run.env.run(until=2000.0)
        assert job.is_complete

    def test_multiple_runs_share_schedulers(self):
        run = Run(variation_detection_workflow())
        jobs = [run.submit(4.0), run.submit(6.0)]
        run.env.run(until=3000.0)
        assert all(j.is_complete for j in jobs)
        assert len(run.scheduler.completed_jobs) == 2
        fleets = {
            run.wf.node(r.stage).worker_class for j in jobs for r in j.history
        }
        assert fleets == {"bwa", "gatk"}  # one fleet per app, not per run
