#!/usr/bin/env python
"""Run the paper's Figure 1 integrative workflow on the simulated cloud.

Three omics branches run concurrently on shared infrastructure -- NGS
(Illumina HiSeq -> BWA -> GATK), proteomics (mass spectrometry ->
MaxQuant) and imaging (microscopy -> CellProfiler) -- and fan into a
Cytoscape-style network integration ("Genotype2phenotype").

The whole flow compiles to one node graph and runs as ONE job on one
SCAN scheduler: the three entry branches are released together, the
integration step waits at the fan-in barrier for the last of them, and
each node is routed to its application's worker class (per-application
software stacks), all competing for the same 624 private cores.

Run:  python examples/integrative_workflow.py
"""

from repro.cloud.celar import CelarManager
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import SchedulerConfig
from repro.desim.engine import Environment
from repro.scheduler.allocation import make_allocation_policy
from repro.scheduler.rewards import ThroughputReward
from repro.scheduler.scaling import make_scaling_policy
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job
from repro.workflows import compile_spec, integrative_figure1_workflow

INPUT_GB = 20.0


def main() -> None:
    spec = integrative_figure1_workflow()
    wf = compile_spec(spec)
    print(f"workflow: {spec.name} ({wf.n_nodes} nodes)")
    print(f"  steps    : {' / '.join(spec.topological_order)}")
    print(f"  entries  : {', '.join(spec.entry_steps)}")
    print(f"  terminal : {', '.join(spec.terminal_steps)}")

    env = Environment()
    infrastructure = Infrastructure(env)  # 624 private cores + public tier
    config = SchedulerConfig()
    # The scheduler's "application" is the workflow's entry app; every
    # node still runs on its own application's worker class.
    app = spec.registry.get(wf.node(wf.entries[0]).app_name)
    scheduler = SCANScheduler(
        env, app, infrastructure, CelarManager(env, infrastructure),
        ThroughputReward(),
        make_allocation_policy(config.allocation),
        make_scaling_policy(config.scaling, horizon_tu=config.predictive_horizon),
        config=config,
        workflow=wf,
    )
    scheduler.start()
    job = Job(app=app, size=INPUT_GB, submit_time=0.0, workflow=wf)
    scheduler.submit(job)
    print(f"\nsubmitted {job.name} ({INPUT_GB:.0f} GB into each entry branch)")
    while not job.is_complete and env.now < 5000.0:
        env.run(until=env.now + 10.0)

    # Narrate the DAG from the job's history: a node's step is the tail of
    # its scope ("IntegrativeNetworkAnalysis/align" -> "align").
    step_of = [node.scope.rsplit("/", 1)[-1] for node in wf]
    spans: dict[str, tuple[float, float, int]] = {}
    for r in job.history:
        step = step_of[r.stage]
        start, finish, cores = spans.get(step, (r.started_at, r.finished_at, 0))
        spans[step] = (
            min(start, r.started_at), max(finish, r.finished_at), cores + r.threads
        )
    timeline = sorted(
        [(start, 0, "start ", step) for step, (start, _, _) in spans.items()]
        + [(finish, 1, "finish", step) for step, (_, finish, _) in spans.items()]
    )
    print("\nstep timeline:")
    for t, _, what, step in timeline:
        print(f"  t={t:7.1f}  {what} {step}")

    print(f"\nworkflow complete at t={job.completed_at:.1f} TU "
          f"(latency {job.latency():.1f} TU, {len(job.history)} nodes)")
    for step in spec.topological_order:
        start, finish, cores = spans[step]
        print(f"  {step:12s} nodes={step_of.count(step):2d}  "
              f"latency={finish - start:6.1f} TU  core-stages={cores}")

    fleets = sorted({wf.node(r.stage).worker_class for r in job.history})
    print(f"\nworkflow reward : {job.reward_paid:10.1f} CU")
    print(f"total cloud cost: {infrastructure.accumulated_cost():10.1f} CU")
    print(f"fleets          : {', '.join(fleets)}")
    util = infrastructure.private.utilization()
    print(f"private tier    : {util:.1%} time-averaged utilisation")


if __name__ == "__main__":
    main()
