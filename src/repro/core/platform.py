"""The SCANPlatform facade: Data Broker + Scheduler + Workers in one box.

This is the integrated platform of the paper's Figure 2: an analysis
request arrives with a dataset, the Data Broker consults the knowledge
base and shards the input, the Scheduler runs one pipeline per shard over
the elastic cloud, task logs flow back into the knowledge base, and the
shard outputs are merged into the final result.

The deployment itself -- cloud tiers, chaos layer, CELAR, knowledge plane,
policies, event bus and scheduler -- comes from the simulator's
:class:`~repro.sim.builder.PlatformBuilder`, so every config field a
session honours (tier stacks, DAG workflows, model drift) the facade
honours too.  The facade adds only what is facade-only: the Data Broker,
shared storage and staging, and the knowledge base fed from the bus.

The facade runs in-process over the simulation kernel (the prototype's
CherryPy HTTP RPC layer is an interface detail the evaluation never
exercises); the API surface -- submit / advance / poll / metrics -- mirrors
the prototype's RPC verbs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.apps.registry import ApplicationRegistry
from repro.broker.broker import BrokeredJob, DataBroker
from repro.broker.staging import DataStager
from repro.cloud.storage import SharedFilesystem
from repro.core.config import PlatformConfig
from repro.core.errors import SCANError
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.genomics.datasets import DatasetDescriptor
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.log_ingest import KnowledgeIngestor
from repro.scheduler.tasks import Job
from repro.sim.builder import PlatformBuilder

__all__ = ["SCANPlatform", "AnalysisRequest"]

_request_ids = itertools.count(1)


@dataclass
class AnalysisRequest:
    """A user's whole-analysis request and its live status."""

    uid: int
    dataset: DatasetDescriptor
    brokered: BrokeredJob
    jobs: list[Job]
    submit_time: float
    merged_output: Optional[DatasetDescriptor] = None
    completed_at: Optional[float] = None

    @property
    def n_subtasks(self) -> int:
        return len(self.jobs)

    @property
    def is_complete(self) -> bool:
        return all(job.is_complete for job in self.jobs)

    def latency(self) -> float:
        """Submission to completion of the last shard's last stage."""
        if self.completed_at is None:
            raise SCANError(f"request {self.uid} has not completed")
        return self.completed_at - self.submit_time


class SCANPlatform:
    """An in-process SCAN deployment over the simulated cloud.

    Typical use::

        platform = SCANPlatform(PlatformConfig.paper_defaults())
        platform.bootstrap_knowledge()          # offline GATK profiling
        request = platform.submit_analysis(dataset)
        platform.run(until=200.0)
        print(request.is_complete, platform.metrics())
        platform.close()                        # tear down when done
    """

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        registry: Optional[ApplicationRegistry] = None,
        kb_sample_every: int = 1,
    ) -> None:
        self.config = (config or PlatformConfig()).validate()
        self.env = Environment()
        # Telemetry is opt-in; the import stays lazy so a telemetry-disabled
        # platform never even loads the repro.telemetry package.
        self.telemetry = None
        if self.config.telemetry.enabled:
            from repro.telemetry.hub import TelemetryHub

            self.telemetry = TelemetryHub.from_config(self.config.telemetry)
        # One assembly path: the deployment is built exactly as a session's.
        builder = PlatformBuilder(self.config, registry=registry)
        built = builder.build(
            self.env, RandomStreams(self.config.simulation.seed), self.telemetry
        )
        self._built = built
        self.registry = builder.registry
        self.app = builder.app
        #: The compiled DAG every request's jobs run (None: the app's chain).
        self.workflow = builder.workflow
        self.infrastructure = built.infrastructure
        self.injector = built.injector
        self.celar = built.celar
        self.bus = built.bus
        self.plane = built.plane
        self.estimates = built.estimates
        self.refitter = built.refitter
        self.reward = built.reward
        self.scheduler = built.scheduler
        if self.telemetry is not None:
            self.telemetry.bind(self.env)
        # The merged result is the workflow's terminal output format.
        self._output_format = (
            self.workflow.as_app() if self.workflow is not None else self.app
        ).output_format

        # Facade-only parts: storage, the knowledge base and the broker.
        self.filesystem = SharedFilesystem(self.env)
        self.stager = DataStager(self.env, self.filesystem)
        self.kb = SCANKnowledgeBase()
        # Task logs reach the KB as the bus's StageCompleted events.
        self.ingestor = KnowledgeIngestor(
            self.kb, self.bus, sample_every=kb_sample_every
        )
        self.broker = DataBroker(
            self.kb,
            config=self.config.broker,
            plane=self.plane,
        )
        self.requests: list[AnalysisRequest] = []

    # -- knowledge bootstrap -------------------------------------------------
    def bootstrap_knowledge(self, **kwargs) -> int:
        """Profile the configured application offline into the KB.

        This is the paper's initial knowledge-base creation (profiling runs
        of 1-9 GB inputs across thread counts).  Returns the number of
        observations recorded.
        """
        return self.kb.bootstrap_from_model(self.app, **kwargs)

    # -- analysis submission ----------------------------------------------------
    def submit_analysis(self, dataset: DatasetDescriptor) -> AnalysisRequest:
        """Broker, shard and schedule one whole-analysis request."""
        base = self.infrastructure.base
        brokered = self.broker.prepare(
            app=self.app.name,
            dataset=dataset,
            parallel_workers=max(
                base.capacity_cores
                // max(self.config.cloud.instance_sizes[0], 1),
                1,
            ),
            core_cost_per_tu=base.core_cost_per_tu,
            reward_fn=self.reward,
        )
        jobs: list[Job] = []
        for shard in brokered.plan:
            # Job size stays in reward units; the shard's GB drive the
            # stage-time models.
            size_units = max(
                shard.size_gb / max(self.config.workload.size_unit_gb, 1e-9),
                1e-6,
            )
            job = Job(
                app=self.app,
                size=size_units,
                submit_time=self.env.now,
                name=f"req{len(self.requests) + 1}-{shard.name}",
                input_gb=shard.size_gb,
                workflow=self.workflow,
            )
            jobs.append(job)
        request = AnalysisRequest(
            uid=next(_request_ids),
            dataset=dataset,
            brokered=brokered,
            jobs=jobs,
            submit_time=self.env.now,
        )
        self.requests.append(request)
        for shard, job in zip(brokered.plan, jobs):
            self.stager.prefetch(shard)
            self.scheduler.submit(job)
        return request

    # -- running ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulated deployment (to *until*, or to quiescence)."""
        self.env.run(until=until)
        self._finalize_requests()

    def run_until_complete(self, request: AnalysisRequest, limit: float = 1e7) -> None:
        """Advance time until *request* completes (bounded by *limit*)."""
        while not request.is_complete:
            if self.env.peek() == float("inf") or self.env.now > limit:
                raise SCANError(
                    f"request {request.uid} cannot make progress "
                    f"(now={self.env.now})"
                )
            self.env.step()
        self._finalize_requests()

    def close(self) -> None:
        """Tear the deployment down, as the end of a session run does.

        The environment is closed (calendar emptied, in-flight staging
        processes closed where they wait) and the scheduler unhooks the
        callbacks that point back at it, so a dropped facade holds no
        reference cycle and dies by reference counting.  Requests,
        metrics and the knowledge base stay readable; the deployment
        cannot be run further.
        """
        self._built.close()

    def _finalize_requests(self) -> None:
        for request in self.requests:
            if request.completed_at is None and request.is_complete:
                request.completed_at = max(
                    job.completed_at for job in request.jobs  # type: ignore[arg-type]
                )
                outputs = [
                    shard.derive(self._output_format, "out", size_ratio=0.01)
                    for shard in request.brokered.plan
                ]
                if len(outputs) > 1:
                    request.merged_output = self.broker.merge_outputs(
                        outputs, name=f"{request.dataset.name}.result"
                    )
                else:
                    request.merged_output = outputs[0]

    # -- reporting ------------------------------------------------------------------
    def request_reward(self, request: AnalysisRequest) -> float:
        """Whole-request reward: R(request latency, total input size).

        The paper's users "offer a reward ... for completion of their whole
        analysis pipeline", so the request level (not the per-shard level)
        is where the user-visible reward lives.
        """
        size_units = request.dataset.size_gb / max(
            self.config.workload.size_unit_gb, 1e-9
        )
        return self.reward(request.latency(), size_units)

    def metrics(self) -> dict[str, float]:
        """A snapshot of platform-level metrics."""
        sched = self.scheduler
        return {
            "now": self.env.now,
            "requests": float(len(self.requests)),
            "requests_complete": float(
                sum(1 for r in self.requests if r.is_complete)
            ),
            "jobs_completed": float(len(sched.completed_jobs)),
            "total_reward": sched.total_reward,
            "total_cost": sched.total_cost(),
            "profit": sched.profit(),
            "kb_instances": float(self.kb.instance_count()),
            "private_utilization": self.infrastructure.base.utilization(),
            "staged_files": float(self.stager.staged_count),
        }
