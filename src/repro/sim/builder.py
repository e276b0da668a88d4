"""Declarative platform assembly: the session's wiring, staged.

:class:`SimulationSession` used to assemble the whole deployment inside
one monolithic ``_build``.  The wiring now lives here as a
:class:`PlatformBuilder` whose discrete stages -- cloud, faults, CELAR,
policies, bus, scheduler, workload, observers -- can each be overridden
by subclassing, so experiments swap a single layer without re-plumbing
the rest::

    class TracedCloudBuilder(PlatformBuilder):
        def build_infrastructure(self, env):
            infra = super().build_infrastructure(env)
            ...instrument it...
            return infra

Stage outputs are collected into a :class:`BuiltPlatform`, a plain record
of every assembled component; the session keeps only the references it
reports on.  Construction order (and therefore RNG stream usage and event
scheduling) matches the historical monolith exactly -- the golden-sweep
fixture holds the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.apps.base import ApplicationModel, ExecutionPlan
from repro.apps.registry import ApplicationRegistry, default_registry
from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.infrastructure import Infrastructure
from repro.cloud.tiers import infrastructure_from_cloud_config
from repro.core.bus import EventBus
from repro.core.config import AllocationAlgorithm, PlatformConfig
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.knowledge.plane import (
    EstimateProvider,
    KnowledgePlane,
    OnlineRefitter,
    drifted_model,
    make_estimate_provider,
)
from repro.scheduler.allocation import (
    AllocationPolicy,
    BestConstantAllocation,
    find_best_constant_plan,
    make_allocation_policy,
)
from repro.scheduler.rewards import RewardFunction, make_reward
from repro.scheduler.scaling import ScalingPolicy, make_scaling_policy
from repro.scheduler.scheduler import SCANScheduler
from repro.workflows.compiled import CompiledWorkflow, chain_of, compile_spec
from repro.workflows.library import make_workflow
from repro.workload.arrivals import BatchArrivalProcess
from repro.workload.jobs import JobFactory

if TYPE_CHECKING:  # imported only when telemetry is enabled at runtime
    from repro.telemetry.hub import TelemetryHub

__all__ = ["BuiltPlatform", "FixedPlanBuilder", "PlatformBuilder"]

#: An observer is any callable handed the bus and the built platform at
#: the end of assembly; it subscribes whatever it likes.
Observer = Callable[[EventBus, "BuiltPlatform"], None]


@dataclass
class BuiltPlatform:
    """Every component one assembly pass produced, by name."""

    env: Environment
    streams: RandomStreams
    infrastructure: Infrastructure
    injector: Optional[FaultInjector]
    celar: CelarManager
    reward: RewardFunction
    allocation: AllocationPolicy
    scaling: ScalingPolicy
    bus: EventBus
    scheduler: SCANScheduler
    factory: JobFactory
    #: The knowledge plane behind every estimate, and its online refitter
    #: (None when the static provider needs no feedback loop).
    plane: Optional[KnowledgePlane] = None
    estimates: Optional[EstimateProvider] = None
    refitter: Optional[OnlineRefitter] = None

    def close(self) -> None:
        """Tear the assembly down: close the environment, then unhook the
        scheduler's callbacks.

        Work still in flight is abandoned where it waits and the books stay
        as the run left them, so a closed assembly holds no reference cycle
        and dies by reference counting once dropped.  It cannot be run
        further.
        """
        self.env.close()
        self.scheduler.close()


class PlatformBuilder:
    """Stage-by-stage assembly of one simulated SCAN deployment."""

    def __init__(
        self,
        config: PlatformConfig,
        registry: Optional[ApplicationRegistry] = None,
        actual_app: Optional[ApplicationModel] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        config.validate()
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        #: The compiled DAG when ``config.workflow`` names one; ``None``
        #: keeps the legacy single-application chain shape.
        self.workflow: Optional[CompiledWorkflow] = None
        if config.workflow:
            drift = config.knowledge.model_drift

            def _resolve(
                name: str,
            ) -> tuple[ApplicationModel, ApplicationModel]:
                # Drift applies per node: planning uses the registry model,
                # execution the drifted one -- same contract as the chain
                # path's actual_app, but resolved at compile time.
                believed = self.registry.get(name)
                if drift != 1.0:
                    return believed, drifted_model(believed, drift)
                return believed, believed

            self.workflow = compile_spec(
                make_workflow(config.workflow), resolve=_resolve
            )
            # The session's "application" is the workflow's entry app:
            # arriving datasets are its inputs, and the scheduler's job
            # identity checks key on it.
            entry = self.workflow.node(self.workflow.entries[0])
            self.app = self.registry.get(entry.app_name)
            self.actual_app = None  # ground truth lives on the nodes
        else:
            self.app = self.registry.get(config.application)
            # Ground-truth drift: plan with the profiled model, execute the
            # drifted one.  An explicit actual_app wins over the config knob.
            if actual_app is None and config.knowledge.model_drift != 1.0:
                actual_app = drifted_model(
                    self.app, config.knowledge.model_drift
                )
            self.actual_app = actual_app
        self.observers: list[Observer] = list(observers)
        # The offline best-constant plan depends only on the configuration,
        # so compute it once per builder (i.e. once per session).  A DAG
        # session plans over the workflow flattened into a pseudo-app (one
        # planned stage per node).
        self._constant_plan = None
        if config.scheduler.allocation is AllocationAlgorithm.BEST_CONSTANT:
            plan_app = (
                self.workflow.as_app()
                if self.workflow is not None
                else self.app
            )
            self._constant_plan = find_best_constant_plan(
                plan_app,
                make_reward(config.reward),
                core_cost=config.cloud.private_core_cost,
                job_size=config.workload.job_size_mean,
                thread_choices=config.scheduler.thread_choices,
                input_gb=config.workload.job_size_mean
                * config.workload.size_unit_gb,
            )

    def add_observer(self, observer: Observer) -> "PlatformBuilder":
        """Attach *observer* at the end of every subsequent assembly."""
        self.observers.append(observer)
        return self

    # -- stages (override any of these) -----------------------------------------
    def build_infrastructure(self, env: Environment) -> Infrastructure:
        """Stage 1: the simulated cloud (tier stack from config).

        ``cloud.tiers`` (when set) builds an N-tier stack through the
        ``TIER_BACKENDS`` registry; otherwise the legacy two-tier fields
        produce the paper's private/public pair, byte-identical to the
        pre-registry wiring.
        """
        return infrastructure_from_cloud_config(env, self.config.cloud)

    def build_faults(
        self, streams: RandomStreams
    ) -> Optional[FaultInjector]:
        """Stage 2: the chaos layer (None = fault-free fast path)."""
        plan = FaultPlan.from_config(self.config.faults, self.config.cloud)
        return FaultInjector(plan, streams) if plan.any_active else None

    def build_celar(
        self,
        env: Environment,
        infrastructure: Infrastructure,
        injector: Optional[FaultInjector],
    ) -> CelarManager:
        """Stage 3: the elasticity manager (CELAR)."""
        cloud = self.config.cloud
        return CelarManager(
            env,
            infrastructure,
            startup_penalty_tu=cloud.startup_penalty_tu,
            allowed_sizes=cloud.instance_sizes,
            injector=injector,
        )

    def build_reward(self) -> RewardFunction:
        """Stage 4a: the reward function (plugin registry lookup)."""
        return make_reward(self.config.reward)

    def build_allocation(self) -> AllocationPolicy:
        """Stage 4b: the allocation policy (plugin registry lookup)."""
        return make_allocation_policy(
            self.config.scheduler.allocation,
            constant_plan=self._constant_plan,
        )

    def build_scaling(self) -> ScalingPolicy:
        """Stage 4c: the horizontal-scaling policy (registry lookup)."""
        return make_scaling_policy(
            self.config.scheduler.scaling,
            horizon_tu=self.config.scheduler.predictive_horizon,
        )

    def build_bus(self) -> EventBus:
        """Stage 5: the typed event bus observers will subscribe to."""
        return EventBus()

    def build_knowledge(
        self,
        env: Environment,
        bus: EventBus,
        hub: "Optional[TelemetryHub]",
    ) -> tuple[KnowledgePlane, EstimateProvider, Optional[OnlineRefitter]]:
        """Stage 5b: the knowledge plane and its estimate provider.

        Both providers are built over the compiled workflow -- a plain
        application runs as its ``chain_of`` chain.  The default
        ``static`` provider reads the nodes' profiled models directly
        (bit-identical to a build without the plane) and
        attaches no refitter, so no :class:`StageCompleted` subscriber
        exists and the scheduler never constructs the event.  Any other
        provider gets an :class:`OnlineRefitter` streaming stage-finish
        observations into fresh model snapshots.
        """
        know = self.config.knowledge
        plane = KnowledgePlane()
        workflow = (
            self.workflow
            if self.workflow is not None
            else chain_of(self.app, self.actual_app)
        )
        provider = make_estimate_provider(
            know.provider, workflow=workflow, plane=plane
        )
        refitter: Optional[OnlineRefitter] = None
        if know.provider != "static":
            refitter = OnlineRefitter(
                plane,
                refit_every=know.refit_every,
                min_samples=know.min_samples,
                max_observations=know.max_observations,
                metrics=hub.metrics if hub is not None else None,
                clock=lambda: env.now,
                per_tier=know.per_tier,
            )
            refitter.attach(bus)
        return plane, provider, refitter

    def build_scheduler(
        self,
        env: Environment,
        infrastructure: Infrastructure,
        celar: CelarManager,
        reward: RewardFunction,
        allocation: AllocationPolicy,
        scaling: ScalingPolicy,
        injector: Optional[FaultInjector],
        hub: "Optional[TelemetryHub]",
        bus: EventBus,
        estimates: Optional[EstimateProvider] = None,
    ) -> SCANScheduler:
        """Stage 6: the scheduler itself (publishes on *bus*)."""
        return SCANScheduler(
            env,
            self.app,
            infrastructure,
            celar,
            reward,
            allocation,
            scaling,
            config=self.config.scheduler,
            actual_app=self.actual_app,
            faults=injector,
            resilience=self.config.resilience,
            telemetry=hub,
            bus=bus,
            estimates=estimates,
            workflow=self.workflow,
        )

    def build_job_factory(self) -> JobFactory:
        """Stage 7a: arriving datasets -> pipeline-run (or DAG-run) jobs."""
        return JobFactory(
            self.app,
            size_unit_gb=self.config.workload.size_unit_gb,
            workflow=self.workflow,
        )

    def build_arrivals(self, streams: RandomStreams) -> BatchArrivalProcess:
        """Stage 7b: the paper's batched Poisson arrivals.

        Draws come from the session's own ``arrivals`` stream, so every
        policy run at one seed sees the same arrivals.
        """
        return BatchArrivalProcess(
            self.config.workload, streams.stream("arrivals")
        )

    def attach_observers(
        self, bus: EventBus, platform: BuiltPlatform
    ) -> None:
        """Stage 8: hand the bus to every registered observer."""
        for observer in self.observers:
            observer(bus, platform)

    # -- orchestration -----------------------------------------------------------
    def build(
        self,
        env: Environment,
        streams: RandomStreams,
        hub: "Optional[TelemetryHub]" = None,
    ) -> BuiltPlatform:
        """Run every stage in order and start the scheduler."""
        infrastructure = self.build_infrastructure(env)
        injector = self.build_faults(streams)
        if injector is None and any(
            t.backend == "spot" for t in infrastructure.tiers
        ):
            # A spot tier's evictions are a fault stream of their own:
            # arm an injector for them even when the fault plan itself is
            # inert, so eviction lifetimes can be drawn.
            injector = FaultInjector(
                FaultPlan.from_config(self.config.faults, self.config.cloud),
                streams,
            )
        celar = self.build_celar(env, infrastructure, injector)
        reward = self.build_reward()
        allocation = self.build_allocation()
        scaling = self.build_scaling()
        bus = self.build_bus()
        # Tiers publish PlacementRejected on the session bus (observers
        # previously could not see capacity/cap rejections at all).
        infrastructure.bind_bus(bus)
        plane, estimates, refitter = self.build_knowledge(env, bus, hub)
        scheduler = self.build_scheduler(
            env,
            infrastructure,
            celar,
            reward,
            allocation,
            scaling,
            injector,
            hub,
            bus,
            estimates,
        )
        scheduler.start()
        platform = BuiltPlatform(
            env=env,
            streams=streams,
            infrastructure=infrastructure,
            injector=injector,
            celar=celar,
            reward=reward,
            allocation=allocation,
            scaling=scaling,
            bus=bus,
            scheduler=scheduler,
            factory=self.build_job_factory(),
            plane=plane,
            estimates=estimates,
            refitter=refitter,
        )
        self.attach_observers(bus, platform)
        return platform


class FixedPlanBuilder(PlatformBuilder):
    """The stock assembly with every job run under one given plan.

    Figure 5 sweeps constant execution plans of growing core-stages; only
    the allocation stage changes, so no config field has to name a plan.
    """

    def __init__(
        self, config: PlatformConfig, plan: ExecutionPlan, **kwargs
    ) -> None:
        super().__init__(config, **kwargs)
        self.plan = plan

    def build_allocation(self) -> AllocationPolicy:
        return BestConstantAllocation(self.plan)
