"""The SCAN Scheduler: queues, pools, rewards, hire-or-wait orchestration.

"The scheduler keeps track of available workers and pending tasks, and
assigns tasks to the workers ... Tasks are scheduled by a 'reward'
algorithm with the aim to maximise profit (the difference between resource
costs and user reward for work completion)" (paper Sections III-A and
III-A.2).

Dispatch rules for the task at the front of each stage queue:

1. An idle worker that fits runs it immediately (smallest adequate shape).
2. If a worker is already booting/resizing for this stage, wait for it.
3. If the private tier can fit a fresh instance, hire privately -- private
   cores are strictly cheaper, so every policy does this.
4. Private tier full: re-pool an idle worker to the needed shape if
   allowed/feasible (pays the restart penalty, needs no new capacity).
5. Otherwise consult the horizontal-scaling policy: hire public now, or
   wait for a busy worker to free up.

Resilience (this module's failure-handling half) layers on top:

- A failed execution re-enters its queue after capped exponential backoff
  and with its attempt counter advanced; a task that exhausts its retry
  budget is dead-lettered and its job fails (reward forfeited).
- A straggling execution gets one speculative duplicate; the first
  finisher wins and the loser is interrupted.
- Transient deploy errors re-arm dispatch after a short delay; repeated
  public-tier bounces trip a circuit breaker that hides the public tier
  from the scaling policy until a half-open probe succeeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.apps.base import ApplicationModel
from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector
from repro.cloud.infrastructure import Infrastructure
from repro.core.bus import (
    DeployFailed,
    EventBus,
    FaultInjected,
    JobCompleted,
    JobFailed,
    ScalingDecisionMade,
    StageCompleted,
    TaskDeadLettered,
    TaskFinished,
    TaskQueued,
    TaskRetryScheduled,
    TaskStarted,
    WorkerEvicted,
    WorkerFailed,
    WorkerHired,
    WorkerRepooled,
)
from repro.core.config import ResilienceConfig, SchedulerConfig
from repro.core.errors import SchedulingError, TransientDeployError
from repro.desim.engine import Environment, Event
from repro.knowledge.plane import EstimateProvider
from repro.scheduler.allocation import AllocationContext, AllocationPolicy
from repro.scheduler.costs import TieredCostFunction
from repro.scheduler.estimator import PipelineEstimator
from repro.scheduler.queues import QueueSet
from repro.scheduler.resilience import (
    CircuitBreaker,
    DeadLetterQueue,
    ExecutionAttempt,
    RetryPolicy,
    SpeculativeExecutor,
)
from repro.scheduler.rewards import RewardFunction
from repro.scheduler.scaling import ScalingContext, ScalingPolicy
from repro.scheduler.tasks import Job, JobState, StageRecord, StageTask
from repro.scheduler.workers import Worker, WorkerPools
from repro.workflows.compiled import CompiledWorkflow, chain_of

if TYPE_CHECKING:  # telemetry stays import-free on the default path
    from repro.telemetry.hub import TelemetryHub

__all__ = ["SCANScheduler"]

#: How long a queued task's thread-count decision stays valid (TU).
#: Dispatch is retried on every worker release; re-running the allocation
#: policy each time is pure overhead when the queue state has barely
#: moved.  0.25 TU staleness is negligible against 5-20 TU stage times.
DECISION_TTL = 0.25

#: Interrupt cause for a twin that lost the speculative race (the worker
#: survives); any other cause means the worker's VM died under the task.
_SPECULATIVE_LOSS = "speculative-loss"


class SCANScheduler:
    """Reward-driven scheduler for one application's pipeline runs."""

    def __init__(
        self,
        env: Environment,
        app: ApplicationModel,
        infrastructure: Infrastructure,
        celar: CelarManager,
        reward: RewardFunction,
        allocation: AllocationPolicy,
        scaling: ScalingPolicy,
        config: Optional[SchedulerConfig] = None,
        actual_app: Optional[ApplicationModel] = None,
        faults: Optional[FaultInjector] = None,
        resilience: Optional[ResilienceConfig] = None,
        telemetry: "Optional[TelemetryHub]" = None,
        bus: Optional[EventBus] = None,
        estimates: Optional[EstimateProvider] = None,
        workflow: Optional[CompiledWorkflow] = None,
    ) -> None:
        self.env = env
        self.app = app
        #: The model EXECUTION follows.  Defaults to ``app`` (the believed
        #: model is also reality, the paper's setting).  Supplying a
        #: different model simulates profiling drift: planning decisions
        #: use ``app`` while task durations come from ``actual_app`` --
        #: the scenario the learning allocator (Section VI future work)
        #: and robustness tests exercise.
        self.actual_app = actual_app if actual_app is not None else app
        if self.actual_app.n_stages != app.n_stages:
            raise SchedulingError(
                "actual_app must have the same stage count as app"
            )
        #: The unit of work: a compiled DAG of stage executions.  Plain
        #: application scheduling lowers the app into its (cached) chain,
        #: where node i is stage i -- every queue, plan slot, EQT slot,
        #: and event below is indexed by workflow node.
        self.workflow = (
            workflow
            if workflow is not None
            else chain_of(app, self.actual_app)
        )
        #: Schedulable steps (chain: the app's stage count).
        self.n_steps = self.workflow.n_nodes
        self.infrastructure = infrastructure
        self.celar = celar
        self.reward = reward
        self.allocation = allocation
        self.scaling = scaling
        self.config = config if config is not None else SchedulerConfig()

        #: The chaos layer (None = fault-free run).
        self.faults = faults
        self.resilience = (
            resilience if resilience is not None else ResilienceConfig()
        )
        self.retry_policy = RetryPolicy.from_config(self.resilience)
        self.dead_letters = DeadLetterQueue()
        self.failed_jobs: list[Job] = []
        self.breaker: Optional[CircuitBreaker] = None
        if self.resilience.enabled and self.resilience.breaker_enabled:
            self.breaker = CircuitBreaker(
                threshold=self.resilience.breaker_threshold,
                cooldown_tu=self.resilience.breaker_cooldown_tu,
            )
        self.speculation = SpeculativeExecutor(
            enabled=(
                self.resilience.enabled and self.resilience.speculation_enabled
            ),
            straggler_factor=self.resilience.straggler_factor,
            on_launch=self._launch_speculative,
        )
        #: Whether a speculative twin can ever launch: the straggler
        #: watchdog is armed only with speculation on and stragglers
        #: injected.  Otherwise executions skip the executor entirely.
        self._speculates = (
            self.speculation.enabled
            and faults is not None
            and faults.stragglers_enabled
        )

        self.queues = QueueSet(self.n_steps, start_time=env.now)
        self.estimator = PipelineEstimator(
            app,
            eqt_alpha=self.config.eqt_alpha,
            estimates=estimates,
            workflow=self.workflow,
        )
        self.costs = TieredCostFunction(infrastructure)
        #: Every started, unfinished execution, by its worker.  An
        #: interrupted one stays until its interrupt is delivered.
        self._executing: dict[Worker, ExecutionAttempt] = {}
        self.task_retries = 0
        self.deploy_failures = 0

        self.submitted_jobs: list[Job] = []
        self.completed_jobs: list[Job] = []
        self.total_reward = 0.0
        self._started = False

        #: The typed event bus all cross-cutting observers subscribe to.
        #: The scheduler only *publishes*; assembly code (PlatformBuilder,
        #: tests, plugins) decides who listens.  Dead-letter accounting is
        #: itself a subscriber now -- the scheduler announces exhaustion,
        #: the queue quarantines.
        self.bus = bus if bus is not None else EventBus()
        self.bus.subscribe(TaskDeadLettered, self.dead_letters.on_dead_lettered)
        self.pools = WorkerPools(
            env,
            celar,
            idle_timeout_tu=self.config.idle_timeout_tu,
            injector=faults,
            bus=self.bus,
        )
        self.pools.on_available = self._on_worker_available
        self.pools.on_worker_failed = self._on_worker_failed

        # Learning-guided policies (paper Section VI future work) get the
        # realised duration as their reward signal -- delivered through the
        # bus as a StageCompleted subscription, not a bespoke callback, so
        # the feedback path is the same one the online refitter uses.
        observe = getattr(allocation, "observe_completion", None)
        if observe is not None:

            def _feed_learner(event: StageCompleted, _observe=observe) -> None:
                _observe(event.job_obj, event.stage, event.threads, event.duration)

            self.bus.subscribe(StageCompleted, _feed_learner)

        # Telemetry is threaded in as a hub (None = disabled) and consumes
        # the bus through passive adapters.  repro.telemetry is only
        # imported when a hub actually exists -- a run without telemetry
        # never loads the subsystem at all, and the publisher-side
        # ``type in bus`` guards keep the disabled path a dict probe.
        self.telemetry = telemetry
        self._explain = telemetry is not None and telemetry.explains_decisions
        if telemetry is not None:
            from repro.telemetry.bus_adapter import attach_hub

            attach_hub(self.bus, telemetry)

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        """Launch background processes (the idle-worker reaper)."""
        if self._started:
            raise SchedulingError("scheduler already started")
        self._started = True
        self.env.process(self.pools.start_reaper())

    def close(self) -> None:
        """Unhook the pools' and the speculative executor's callbacks.

        They are the only edges from the scheduler's parts back to the
        scheduler itself, so once its environment is closed as well
        (:meth:`Environment.close`) a finished platform is acyclic.
        Counters, queues, job lists and bus subscriptions stay as the run
        left them.  An execution abandoned in flight still belongs to its
        speculation group, which points back at it; that cycle is cut too.
        """
        self.pools.on_available = None
        self.pools.on_worker_failed = None
        self.speculation.on_launch = None
        for run in self._executing.values():
            run.group = None

    # -- submission ----------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Accept a run and enqueue its entry steps (chain: stage 0)."""
        if job.app is not self.app:
            raise SchedulingError(
                f"{job.name} targets {job.app.name!r}; this scheduler runs "
                f"{self.app.name!r}"
            )
        job_wf = job._workflow
        if job_wf is not None and (
            job_wf.name != self.workflow.name
            or job_wf.n_nodes != self.workflow.n_nodes
        ):
            raise SchedulingError(
                f"{job.name} carries workflow {job_wf.name!r} "
                f"({job_wf.n_nodes} nodes); this scheduler runs "
                f"{self.workflow.name!r} ({self.workflow.n_nodes} nodes)"
            )
        job.state = JobState.RUNNING
        self.submitted_jobs.append(job)
        self.allocation.on_submit(job, self._alloc_ctx())
        for step in job.start_steps():
            self._enqueue(job, step)
        return job

    # -- internals --------------------------------------------------------------
    def _alloc_ctx(self) -> AllocationContext:
        return AllocationContext(
            estimator=self.estimator,
            reward=self.reward,
            costs=self.costs,
            thread_choices=self.config.thread_choices,
            now=self.env.now,
            estimates=self.estimator.estimates,
        )

    def _worker_class(self, stage: int) -> str:
        """The worker-pool key for *stage*'s node.

        Chain nodes all carry the app's own worker class, so this is the
        legacy single-pool behaviour there; DAG nodes route each step to
        its application's pool.
        """
        return self.workflow.node(stage).worker_class

    def _enqueue(self, job: Job, stage: int) -> None:
        task = StageTask(job=job, stage=stage, enqueued_at=self.env.now)
        self.queues[stage].push(task, self.env.now)
        if TaskQueued in self.bus:
            self.bus.publish(
                TaskQueued(self.env.now, job.name, stage, task.attempt, False)
            )
        self._dispatch(stage)

    def _launch_speculative(self, task: StageTask) -> None:
        """The straggler watchdog hands us a duplicate to enqueue."""
        self.queues[task.stage].push(task, self.env.now)
        if TaskQueued in self.bus:
            self.bus.publish(
                TaskQueued(
                    self.env.now, task.job.name, task.stage, task.attempt, True
                )
            )
        self._dispatch(task.stage)

    def _on_worker_available(self) -> None:
        """Re-dispatch every non-empty queue, lowest stage first.

        Dispatching an empty queue does nothing, so skipping it leaves
        the simulation unchanged; emptiness is read as each stage's turn
        comes, after the earlier stages' dispatches.
        """
        for stage, queue in enumerate(self.queues):
            if not queue.empty:
                self._dispatch(stage)

    def _on_worker_failed(self, worker: Worker) -> None:
        """A busy worker's VM died: interrupt its task for retry.

        A spot eviction (provider reclaim) takes the same path -- the
        victim's task retries or dead-letters exactly like a crash -- but
        is reported distinctly so observers can tell reclaim pressure
        from hardware failure.
        """
        if worker.evicted:
            if WorkerEvicted in self.bus:
                self.bus.publish(
                    WorkerEvicted(
                        self.env.now, worker.uid, worker.tier, worker.cores
                    )
                )
        else:
            if WorkerFailed in self.bus:
                self.bus.publish(
                    WorkerFailed(
                        self.env.now, worker.uid, worker.tier, worker.cores
                    )
                )
        run = self._executing.get(worker)
        if run is not None and run.running:
            self._interrupt(run, "vm-failure")

    def _breaker_guards(self, tier: str) -> bool:
        """Whether the deploy circuit breaker watches this tier.

        The breaker protects elastic hires (the two-tier era's "public"
        check); base-tier deploys never feed it.
        """
        return (
            self.breaker is not None
            and self.infrastructure.tier(tier).elastic
        )

    def _try_hire(self, cores: int, tier: str, stage: int) -> bool:
        """Hire a worker, absorbing transient deploy bounces.

        On a bounce: record it, feed the circuit breaker (elastic tiers),
        and re-arm dispatch for *stage* after the deploy retry delay so
        the queue is not stranded waiting for a boot that never began.
        """
        try:
            worker = self.pools.hire(
                self._worker_class(stage), cores, tier, stage
            )
        except TransientDeployError:
            now = self.env.now
            self.deploy_failures += 1
            breaker_opened = False
            if self._breaker_guards(tier):
                breaker_opened = self.breaker.record_failure(now)
                if breaker_opened:
                    # Once the cooldown elapses a half-open probe is
                    # allowed; wake every queue to take it.
                    self._schedule_redispatch_all(self.breaker.cooldown_tu)
            if DeployFailed in self.bus:
                self.bus.publish(
                    DeployFailed(now, tier, cores, stage, breaker_opened)
                )
            if self.resilience.enabled:
                self._schedule_redispatch(
                    stage, self.resilience.deploy_retry_delay_tu
                )
            # With resilience disabled nothing re-arms this queue: it sits
            # until an unrelated worker event (or arrival) pokes dispatch
            # again -- the wedge the retry delay exists to prevent.
            return False
        if WorkerHired in self.bus:
            self.bus.publish(
                WorkerHired(self.env.now, worker.uid, tier, cores, stage)
            )
        if self._breaker_guards(tier):
            self.breaker.record_success(self.env.now)
        return True

    def _publish_finished(
        self, job: Job, stage: int, outcome: str, worker: Worker
    ) -> None:
        """Announce the end of an execution: exactly one per TaskStarted."""
        if TaskFinished in self.bus:
            self.bus.publish(
                TaskFinished(
                    self.env.now, job.name, stage, outcome, worker.uid,
                    worker.tier,
                )
            )

    def _publish_decision(self, task: StageTask, decision) -> None:
        """Announce one hire-or-wait choice (audit/trace/metric adapters)."""
        if ScalingDecisionMade in self.bus:
            self.bus.publish(
                ScalingDecisionMade(
                    self.env.now,
                    task.stage,
                    task.uid,
                    task.job.uid,
                    task.job.name,
                    decision,
                )
            )

    def _after(self, delay: float, callback, value) -> None:
        """Call *callback* with an event carrying *value* in *delay* TU.

        The timer is set one URGENT hop from now, where a process's body
        would set it, so it takes the same place on the calendar.
        """
        self.env.defer(self._set_timer, (delay, callback, value))

    def _set_timer(self, event: Event) -> None:
        delay, callback, value = event.value
        self.env.timeout(delay, value).callbacks.append(callback)

    def _schedule_redispatch(self, stage: int, delay: float) -> None:
        self._after(max(delay, 0.0), self._redispatch, stage)

    def _schedule_redispatch_all(self, delay: float) -> None:
        self._after(max(delay, 0.0), self._redispatch, None)

    def _redispatch(self, event: Event) -> None:
        """Timer callback: re-run one stage's dispatch (None: every queue)."""
        if event.value is None:
            self._on_worker_available()
        else:
            self._dispatch(event.value)

    def _dispatch(self, stage: int) -> None:
        """Serve the front of one stage queue as far as resources allow."""
        queue = self.queues[stage]
        while not queue.empty:
            task = queue.peek()
            assert task is not None
            # Cancelled speculative twins and stages of dead-lettered jobs
            # are dropped, never run.
            if task.cancelled or task.job.is_failed:
                queue.pop(self.env.now)
                continue
            if (
                task.threads is None
                or self.env.now - task.decided_at > DECISION_TTL
            ):
                task.threads = self.allocation.threads_for_stage(
                    task.job, stage, self._alloc_ctx()
                )
                task.decided_at = self.env.now
            threads = task.threads
            # Instance sizing honours the stage's memory footprint too: a
            # 8 GB stage cannot run on a 1-core/4 GB instance even
            # single-threaded.  The footprint is a knowledge-plane fact.
            cores = self.celar.fit_size(
                threads, ram_gb=self.estimator.estimates.stage_model(stage).ram_gb
            )

            worker = self.pools.acquire(self._worker_class(stage), cores)
            if worker is not None:
                queue.pop(self.env.now)
                self.env.defer(self._start_run, ExecutionAttempt(task, worker))
                continue

            # A worker is already on its way for this stage's front task.
            if self.pools.booting_for_stage.get(stage, 0) > 0:
                return

            # Base-tier capacity available: every policy hires there.
            base = self.infrastructure.base
            if base.can_allocate(cores):
                self._try_hire(cores, base.name, stage)
                return

            # Private full: a re-pooled idle worker needs no new capacity.
            if self.config.repool_allowed:
                candidate = self.pools.repool_candidate(
                    self._worker_class(stage), cores
                )
                if candidate is not None:
                    self.pools.repool(candidate, cores, stage)
                    if WorkerRepooled in self.bus:
                        self.bus.publish(
                            WorkerRepooled(
                                self.env.now, candidate.uid, cores, stage
                            )
                        )
                    return

            # Hire-or-wait: the horizontal-scaling policy's call.
            expected_wait = self.pools.estimate_wait(
                self._worker_class(stage),
                cores,
                penalty_tu=self.celar.startup_penalty_tu,
            )
            decision = self.scaling.decide(
                task,
                cores,
                ScalingContext(
                    infrastructure=self.infrastructure,
                    costs=self.costs,
                    estimator=self.estimator,
                    reward=self.reward,
                    queue=queue,
                    now=self.env.now,
                    startup_penalty_tu=self.celar.startup_penalty_tu,
                    expected_wait=expected_wait,
                    public_available=(
                        self.breaker.allow(self.env.now)
                        if self.breaker is not None
                        else True
                    ),
                    explain=self._explain,
                ),
            )
            # NB: gated on _explain (audit/trace present), matching the
            # pre-bus behaviour where metrics-only runs skipped decision
            # accounting entirely.
            if self._explain:
                self._publish_decision(task, decision)
            if decision.hire:
                assert decision.tier is not None
                self._try_hire(cores, decision.tier, stage)
                return

            # Waiting -- but guard against a stall where nothing will ever
            # free up by itself (no busy workers, nothing booting).
            if not self.pools.busy_total() and self.pools.booting_total() == 0:
                base = self.infrastructure.base
                if self.pools.force_free(base.name, cores):
                    self._try_hire(cores, base.name, stage)
                    return
            return

    # -- execution -------------------------------------------------------------
    # One execution is three calendar callbacks over an ExecutionAttempt:
    # _start_run one URGENT hop after dispatch, then _finish_run when the
    # task's duration has passed, unless an URGENT _interrupted (VM
    # failure, lost speculative race) is delivered first.
    def _start_run(self, event: Event) -> None:
        """Calendar callback: start one dispatched execution."""
        run: ExecutionAttempt = event.value
        task, worker = run.task, run.worker
        job, stage = task.job, task.stage
        # The race window between dispatch and start: a twin may have
        # resolved the stage (or dead-lettered the job) meanwhile.
        if task.cancelled or job.is_failed:
            run.running = False
            self.pools.release_unstarted(worker)
            return
        group = None
        if self._speculates:
            group = self.speculation.register(run)
            if task.speculative and group is None:
                # Stale duplicate: the primary finished before we started.
                run.running = False
                self.pools.release_unstarted(worker)
                return

        started_at = self.env.now
        if task.threads is None:
            raise SchedulingError(f"{task!r} dispatched without a thread count")
        threads = min(task.threads, worker.cores)

        wait = started_at - task.enqueued_at
        if not task.speculative:
            # Duplicates would double-count the stage's queue-wait signal.
            self.estimator.observe_queue_wait(stage, wait)

        worker.vm.mark_busy()
        # Reality may diverge from the believed model (the node's ground
        # truth comes from actual_app for chains, the drift-aware resolver
        # for compiled specs).  The node's input is the job input scaled by
        # the workflow's data-propagation factor (1.0 on every chain node).
        node = self.workflow.node(stage)
        stage_input = self.workflow.node_input_gb(stage, job.input_gb)
        duration = node.actual.threaded_time(threads, stage_input)
        straggled = False
        if self.faults is not None and self.faults.stragglers_enabled:
            multiplier = self.faults.straggler_multiplier()
            if multiplier > 1.0:
                straggled = True
                duration *= multiplier
        run.started_at = started_at
        run.threads = threads
        run.duration = duration
        run.stage_input = stage_input
        self.pools.start(worker, started_at + duration)
        if TaskStarted in self.bus:
            self.bus.publish(
                TaskStarted(
                    started_at,
                    job.name,
                    stage,
                    threads,
                    worker.uid,
                    worker.tier,
                    wait,
                    task.attempt,
                    task.speculative,
                    straggled,
                )
            )
        if straggled and FaultInjected in self.bus:
            self.bus.publish(
                FaultInjected(
                    started_at, "straggler", job.name, stage, duration
                )
            )

        # Arm the straggler watchdog for primaries (a group exists only
        # when stragglers can occur); it launches at most one
        # speculative duplicate.
        if group is not None and not task.speculative:
            predicted = self.estimator.eet(stage, stage_input, threads)
            self.speculation.watch(self.env, group, predicted)

        self._executing[worker] = run
        self.env.timeout(duration, run).callbacks.append(self._finish_run)

    def _interrupt(self, run: ExecutionAttempt, cause: str) -> None:
        """Stop a running execution at this instant.

        Delivered as an URGENT event, so it beats a finish due at the same
        instant; delivered after the finish, it dissolves.
        """
        self.env.defer(self._interrupted, (run, cause))

    def _interrupted(self, event: Event) -> None:
        """Calendar callback: an interrupt reaches its execution."""
        run, cause = event.value
        if not run.running:
            return  # finished first: the interrupt dissolves
        run.running = False
        task, worker, group = run.task, run.worker, run.group
        run.group = None
        job, stage = task.job, task.stage
        self._executing.pop(worker, None)
        if cause == _SPECULATIVE_LOSS:
            # The twin finished first; this worker is fine -- free it.
            self.speculation.lost += 1
            self._publish_finished(job, stage, "speculative_loss", worker)
            self.pools.release(worker)
            return
        # The worker's VM died mid-task (failure injection): nothing
        # was produced.  If a twin is still running the stage survives
        # on it; otherwise the attempt failed and the retry/dead-letter
        # machinery takes over.
        self._publish_finished(job, stage, "vm_failure", worker)
        if group is not None and self.speculation.twin_survives(group, task):
            return
        self._handle_failed_attempt(task, reason="vm-failure")

    def _finish_run(self, event: Event) -> None:
        """Timer callback: an execution's duration has passed."""
        run: ExecutionAttempt = event.value
        if not run.running:
            return  # an interrupt ended it first
        run.running = False
        task, worker, group = run.task, run.worker, run.group
        run.group = None
        job, stage = task.job, task.stage
        self._executing.pop(worker, None)

        finished_at = self.env.now
        if group is not None and group.resolved:
            # The twin finished at this exact timestamp and won the race.
            self.speculation.lost += 1
            self._publish_finished(job, stage, "speculative_loss", worker)
            self.pools.release(worker)
            return

        if self.faults is not None and self.faults.corrupts():
            # Staging/shard corruption: the output is garbage, the work
            # must be redone even though the worker is healthy.
            self._publish_finished(job, stage, "corrupted", worker)
            if FaultInjected in self.bus:
                self.bus.publish(
                    FaultInjected(finished_at, "corruption", job.name, stage)
                )
            self.pools.release(worker)
            if group is not None and self.speculation.twin_survives(
                group, task
            ):
                return
            self._handle_failed_attempt(task, reason="corruption")
            return

        loser = None
        if group is not None:
            loser = self.speculation.resolve(group, task)
        worker.tasks_executed += 1
        job.record_stage(
            StageRecord(
                stage=stage,
                queued_at=(
                    task.first_enqueued_at
                    if task.first_enqueued_at is not None
                    else task.enqueued_at
                ),
                started_at=run.started_at,
                finished_at=finished_at,
                threads=run.threads,
                tier=worker.tier,
                attempts=task.attempt,
            )
        )

        self._publish_finished(job, stage, "completed", worker)
        # The knowledge loop's feedback edge: realised durations flow to
        # whoever subscribed (learning policies, the online refitter, the
        # knowledge-base ingestor).  `input_gb` is the stage-model axis
        # (the node's scaled input), not the reward-unit job size.  The
        # event is keyed by the node's fact scope and in-app stage: chains
        # publish (app.name, stage) exactly as before, while DAG branches
        # publish ("{workflow}/{step}", stage) so the refitter sharpens
        # each branch independently.
        if StageCompleted in self.bus:
            node = self.workflow.node(stage)
            self.bus.publish(
                StageCompleted(
                    finished_at,
                    job.name,
                    node.scope,
                    node.app_stage,
                    run.stage_input,
                    run.threads,
                    run.duration,
                    job,
                    tier=worker.tier,
                )
            )

        self.pools.release(worker)
        if loser is not None and loser.running:
            # Interrupt the losing twin AFTER our own bookkeeping: its
            # handler releases its worker and returns.
            self._interrupt(loser, _SPECULATIVE_LOSS)

        if job.current_stage >= job.n_stages:
            latency = finished_at - job.submit_time
            paid = self.reward(latency, job.records)
            job.complete(finished_at, paid)
            self.completed_jobs.append(job)
            self.total_reward += paid
            if JobCompleted in self.bus:
                self.bus.publish(
                    JobCompleted(finished_at, job.name, latency, paid, job.size)
                )
        else:
            # Release every child whose last outstanding parent just
            # finished.  Chains release exactly [stage + 1], preserving
            # the legacy enqueue order; DAG fan-outs release independent
            # branches together, each into its own node queue.
            for next_step in job.ready_after(stage):
                self._enqueue(job, next_step)

    # -- retry / dead-letter machinery -------------------------------------------
    def _handle_failed_attempt(self, task: StageTask, reason: str) -> None:
        """An execution produced nothing: retry with backoff or dead-letter."""
        job, stage = task.job, task.stage
        now = self.env.now
        self.speculation.discard(task)
        if self.retry_policy.exhausted(task.attempt):
            # Quarantining is a subscription: self.dead_letters listens
            # for this event (always subscribed, so no `in bus` guard).
            self.bus.publish(
                TaskDeadLettered(
                    now, job.name, stage, task.attempt, reason, task
                )
            )
            job.fail(now)
            self.failed_jobs.append(job)
            if JobFailed in self.bus:
                self.bus.publish(JobFailed(now, job.name, stage, reason))
            return
        self.task_retries += 1
        delay = self.retry_policy.delay_for(task.attempt)
        if TaskRetryScheduled in self.bus:
            self.bus.publish(
                TaskRetryScheduled(
                    now, job.name, stage, task.attempt + 1, delay, reason
                )
            )
        if delay > 0:
            self._after(delay, self._retry_later, task)
        else:
            self._requeue_retry(task)

    def _retry_later(self, event: Event) -> None:
        """Timer callback: the backoff elapsed; re-enqueue the task."""
        self._requeue_retry(event.value)

    def _requeue_retry(self, task: StageTask) -> None:
        job, stage = task.job, task.stage
        if job.is_failed:  # dead-lettered while the backoff timer ran
            return
        retry = StageTask(
            job=job,
            stage=stage,
            enqueued_at=self.env.now,
            attempt=task.attempt + 1,
            first_enqueued_at=task.first_enqueued_at,
        )
        self.queues[stage].push(retry, self.env.now)
        if TaskQueued in self.bus:
            self.bus.publish(
                TaskQueued(self.env.now, job.name, stage, retry.attempt, False)
            )
        self._dispatch(stage)

    # -- reporting ---------------------------------------------------------------
    def total_cost(self) -> float:
        """Core-time spend so far (CU), from the infrastructure meters."""
        return self.infrastructure.accumulated_cost()

    def profit(self) -> float:
        """Total reward minus total cost so far (CU)."""
        return self.total_reward - self.total_cost()

    def mean_profit_per_run(self) -> float:
        """Figure 4's y-axis: (reward - cost) / completed pipeline runs."""
        if not self.completed_jobs:
            return 0.0
        return self.profit() / len(self.completed_jobs)

    def mean_latency(self) -> float:
        """Mean pipeline latency over completed jobs (TU)."""
        if not self.completed_jobs:
            return float("nan")
        return sum(j.latency() for j in self.completed_jobs) / len(
            self.completed_jobs
        )
