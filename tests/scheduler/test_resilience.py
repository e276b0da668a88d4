"""Tests for the resilience suite: retry budgets, dead letters, speculation,
circuit breaker -- both the mechanisms in isolation and wired through
:class:`~repro.scheduler.scheduler.SCANScheduler` under injected chaos."""

import pytest

from repro.apps.base import ExecutionPlan
from repro.cloud.celar import CelarManager
from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.infrastructure import Infrastructure
from repro.core.config import ResilienceConfig
from repro.core.errors import SchedulingError
from repro.core.bus import (
    DeployFailed,
    EventRecorder,
    JobFailed,
    TaskDeadLettered,
    TaskFinished,
    TaskQueued,
    TaskRetryScheduled,
    WorkerHired,
)
from repro.desim.engine import Environment
from repro.desim.rng import RandomStreams
from repro.scheduler.allocation import BestConstantAllocation
from repro.scheduler.resilience import (
    BreakerState,
    CircuitBreaker,
    DeadLetterQueue,
    RetryPolicy,
)
from repro.scheduler.rewards import TimeReward
from repro.scheduler.scaling import AlwaysScale
from repro.scheduler.scheduler import SCANScheduler
from repro.scheduler.tasks import Job, StageTask


# -- RetryPolicy --------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(SchedulingError):
            RetryPolicy(base_delay_tu=-0.5)
        with pytest.raises(SchedulingError):
            RetryPolicy(backoff_factor=0.5)

    def test_zero_budget_never_exhausts(self):
        policy = RetryPolicy(max_attempts=0)
        assert not policy.exhausted(1)
        assert not policy.exhausted(10_000)

    def test_budget_exhausts_at_max(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_capped_exponential_backoff(self):
        policy = RetryPolicy(
            base_delay_tu=0.25, backoff_factor=2.0, max_delay_tu=1.0
        )
        assert policy.delay_for(1) == pytest.approx(0.25)
        assert policy.delay_for(2) == pytest.approx(0.5)
        assert policy.delay_for(3) == pytest.approx(1.0)
        assert policy.delay_for(10) == pytest.approx(1.0)  # capped

    def test_zero_base_delay_is_instant(self):
        assert RetryPolicy(base_delay_tu=0.0).delay_for(5) == 0.0

    def test_delay_needs_a_used_attempt(self):
        with pytest.raises(SchedulingError):
            RetryPolicy().delay_for(0)

    def test_from_config_enabled(self):
        cfg = ResilienceConfig(max_attempts=4, retry_base_delay_tu=0.5)
        policy = RetryPolicy.from_config(cfg)
        assert policy.max_attempts == 4
        assert policy.base_delay_tu == 0.5

    def test_from_config_disabled_means_first_failure_is_final(self):
        policy = RetryPolicy.from_config(ResilienceConfig(enabled=False))
        assert policy.exhausted(1)


# -- DeadLetterQueue ----------------------------------------------------------
class TestDeadLetterQueue:
    def test_push_iter_by_stage(self, gatk_model):
        dlq = DeadLetterQueue()
        job = Job(app=gatk_model, size=1.0, submit_time=0.0)
        dlq.push(StageTask(job=job, stage=2, enqueued_at=0.0), "vm-failure", 5.0)
        dlq.push(StageTask(job=job, stage=2, enqueued_at=0.0), "corruption", 7.0)
        dlq.push(StageTask(job=job, stage=4, enqueued_at=0.0), "vm-failure", 9.0)
        assert len(dlq) == 3
        assert [e.reason for e in dlq] == ["vm-failure", "corruption", "vm-failure"]
        assert dlq.by_stage() == {2: 2, 4: 1}


# -- CircuitBreaker -----------------------------------------------------------
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            CircuitBreaker(threshold=0)
        with pytest.raises(SchedulingError):
            CircuitBreaker(cooldown_tu=0.0)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown_tu=10.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.record_failure(2.0)  # third in a row trips it
        assert breaker.state(2.0) is BreakerState.OPEN
        assert not breaker.allow(5.0)
        assert breaker.opened_count == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=3, cooldown_tu=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        assert not breaker.record_failure(3.0)
        assert not breaker.record_failure(4.0)
        assert breaker.state(4.0) is BreakerState.CLOSED

    def test_half_open_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown_tu=10.0)
        breaker.record_failure(0.0)
        assert breaker.state(5.0) is BreakerState.OPEN
        assert breaker.state(10.0) is BreakerState.HALF_OPEN
        assert breaker.allow(10.0)  # the probe is allowed through

    def test_successful_probe_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_tu=10.0)
        breaker.record_failure(0.0)
        assert breaker.record_success(11.0)  # True = it just closed
        assert breaker.state(11.0) is BreakerState.CLOSED
        assert not breaker.record_success(12.0)  # already closed

    def test_failed_probe_reopens_for_another_cooldown(self):
        breaker = CircuitBreaker(threshold=3, cooldown_tu=10.0)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        assert breaker.record_failure(12.0)  # half-open probe fails
        assert breaker.state(13.0) is BreakerState.OPEN
        assert breaker.state(22.0) is BreakerState.HALF_OPEN
        assert breaker.opened_count == 2


# -- scheduler integration ----------------------------------------------------
def build_scheduler(env, gatk_model, injector, resilience,
                    private_cores=624, public_cores=100_000, threads=1):
    infra = Infrastructure(
        env, private_cores=private_cores, public_cores=public_cores
    )
    celar = CelarManager(
        env, infra, startup_penalty_tu=0.5, injector=injector
    )
    scheduler = SCANScheduler(
        env, gatk_model, infra, celar, TimeReward(),
        BestConstantAllocation(ExecutionPlan.uniform(7, threads)),
        AlwaysScale(),
        faults=injector,
        resilience=resilience,
    )
    scheduler.start()
    return scheduler


def recorded(scheduler):
    """Record every event *scheduler* publishes from now on."""
    return EventRecorder().attach(scheduler.bus)


def corrupted(recorder):
    return [
        e for e in recorder.of_type(TaskFinished) if e.outcome == "corrupted"
    ]


def retried(recorder):
    return [
        e for e in recorder.of_type(TaskQueued)
        if e.attempt > 1 and not e.speculative
    ]


class ScriptedStragglers(FaultInjector):
    """Straggle the first N executions by a fixed factor, then run clean."""

    def __init__(self, multipliers):
        super().__init__(FaultPlan(p_straggler=0.5), RandomStreams(0))
        self._multipliers = list(multipliers)

    def straggler_multiplier(self):
        if self._multipliers:
            m = self._multipliers.pop(0)
            if m > 1.0:
                self.stragglers_injected += 1
            return m
        return 1.0


class ScriptedDeploys(FaultInjector):
    """Bounce every public-tier deploy while ``failing`` is set."""

    def __init__(self):
        super().__init__(FaultPlan(p_deploy_fail=1.0), RandomStreams(0))
        self.failing = True

    def deploy_fails(self, tier):
        if self.failing and tier == "public":
            self.deploy_failures_injected += 1
            return True
        return False


class TestPoisonTask:
    """The acceptance scenario: a poison task consumes exactly its retry
    budget, its job fails, and the scheduler keeps serving other jobs."""

    def make(self, env, gatk_model, max_attempts=3):
        injector = FaultInjector(FaultPlan(p_corrupt=1.0), RandomStreams(0))
        return build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(max_attempts=max_attempts),
        )

    def test_poison_task_consumes_exactly_max_attempts(self, gatk_model):
        env = Environment()
        scheduler = self.make(env, gatk_model, max_attempts=3)
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=2000.0)
        # Every execution of stage 0 was corrupted: exactly 3 executions,
        # 2 retries, then the dead letter.
        assert len(corrupted(recorder)) == 3
        assert len(retried(recorder)) == 2
        assert len(recorder.of_type(TaskDeadLettered)) == 1
        assert len(recorder.of_type(JobFailed)) == 1
        assert job.is_failed and not job.is_complete
        assert job.failed_at is not None
        assert len(scheduler.dead_letters) == 1
        assert scheduler.failed_jobs == [job]
        # Reward forfeited: nothing completed, nothing paid.
        assert scheduler.total_reward == 0.0
        assert not job.reward_paid

    def test_retries_back_off_exponentially(self, gatk_model):
        env = Environment()
        scheduler = self.make(env, gatk_model, max_attempts=4)
        recorder = recorded(scheduler)
        scheduler.submit(Job(app=gatk_model, size=2.0, submit_time=0.0))
        env.run(until=2000.0)
        delays = [e.delay for e in recorder.of_type(TaskRetryScheduled)]
        assert delays == pytest.approx([0.25, 0.5, 1.0])

    def test_scheduler_keeps_serving_after_dead_letter(self, gatk_model):
        env = Environment()
        scheduler = self.make(env, gatk_model, max_attempts=2)
        poison = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(poison)
        env.run(until=2000.0)
        assert poison.is_failed
        # The chaos clears; a new job must sail through the same scheduler.
        scheduler.faults = None
        healthy = Job(app=gatk_model, size=2.0, submit_time=env.now)
        scheduler.submit(healthy)
        env.run(until=env.now + 2000.0)
        assert healthy.is_complete
        assert scheduler.completed_jobs == [healthy]

    def test_dead_lettered_stage_never_records_history(self, gatk_model):
        env = Environment()
        scheduler = self.make(env, gatk_model, max_attempts=2)
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=2000.0)
        assert job.history == []

    def test_disabled_resilience_fails_on_first_corruption(self, gatk_model):
        env = Environment()
        injector = FaultInjector(FaultPlan(p_corrupt=1.0), RandomStreams(0))
        scheduler = build_scheduler(
            env, gatk_model, injector, ResilienceConfig(enabled=False)
        )
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=2000.0)
        assert len(corrupted(recorder)) == 1  # no second chance
        assert retried(recorder) == []
        assert job.is_failed


class TestRetriedTaskMetrics:
    def test_stage_record_keeps_first_enqueue_and_attempts(self, gatk_model):
        """A retried stage's record reports the FIRST enqueue time (the
        user-visible wait) and how many executions it consumed."""
        env = Environment()

        class CorruptTwice(FaultInjector):
            def __init__(self):
                super().__init__(FaultPlan(p_corrupt=1.0), RandomStreams(0))
                self._left = 2

            def corrupts(self):
                if self._left > 0:
                    self._left -= 1
                    self.corruptions_injected += 1
                    return True
                return False

        scheduler = build_scheduler(
            env, gatk_model, CorruptTwice(), ResilienceConfig(max_attempts=5)
        )
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=2000.0)
        assert job.is_complete
        first = job.history[0]
        assert first.attempts == 3  # two corrupted runs + the clean one
        assert first.queued_at == 0.0  # not reset by the retries
        # Later stages ran clean, exactly once.
        assert all(r.attempts == 1 for r in job.history[1:])


class TestSpeculation:
    def test_straggler_spawns_winning_duplicate(self, gatk_model):
        env = Environment()
        injector = ScriptedStragglers([50.0])  # first execution crawls
        scheduler = build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(straggler_factor=2.0),
        )
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=4.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=5000.0)
        assert job.is_complete
        (twin,) = [e for e in recorder.of_type(TaskQueued) if e.speculative]
        assert twin.stage == 0
        assert scheduler.speculation.launched == 1
        assert scheduler.speculation.won == 1
        assert scheduler.speculation.lost == 1
        # Exactly one record for the speculated stage.
        assert [r.stage for r in job.history] == list(range(7))

    def test_speculation_can_be_disabled(self, gatk_model):
        env = Environment()
        injector = ScriptedStragglers([50.0])
        scheduler = build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(speculation_enabled=False),
        )
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=4.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=5000.0)
        assert job.is_complete  # just slowly
        assert scheduler.speculation.launched == 0
        assert not any(e.speculative for e in recorder.of_type(TaskQueued))

    def test_interrupted_loser_releases_its_worker(self, gatk_model):
        env = Environment()
        injector = ScriptedStragglers([50.0])
        scheduler = build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(straggler_factor=2.0),
        )
        scheduler.submit(Job(app=gatk_model, size=4.0, submit_time=0.0))
        env.run(until=5000.0)
        pools = scheduler.pools
        assert not pools.busy_workers  # everything returned or reaped
        alive = sum(w.cores for w in pools.idle_workers)
        assert scheduler.infrastructure.total_cores_in_use() == alive


class TestCircuitBreakerIntegration:
    def make(self, env, gatk_model, injector):
        # A one-core private tier forces every hire onto the public tier.
        return build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(
                breaker_threshold=3, breaker_cooldown_tu=5.0
            ),
            private_cores=1, threads=2,
        )

    def test_repeated_public_bounces_trip_the_breaker(self, gatk_model):
        env = Environment()
        injector = ScriptedDeploys()
        scheduler = self.make(env, gatk_model, injector)
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=4.0)
        bounces = recorder.of_type(DeployFailed)
        assert scheduler.deploy_failures == len(bounces) >= 3
        assert any(e.breaker_opened for e in bounces)
        assert scheduler.breaker is not None
        assert not scheduler.breaker.allow(env.now)
        assert not job.is_complete  # nothing could be hired

    def test_halfopen_probe_recovers_and_closes(self, gatk_model):
        env = Environment()
        injector = ScriptedDeploys()
        scheduler = self.make(env, gatk_model, injector)
        recorder = recorded(scheduler)
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=4.0)
        assert not scheduler.breaker.allow(env.now)
        injector.failing = False  # the cloud recovers
        env.run(until=2000.0)
        assert scheduler.breaker.state(env.now) is BreakerState.CLOSED
        assert recorder.of_type(WorkerHired)
        assert job.is_complete

    def test_breaker_can_be_disabled(self, gatk_model):
        env = Environment()
        injector = ScriptedDeploys()
        scheduler = build_scheduler(
            env, gatk_model, injector,
            ResilienceConfig(breaker_enabled=False),
            private_cores=1, threads=2,
        )
        recorder = recorded(scheduler)
        scheduler.submit(Job(app=gatk_model, size=2.0, submit_time=0.0))
        env.run(until=10.0)
        assert scheduler.breaker is None
        assert scheduler.deploy_failures >= 3
        assert not any(e.breaker_opened for e in recorder.of_type(DeployFailed))


class TestBootFailures:
    def test_job_completes_despite_boot_failures(self, gatk_model):
        env = Environment()
        injector = FaultInjector(
            FaultPlan(p_boot_fail=0.5), RandomStreams(3)
        )
        scheduler = build_scheduler(
            env, gatk_model, injector, ResilienceConfig()
        )
        job = Job(app=gatk_model, size=2.0, submit_time=0.0)
        scheduler.submit(job)
        env.run(until=5000.0)
        assert job.is_complete
        assert scheduler.pools.boot_failures > 0
        assert (
            scheduler.pools.boot_failures == injector.boot_failures_injected
        )
