"""Tests for the scheduler decision audit log and its replay."""

import pytest

from repro.core.config import PlatformConfig
from repro.scheduler.estimator import DelayCostTerm
from repro.scheduler.rewards import make_reward
from repro.scheduler.scaling import DecisionExplanation, ScalingDecision
from repro.telemetry.audit import (
    DecisionAuditLog,
    ScalingDecisionRecord,
    decision_label,
    replay_decision,
)


def linear_reward(latency: float, records: float) -> float:
    """A simple decreasing reward: delaying always costs records * delay."""
    return -latency * records


def _record(explanation, decision="wait", **kwargs):
    defaults = dict(time=1.0, stage=0, task_uid=1, job_uid=1)
    defaults.update(kwargs)
    return ScalingDecisionRecord(
        decision=decision, explanation=explanation, **defaults
    )


class TestDecisionLabel:
    def test_labels(self):
        assert decision_label(ScalingDecision.wait()) == "wait"
        assert decision_label(ScalingDecision.on("public")) == "hire_public"
        assert decision_label(ScalingDecision.on("private")) == "hire_private"


class TestAuditLog:
    def test_append_iter_and_counts(self):
        log = DecisionAuditLog()
        log.add(_record(None, decision="wait"))
        log.add(_record(None, decision="hire_public", task_uid=2))
        assert len(log) == 2
        assert log.counts == {"wait": 1, "hire_public": 1}
        assert [r.task_uid for r in log] == [1, 2]

    def test_cap_drops_but_keeps_counting(self):
        log = DecisionAuditLog(max_records=2)
        for i in range(5):
            log.add(_record(None, decision="wait", task_uid=i))
        assert len(log) == 2
        assert log.dropped == 3
        assert log.counts["wait"] == 5


class TestReplay:
    def test_explanationless_record_rejected(self):
        with pytest.raises(ValueError):
            replay_decision(_record(None), linear_reward)

    def test_private_free_replays_to_private(self):
        explanation = DecisionExplanation(
            policy="predictive", private_free=True, public_available=True
        )
        record = _record(explanation, decision="hire_private")
        assert replay_decision(record, linear_reward) == "hire_private"

    def test_never_policy_waits(self):
        explanation = DecisionExplanation(
            policy="never", private_free=False, public_available=True
        )
        assert replay_decision(_record(explanation), linear_reward) == "wait"

    def test_always_policy_hires_when_public_open(self):
        explanation = DecisionExplanation(
            policy="always",
            private_free=False,
            public_available=True,
            public_capacity=True,
        )
        record = _record(explanation, decision="hire_public")
        assert replay_decision(record, linear_reward) == "hire_public"

    def test_breaker_open_waits(self):
        explanation = DecisionExplanation(
            policy="always", private_free=False, public_available=False
        )
        assert replay_decision(_record(explanation), linear_reward) == "wait"

    def test_predictive_eq1_recomputed_from_terms(self):
        # Two queued jobs of 10 records each, waiting 3 TU: the linear
        # reward loses 10 * 3 CU per job -> delay cost 60 CU.
        terms = tuple(
            DelayCostTerm(
                job_uid=uid,
                ett_now=2.0,
                records=10.0,
                reward_now=linear_reward(2.0, 10.0),
                reward_delayed=linear_reward(5.0, 10.0),
            )
            for uid in (1, 2)
        )
        base = dict(
            policy="predictive",
            private_free=False,
            public_available=True,
            public_capacity=True,
            wait=3.0,
            terms=terms,
        )
        hire = DecisionExplanation(premium=59.0, **base)
        wait = DecisionExplanation(premium=61.0, **base)
        assert replay_decision(_record(hire), linear_reward) == "hire_public"
        assert replay_decision(_record(wait), linear_reward) == "wait"

    def test_predictive_zero_wait_waits(self):
        explanation = DecisionExplanation(
            policy="predictive",
            private_free=False,
            public_available=True,
            public_capacity=True,
            wait=0.0,
            premium=1.0,
        )
        assert replay_decision(_record(explanation), linear_reward) == "wait"


class TestEndToEndReplay:
    """Acceptance: hire decisions logged by a real run replay identically."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.sim.session import SimulationSession

        # A starved private tier under heavy load with a cheap public tier:
        # the predictive scaler is consulted often and hires repeatedly.
        config = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 60.0},
            workload={"mean_interarrival": 0.6},
            cloud={"private_cores": 8, "public_cores": 256,
                   "public_core_cost": 2.0},
            telemetry={"enabled": True},
        )
        session = SimulationSession(config)
        session.run(seed=11)
        return session

    def test_audit_captured_decisions(self, session):
        audit = session.telemetry.audit
        assert len(audit) > 0
        assert all(r.explanation is not None for r in audit)

    def test_hire_now_decision_replays_to_same_choice(self, session):
        audit = session.telemetry.audit
        hires = [r for r in audit if r.decision == "hire_public"]
        assert hires, "stressed run should hire from the public tier"
        reward = make_reward(session.config.reward)
        record = hires[0]
        assert record.explanation.premium is not None
        assert replay_decision(record, reward) == "hire_public"

    def test_every_audited_decision_replays_identically(self, session):
        reward = make_reward(session.config.reward)
        for record in session.telemetry.audit:
            assert replay_decision(record, reward) == record.decision
