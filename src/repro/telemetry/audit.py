"""Scheduler decision audit log: every hire-or-wait choice, explained.

The paper's predictive scaler (Eq. 1) compares the reward the queue would
lose by waiting against the public-tier premium; a sweep that flips from
"wait" to "hire" is only explainable if the inputs to that comparison were
recorded.  This module keeps one :class:`ScalingDecisionRecord` per
decision -- the capped wait, per-job ETT/reward terms, tier prices and
premium captured by :class:`~repro.scheduler.scaling.DecisionExplanation`
-- and :func:`replay_decision` re-derives the choice from the record plus
the reward function alone, proving the log is sufficient to explain it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.scheduler.estimator import _latency_free_delay_cost
from repro.scheduler.rewards import RewardFunction, is_latency_free
from repro.scheduler.scaling import DecisionExplanation, ScalingDecision

__all__ = [
    "ScalingDecisionRecord",
    "DecisionAuditLog",
    "decision_label",
    "replay_decision",
]


def decision_label(decision: ScalingDecision) -> str:
    """Canonical string for a decision: ``hire_<tier>`` or ``wait``.

    For the default two-tier stack this yields the historical
    ``hire_private`` / ``hire_public`` labels unchanged.
    """
    if not decision.hire:
        return "wait"
    return f"hire_{decision.tier}"


@dataclass(frozen=True)
class ScalingDecisionRecord:
    """One audited hire-or-wait choice, with its Eq. 1 inputs."""

    time: float
    stage: int
    task_uid: int
    job_uid: int
    decision: str
    explanation: Optional[DecisionExplanation] = None


class DecisionAuditLog:
    """Append-only record of scaling decisions, capped to bound memory."""

    def __init__(self, max_records: int = 200_000) -> None:
        self.max_records = max_records
        self._records: list[ScalingDecisionRecord] = []
        self.dropped = 0
        #: Totals per decision label, kept even past the cap.
        self.counts: dict[str, int] = {}

    def add(self, record: ScalingDecisionRecord) -> None:
        self.counts[record.decision] = self.counts.get(record.decision, 0) + 1
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ScalingDecisionRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[ScalingDecisionRecord, ...]:
        return tuple(self._records)


def replay_decision(
    record: ScalingDecisionRecord, reward: RewardFunction
) -> str:
    """Re-derive the hire-or-wait choice from a logged record.

    Only the record's explanation and the reward function are consulted --
    no estimator, queue or infrastructure -- mirroring each policy's
    decision procedure over the captured inputs.  For predictive records
    Eq. 1 is recomputed from the logged per-job ``(ett_now, records)``
    terms and compared against the logged premium; a latency-free reward
    totals it in the same closed form as the live decision.
    """
    explanation = record.explanation
    if explanation is None:
        raise ValueError(f"record for task {record.task_uid} has no explanation")
    if explanation.private_free:
        return "hire_private"
    if explanation.policy == "never":
        return "wait"
    if not explanation.public_available or explanation.public_capacity is False:
        return "wait"
    if explanation.policy == "always":
        return "hire_public"
    # Predictive: Eq. 1 over the logged terms vs. the logged premium.
    wait = explanation.wait
    if wait is None or wait <= 0.0 or explanation.premium is None:
        return "wait"
    if is_latency_free(reward):
        dc = _latency_free_delay_cost(
            reward, wait, (term.records for term in explanation.terms)
        )
    else:
        dc = 0.0
        for term in explanation.terms:
            dc += reward(max(term.ett_now, 0.0), term.records) - reward(
                max(term.ett_now + wait, 0.0), term.records
            )
    return "hire_public" if dc > explanation.premium else "wait"
