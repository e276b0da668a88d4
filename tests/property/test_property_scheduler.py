"""Property-based invariants over randomized scheduler sessions.

Each example draws a random short workload + policy configuration and
checks the conservation laws that must hold for ANY configuration:

- tier capacity is never exceeded (checked continuously by the tier
  accounting itself, which raises on over-allocation);
- total cost equals the core-time integral priced per tier;
- total reward equals the sum over completed jobs;
- every job is either complete (7 ordered stage records) or still
  in flight (queued or running);
- live worker cores exactly match the infrastructure's in-use counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.config import (
    AllocationAlgorithm,
    PlatformConfig,
    RewardScheme,
    ScalingAlgorithm,
)
from repro.sim.session import SimulationSession

configs = st.fixed_dictionaries(
    {
        "allocation": st.sampled_from(list(AllocationAlgorithm)),
        "scaling": st.sampled_from(list(ScalingAlgorithm)),
        "scheme": st.sampled_from(list(RewardScheme)),
        "interval": st.floats(min_value=2.0, max_value=3.0),
        "size_unit": st.floats(min_value=0.5, max_value=4.0),
        "private_cores": st.integers(min_value=32, max_value=624),
        "public_cost": st.sampled_from([20.0, 50.0, 80.0, 110.0]),
        "mtbf": st.sampled_from([None, 40.0, 120.0]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def run_session(params, on_build=None):
    config = PlatformConfig.paper_defaults().with_overrides(
        simulation={"duration": 60.0},
        workload={
            "mean_interarrival": params["interval"],
            "size_unit_gb": params["size_unit"],
        },
        reward={"scheme": params["scheme"]},
        cloud={
            "public_core_cost": params["public_cost"],
            "private_cores": params["private_cores"],
            "vm_mtbf_tu": params["mtbf"],
        },
        scheduler={
            "allocation": params["allocation"],
            "scaling": params["scaling"],
        },
    )
    session = SimulationSession(config, on_build=on_build)
    result = session.run(seed=params["seed"])
    return session, result


@given(params=configs)
@settings(max_examples=25, deadline=None)
def test_cost_is_priced_core_time_integral(params):
    _session, result = run_session(params)
    expected = (
        result.private_core_tu * 5.0
        + result.public_core_tu * params["public_cost"]
    )
    assert result.total_cost == pytest.approx(expected)


@given(params=configs)
@settings(max_examples=25, deadline=None)
def test_reward_sums_over_completed_jobs(params):
    session, result = run_session(params)
    jobs = session.scheduler.completed_jobs
    assert result.completed_runs == len(jobs)
    assert result.total_reward == pytest.approx(
        sum(j.reward_paid for j in jobs)
    )


@given(params=configs)
@settings(max_examples=25, deadline=None)
def test_every_job_is_complete_or_in_flight(params):
    session, _result = run_session(params)
    scheduler = session.scheduler
    for job in scheduler.submitted_jobs:
        if job.is_complete:
            assert [r.stage for r in job.history] == list(range(7))
            for a, b in zip(job.history, job.history[1:]):
                assert b.queued_at >= a.finished_at - 1e-9
        else:
            assert 0 <= job.current_stage < 7


@given(params=configs)
@settings(max_examples=25, deadline=None)
def test_live_worker_cores_match_tier_accounting(params):
    deployed = []

    def record_deploys(session):
        celar = session.scheduler.celar
        deploy = celar.deploy

        def recording(cores, tier):
            vm = deploy(cores, tier)
            deployed.append(vm)
            return vm

        celar.deploy = recording

    session, _result = run_session(params, on_build=record_deploys)
    scheduler = session.scheduler
    pools = scheduler.pools
    alive = sum(w.cores for w in pools.idle_workers) + sum(
        w.cores for w in pools.busy_workers
    )
    booting = sum(
        vm.cores
        for vm in deployed
        if vm.state.value == "booting"
    )
    assert scheduler.infrastructure.total_cores_in_use() == alive + booting


@given(params=configs)
@settings(max_examples=15, deadline=None)
def test_deterministic_replay(params):
    _s1, r1 = run_session(params)
    _s2, r2 = run_session(params)
    assert r1.total_reward == r2.total_reward
    assert r1.total_cost == r2.total_cost
    assert r1.worker_failures == r2.worker_failures
