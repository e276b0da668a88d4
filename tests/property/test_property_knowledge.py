"""Property-based tests for the knowledge plane's online refitting.

The load-bearing property: :func:`~repro.knowledge.plane.fit_stage_fact`
fits its observations in sorted order, so an incremental refit fed the
same multiset in *any* order must produce coefficients bit-identical to
the batch fit.  That is what makes adaptive runs reproducible -- the order
stages happen to complete in cannot change the installed facts.  The
refitter keeps that sorted window incrementally (with evictions and a
prior whose ``c`` can move), and must still match the batch fit over the
retained rows bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knowledge.plane import (
    KnowledgePlane,
    OnlineRefitter,
    StageFact,
    drifted_model,
    fit_stage_fact,
)

_observation = st.tuples(
    st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]),   # input_gb
    st.sampled_from([1, 2, 4, 8]),                      # threads
    st.floats(min_value=0.1, max_value=500.0,           # duration
              allow_nan=False, allow_infinity=False),
)

_observation_sets = st.lists(
    _observation, min_size=4, max_size=24
).filter(lambda obs: len({size for size, _, _ in obs}) >= 2)


@st.composite
def _shuffled_observations(draw):
    obs = draw(_observation_sets)
    return obs, draw(st.permutations(obs))


class TestRefitOrderInvariance:
    @given(data=_shuffled_observations())
    @settings(max_examples=100, deadline=None)
    def test_incremental_refit_equals_batch_fit_bit_exactly(self, data):
        obs, shuffled = data
        batch = fit_stage_fact("gatk", 0, obs, min_samples=2)

        plane = KnowledgePlane()
        refitter = OnlineRefitter(
            plane, refit_every=10_000, min_samples=2
        )
        for size, threads, duration in shuffled:
            refitter.observe("gatk", 0, size, threads, duration)
        refitter.flush()
        incremental = plane.get("gatk", 0)

        if batch is None:
            assert incremental is None
            return
        # == on raw floats, not approx: any permutation of the same
        # multiset must install the exact same coefficients.
        assert incremental.a == batch.a
        assert incremental.b == batch.b
        assert incremental.confidence == batch.confidence
        assert incremental.samples == batch.samples

    @given(data=_shuffled_observations())
    @settings(max_examples=50, deadline=None)
    def test_order_invariance_survives_an_amdahl_prior(self, data):
        obs, shuffled = data
        prior = StageFact(app="gatk", stage=0, a=1.0, b=1.0, c=0.75)
        batch = fit_stage_fact("gatk", 0, obs, prior=prior, min_samples=2)

        plane = KnowledgePlane()
        plane.install([prior])
        refitter = OnlineRefitter(plane, refit_every=10_000, min_samples=2)
        for size, threads, duration in shuffled:
            refitter.observe("gatk", 0, size, threads, duration)
        refitter.flush()
        incremental = plane.get("gatk", 0)

        if batch is None:
            assert incremental.provenance != "refit"
            return
        assert incremental.a == batch.a
        assert incremental.b == batch.b
        assert incremental.c == prior.c


def _assert_same_fact(installed, expected):
    assert installed is not None
    assert installed.provenance == "refit"
    # == on raw floats: the incremental window must reproduce the batch
    # fit over exactly the retained rows, bit for bit.
    assert installed.a == expected.a
    assert installed.b == expected.b
    assert installed.c == expected.c
    assert installed.confidence == expected.confidence
    assert installed.samples == expected.samples


class TestRefitWindowEquivalence:
    """The refitter's sorted window == batch fit over the last k rows."""

    @given(
        k=st.integers(min_value=2, max_value=12),
        batches=st.lists(
            st.lists(_observation, min_size=1, max_size=10),
            min_size=1,
            max_size=8,
        ),
        c=st.sampled_from([None, 0.5, 0.9]),
    )
    @settings(max_examples=150, deadline=None)
    def test_evicting_window_matches_batch_fit(self, k, batches, c):
        plane = KnowledgePlane()
        prior = StageFact(app="gatk", stage=0, a=1.0, b=1.0, c=c)
        plane.install([prior])
        refitter = OnlineRefitter(
            plane, refit_every=10_000, min_samples=2, max_observations=k
        )
        seen = []
        for batch in batches:
            for size, threads, duration in batch:
                refitter.observe("gatk", 0, size, threads, duration)
                seen.append((size, threads, duration))
            current = plane.get("gatk", 0)
            expected = fit_stage_fact(
                "gatk", 0, seen[-k:], prior=current, min_samples=2
            )
            refitter.flush()
            if expected is None:
                assert plane.get("gatk", 0) is current
            else:
                _assert_same_fact(plane.get("gatk", 0), expected)

    @given(
        first=_observation_sets,
        second=st.lists(_observation, min_size=1, max_size=8),
        c_before=st.sampled_from([None, 0.6]),
        c_after=st.sampled_from([None, 0.3, 0.95]),
    )
    @settings(max_examples=100, deadline=None)
    def test_prior_c_change_between_flushes(
        self, first, second, c_before, c_after
    ):
        plane = KnowledgePlane()
        plane.install([StageFact(app="gatk", stage=0, a=1.0, b=1.0, c=c_before)])
        refitter = OnlineRefitter(plane, refit_every=10_000, min_samples=2)
        for row in first:
            refitter.observe("gatk", 0, *row)
        refitter.flush()
        # An outside install (e.g. a profile reseed) moves the Amdahl
        # fraction: the window must re-derive its de-Amdahled column.
        moved = StageFact(app="gatk", stage=0, a=2.0, b=0.5, c=c_after)
        plane.install([moved])
        for row in second:
            refitter.observe("gatk", 0, *row)
        expected = fit_stage_fact(
            "gatk", 0, first + second, prior=moved, min_samples=2
        )
        refitter.flush()
        _assert_same_fact(plane.get("gatk", 0), expected)


class TestDriftedModelProperties:
    @given(factor=st.floats(min_value=0.05, max_value=20.0,
                            allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_single_thread_times_scale_by_the_factor(self, factor, gatk_model):
        drifted = drifted_model(gatk_model, factor)
        for stage in range(gatk_model.n_stages):
            assert drifted.stage(stage).execution_time(5.0) == pytest.approx(
                gatk_model.stage(stage).execution_time(5.0) * factor,
                rel=1e-9,
            )
