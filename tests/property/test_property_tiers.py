"""The tier stack's fixed facts, computed once, against per-call answers.

``Infrastructure`` orders its tiers for placement, picks its base tier,
its elastic tiers, its cheapest elastic tier and whether any tier caps
durations once, when the stack is built.  For random stacks with price
ties, under both placement policies and while capacity fills up, every
cached answer must equal the one a per-call ``sorted(..., key=price)``
reference gives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.infrastructure import Infrastructure
from repro.cloud.tiers import build_tier
from repro.desim.engine import Environment


@st.composite
def tier_specs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    specs = []
    for i in range(n):
        backend = draw(
            st.sampled_from(("reserved", "on_demand", "serverless", "spot"))
        )
        spec = {
            "name": f"t{i}",
            "backend": backend,
            "capacity_cores": draw(st.integers(min_value=0, max_value=48)),
            # Few distinct prices, so ties are common.
            "core_cost_per_tu": draw(st.sampled_from((1.0, 5.0, 10.0))),
        }
        if backend == "serverless":
            spec["max_cores_per_allocation"] = draw(
                st.none() | st.integers(min_value=1, max_value=16)
            )
            spec["max_duration_tu"] = draw(
                st.none() | st.floats(min_value=1.0, max_value=50.0)
            )
        specs.append(spec)
    return specs


def _price(tier):
    return tier.core_cost_per_tu


def _reference_place(tiers, placement, cores, duration_tu):
    order = sorted(tiers, key=_price) if placement == "cheapest_first" else tiers
    for tier in order:
        if (
            cores <= tier.cores_free
            and tier.placement_check(cores, duration_tu) is None
        ):
            return tier.name
    return None


@given(
    specs=tier_specs(),
    placement=st.sampled_from(("cheapest_first", "first_fit")),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_cached_tier_facts_match_a_per_call_reference(specs, placement, data):
    env = Environment()
    infra = Infrastructure(
        env, tiers=[build_tier(env, s) for s in specs], placement=placement
    )
    tiers = list(infra.tiers)
    fixed = [t for t in tiers if not t.elastic]
    elastic = [t for t in tiers if t.elastic]

    assert infra.base is (fixed[0] if fixed else tiers[0])
    assert infra.elastic_tiers() == tuple(elastic)
    assert infra.cheapest_elastic() is (
        sorted(elastic, key=_price)[0] if elastic else None
    )
    assert infra.has_duration_caps() == any(
        t.caps().get("max_duration_tu") for t in tiers
    )

    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        cores = data.draw(st.integers(min_value=1, max_value=24))
        duration = data.draw(st.none() | st.floats(min_value=0.5, max_value=80.0))
        expected = _reference_place(tiers, placement, cores, duration)
        assert infra.place(cores, duration_tu=duration) == expected
        assert infra.place_elastic(cores, duration) == _reference_place(
            elastic, placement, cores, duration
        )
        if expected is not None:
            # Fill capacity, so later draws see different fits.
            infra.allocate(cores, expected)
