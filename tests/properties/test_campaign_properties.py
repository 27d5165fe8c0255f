"""Property tests of the campaign's size-once invariant.

Shrinking reuses the original scenario's application and sizing for
every candidate (:meth:`~repro.campaign.scenario.SizedScenario.
with_scenario`), which is sound only because no candidate touches what
the sizing depends on: the application, its seed and its models.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.campaign.scenario import (
    MARGIN_CHOICES,
    Scenario,
    SyntheticModels,
)
from repro.campaign.shrink import _candidates
from tests.properties.strategies import fault_specs, network_models


@st.composite
def scenarios(draw) -> Scenario:
    """A campaign cell: synthetic (explicit models) or a media app."""
    app = draw(st.sampled_from(("synthetic-rand", "adpcm", "mjpeg")))
    models = None
    app_seed = 0
    if app == "synthetic-rand":
        producer, replicas, consumer = draw(network_models())
        models = SyntheticModels(producer=producer, replicas=replicas,
                                 consumer=consumer)
    else:
        app_seed = draw(st.integers(min_value=0, max_value=999))
    tokens = draw(st.integers(min_value=1, max_value=420))
    warmup = draw(st.integers(min_value=0, max_value=tokens))
    fault = draw(st.none() | fault_specs())
    return Scenario(
        index=draw(st.integers(min_value=0, max_value=200)),
        app=app,
        tokens=tokens,
        warmup_tokens=warmup,
        seed=draw(st.integers(min_value=0, max_value=999_999)),
        app_seed=app_seed,
        models=models,
        fault=fault,
        capacity_margin=draw(st.sampled_from((1.0,) + MARGIN_CHOICES)),
    )


@given(scenarios(), st.floats(min_value=1.0, max_value=30.0,
                              allow_nan=False, allow_infinity=False))
def test_candidates_keep_what_the_sizing_depends_on(scenario, period):
    for candidate in _candidates(scenario, period):
        assert candidate.app == scenario.app
        assert candidate.app_seed == scenario.app_seed
        assert candidate.models == scenario.models
