"""Seeding discipline for fault/application sampling.

The campaign's determinism rests on two properties audited here:

* every random quantity flows from an **explicit** seed through
  :func:`derive_rng` — nothing reads or perturbs Python's global RNG;
* sample ``i`` is a pure function of ``(seed, i)`` — generation order,
  partial regeneration and parallel workers all agree (the
  order-independence regression).
"""

import random

from repro.apps.synthetic import SyntheticApp
from repro.campaign.scenario import ScenarioGenerator
from repro.faults.models import FAIL_STOP, RATE_DEGRADE
from repro.faults.sampling import FaultSampler, derive_rng


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(7, "fault", 3)
        b = derive_rng(7, "fault", 3)
        assert [a.random() for _ in range(5)] == [
            b.random() for _ in range(5)
        ]

    def test_distinct_paths_distinct_streams(self):
        streams = {
            tuple(derive_rng(7, *path).random() for _ in range(3))
            for path in [("fault", 0), ("fault", 1), ("scenario", 0),
                         ("scenario", 1), ("selftest", 0)]
        }
        assert len(streams) == 5

    def test_distinct_seeds_distinct_streams(self):
        assert derive_rng(1, "x").random() != derive_rng(2, "x").random()

    def test_global_rng_untouched(self):
        random.seed(1234)
        state = random.getstate()
        derive_rng(7, "fault", 0).random()
        FaultSampler(7).sample(0, period=10.0, warmup_tokens=40)
        SyntheticApp.randomized(derive_rng(7, "app", 0))
        assert random.getstate() == state


class TestFaultSampler:
    def test_sample_is_pure_function_of_index(self):
        sampler = FaultSampler(seed=7)
        forward = [sampler.sample(i, 10.0, 40) for i in range(20)]
        backward = [sampler.sample(i, 10.0, 40)
                    for i in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_valid_specs(self):
        sampler = FaultSampler(seed=3)
        for index in range(50):
            fault = sampler.sample(index, period=8.0, warmup_tokens=30)
            assert fault.replica in (0, 1)
            assert fault.kind in (FAIL_STOP, RATE_DEGRADE)
            # Injection lands inside the post-warmup token window.
            assert 30 * 8.0 < fault.time < 31 * 8.0
            if fault.kind == RATE_DEGRADE:
                assert fault.slowdown > 1.0

    def test_covers_both_kinds_and_replicas(self):
        sampler = FaultSampler(seed=11)
        faults = [sampler.sample(i, 10.0, 40) for i in range(60)]
        assert {f.kind for f in faults} == {FAIL_STOP, RATE_DEGRADE}
        assert {f.replica for f in faults} == {0, 1}


class TestRandomizedApp:
    def test_reproducible_from_rng(self):
        a = SyntheticApp.randomized(derive_rng(7, "app", 0))
        b = SyntheticApp.randomized(derive_rng(7, "app", 0))
        assert a.producer_model == b.producer_model
        assert a.replica_input_models == b.replica_input_models
        assert a.consumer_model == b.consumer_model

    def test_single_shared_period(self):
        """A relay pipeline needs equal long-run rates (finite Eq. 3)."""
        app = SyntheticApp.randomized(derive_rng(5, "app", 1))
        period = app.producer_model.period
        for model in (*app.replica_input_models, app.consumer_model):
            assert model.period == period

    def test_sizable(self):
        for index in range(10):
            app = SyntheticApp.randomized(derive_rng(9, "app", index))
            sizing = app.sizing()
            assert all(c >= 1 for c in sizing.replicator_capacities)


class TestScenarioOrderIndependence:
    def test_scenario_is_pure_function_of_index(self):
        """The order-independence regression: scenario ``i`` must not
        depend on which (or how many) other scenarios were generated."""
        batch = ScenarioGenerator(seed=7).generate(12)
        fresh = ScenarioGenerator(seed=7)
        # Probe out of order, interleaved with unrelated generations.
        for index in (11, 3, 0, 7, 5):
            fresh.generate(2)
            assert (fresh.scenario(index).scenario.digest()
                    == batch[index].scenario.digest())

    def test_self_tests_deterministic(self):
        first = [s.scenario.digest()
                 for s in ScenarioGenerator(seed=7).self_tests()]
        second = [s.scenario.digest()
                  for s in ScenarioGenerator(seed=7).self_tests()]
        assert first == second

    def test_different_seeds_differ(self):
        a = ScenarioGenerator(seed=1).generate(6)
        b = ScenarioGenerator(seed=2).generate(6)
        assert ([s.scenario.digest() for s in a]
                != [s.scenario.digest() for s in b])
