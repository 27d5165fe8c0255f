"""Cache-behaviour tests for the PJD curve and sizing memos."""

import pytest

from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network


PRODUCER = PJD(40.0, 4.0, 1.0)
CONSUMER = PJD(40.0, 10.0, 1.0)
REPLICAS = (PJD(40.0, 6.0, 1.0), PJD(40.0, 8.0, 1.0))


class TestCurveIdentity:
    def test_equal_pjds_share_curve_objects(self):
        assert PJD(10.0, 1.0).upper() is PJD(10.0, 1.0).upper()
        assert PJD(10.0, 1.0).lower() is PJD(10.0, 1.0).lower()

    def test_distinct_pjds_get_distinct_curves(self):
        assert PJD(10.0, 1.0).upper() is not PJD(10.0, 2.0).upper()


class TestSizingCache:
    def test_cached_sizing_equal_but_fresh(self):
        a = size_duplicated_network(PRODUCER, REPLICAS, REPLICAS, CONSUMER)
        b = size_duplicated_network(PRODUCER, REPLICAS, REPLICAS, CONSUMER)
        assert a is not b
        assert a == b

    def test_mutating_a_result_does_not_poison_the_cache(self):
        a = size_duplicated_network(PRODUCER, REPLICAS, REPLICAS, CONSUMER)
        a.details["corrupted"] = -1.0
        b = size_duplicated_network(PRODUCER, REPLICAS, REPLICAS, CONSUMER)
        assert "corrupted" not in b.details

    def test_list_and_tuple_arguments_hit_the_same_entry(self):
        a = size_duplicated_network(
            PRODUCER, list(REPLICAS), list(REPLICAS), CONSUMER
        )
        b = size_duplicated_network(PRODUCER, REPLICAS, REPLICAS, CONSUMER)
        assert a == b

    def test_solver_type_error_is_not_retried_uncached(self):
        class Stub:
            """A hashable stand-in model whose curves() raises TypeError."""

            calls = 0

            def curves(self):
                Stub.calls += 1
                raise TypeError("broken model")

        stub = Stub()
        with pytest.raises(TypeError, match="broken model"):
            size_duplicated_network(stub, (stub, stub), (stub, stub), stub)
        assert Stub.calls == 1

    def test_unhashable_models_are_sized_uncached(self):
        class Unhashable:
            __hash__ = None

            def curves(self):
                return PRODUCER.curves()

        producer = Unhashable()
        result = size_duplicated_network(producer, REPLICAS, REPLICAS,
                                         CONSUMER)
        assert result == size_duplicated_network(PRODUCER, REPLICAS,
                                                 REPLICAS, CONSUMER)
