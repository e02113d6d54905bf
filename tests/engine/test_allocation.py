"""Unit tests for fair (water-filling) allocation."""

import math
from unittest import mock

import numpy as np
import pytest

from repro.engine import allocation
from repro.engine.allocation import fair_allocate, fair_allocate_batch
from repro.errors import EngineError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dev dependency
    HAVE_HYPOTHESIS = False


class TestFairAllocate:
    def test_everyone_satisfied_when_total_suffices(self):
        assert fair_allocate(100.0, [10.0, 20.0, 30.0]) == [
            10.0,
            20.0,
            30.0,
        ]

    def test_infinite_total(self):
        assert fair_allocate(math.inf, [5.0, 7.0]) == [5.0, 7.0]

    def test_equal_split_under_contention(self):
        allocation = fair_allocate(30.0, [100.0, 100.0, 100.0])
        assert allocation == pytest.approx([10.0, 10.0, 10.0])

    def test_small_demand_releases_share(self):
        allocation = fair_allocate(30.0, [5.0, 100.0])
        assert allocation[0] == pytest.approx(5.0)
        assert allocation[1] == pytest.approx(25.0)

    def test_sum_never_exceeds_total(self):
        allocation = fair_allocate(17.0, [9.0, 9.0, 9.0])
        assert sum(allocation) == pytest.approx(17.0)

    def test_sum_never_exceeds_demand(self):
        allocation = fair_allocate(1000.0, [1.0, 2.0])
        assert sum(allocation) == pytest.approx(3.0)

    def test_no_allocation_exceeds_desire(self):
        allocation = fair_allocate(100.0, [5.0, 50.0, 200.0])
        for granted, desired in zip(allocation, [5.0, 50.0, 200.0]):
            assert granted <= desired + 1e-9

    def test_zero_and_negative_desires(self):
        allocation = fair_allocate(10.0, [0.0, -5.0, 20.0])
        assert allocation[0] == 0.0
        assert allocation[1] == 0.0
        assert allocation[2] == pytest.approx(10.0)

    def test_empty_desires(self):
        assert fair_allocate(10.0, []) == []

    def test_zero_total(self):
        assert fair_allocate(0.0, [5.0, 5.0]) == [0.0, 0.0]

    def test_negative_total_rejected(self):
        with pytest.raises(EngineError):
            fair_allocate(-1.0, [1.0])

    def test_three_tier_waterfill(self):
        # total 12 over demands (2, 5, 9): 2 is satisfied, remaining 10
        # splits as 5 each, so 5 is satisfied and 9 gets 5.
        allocation = fair_allocate(12.0, [2.0, 5.0, 9.0])
        assert allocation == pytest.approx([2.0, 5.0, 5.0])


def batch_variants(total, desires):
    """``fair_allocate_batch`` as the engine calls it, and with its
    array rounds forced at every size (small inputs otherwise take the
    scalar rounds)."""
    array = np.asarray(desires, dtype=np.float64)
    default = fair_allocate_batch(total, array)
    with mock.patch.object(allocation, "SCALAR_BELOW", 0):
        forced = fair_allocate_batch(total, array)
    return [default.tolist(), forced.tolist()]


class TestFairAllocateBatch:
    """The vectorized water-fill must be *bit-identical* to the scalar
    one — the engine's frozen outputs were recorded with the scalar
    water-fill."""

    CASES = [
        (100.0, [10.0, 20.0, 30.0]),
        (math.inf, [5.0, 7.0]),
        (30.0, [100.0, 100.0, 100.0]),
        (30.0, [5.0, 100.0]),
        (17.0, [9.0, 9.0, 9.0]),
        (10.0, [0.0, -5.0, 20.0]),
        (10.0, []),
        (0.0, [5.0, 5.0]),
        (12.0, [2.0, 5.0, 9.0]),
        # Float-residue shapes: near-equal demands around the share.
        (1.0, [1 / 3, 1 / 3, 1 / 3]),
        (0.1 + 0.2, [0.1, 0.2, 0.30000000000000004]),
    ]

    @pytest.mark.parametrize("total,desires", CASES)
    def test_matches_scalar_exactly(self, total, desires):
        expected = fair_allocate(total, desires)
        assert batch_variants(total, desires) == [expected, expected]

    def test_negative_total_rejected(self):
        with pytest.raises(EngineError):
            fair_allocate_batch(-1.0, np.asarray([1.0]))

    if HAVE_HYPOTHESIS:

        @given(
            total=st.one_of(
                st.floats(
                    min_value=0.0,
                    max_value=1e9,
                    allow_nan=False,
                ),
                st.just(math.inf),
            ),
            desires=st.lists(
                st.floats(
                    min_value=-1e6,
                    max_value=1e9,
                    allow_nan=False,
                ),
                max_size=40,
            ),
        )
        @settings(max_examples=200, deadline=None)
        def test_property_bit_identical(self, total, desires):
            expected = fair_allocate(total, desires)
            assert batch_variants(total, desires) == [expected, expected]
