"""Staged-sort tests, with model-based checking against numpy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import terra
from repro.core import types as T
from repro.lib.sort import Sort


class TestBasics:
    def test_ints(self):
        sort = Sort(T.int32)
        data = np.array([5, 3, 9, 1, 1, -4, 7], dtype=np.int32)
        sort(data, len(data))
        assert list(data) == sorted([5, 3, 9, 1, 1, -4, 7])

    def test_doubles(self):
        sort = Sort(T.float64)
        rng = np.random.RandomState(0)
        data = rng.randn(1000)
        expected = np.sort(data)
        sort(data, len(data))
        assert np.array_equal(data, expected)

    def test_empty_and_single(self):
        sort = Sort(T.int32)
        data = np.array([], dtype=np.int32)
        sort(data, 0)
        one = np.array([42], dtype=np.int32)
        sort(one, 1)
        assert one[0] == 42

    def test_already_sorted(self):
        sort = Sort(T.int64)
        data = np.arange(500, dtype=np.int64)
        sort(data, 500)
        assert np.array_equal(data, np.arange(500))

    def test_reverse_sorted(self):
        sort = Sort(T.int64)
        data = np.arange(500, dtype=np.int64)[::-1].copy()
        sort(data, 500)
        assert np.array_equal(data, np.arange(500))

    def test_all_equal(self):
        sort = Sort(T.int32)
        data = np.full(100, 7, dtype=np.int32)
        sort(data, 100)
        assert np.all(data == 7)

    def test_custom_comparator_descending(self):
        desc = Sort(T.int32, compare=lambda a, b: b.lt(a))
        data = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int32)
        desc(data, len(data))
        assert list(data) == sorted([3, 1, 4, 1, 5, 9, 2, 6], reverse=True)

    def test_comparator_on_key(self):
        # order by absolute value, via an inlined comparator macro
        from repro import expr

        def by_abs(a, b):
            return expr(
                "(av * av) < (bv * bv)", env={"av": a, "bv": b})

        sort = Sort(T.int32, compare=by_abs)
        data = np.array([-5, 2, -1, 4], dtype=np.int32)
        sort(data, 4)
        assert [abs(v) for v in data] == [1, 2, 4, 5]

    def test_memoized(self):
        assert Sort(T.int32) is Sort(T.int32)
        assert Sort(T.int32) is not Sort(T.int64)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-2**31, 2**31 - 1), max_size=300))
    def test_matches_sorted(self, values):
        sort = Sort(T.int32)
        data = np.array(values, dtype=np.int32)
        sort(data, len(data))
        assert list(data) == sorted(values)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), max_size=200))
    def test_floats_match(self, values):
        sort = Sort(T.float32)
        data = np.array(values, dtype=np.float32)
        expected = np.sort(data)
        sort(data, len(data))
        assert np.array_equal(data, expected)

    def test_interp_agrees_small(self, cbackend):
        sort = Sort(T.int32)
        data_c = np.array([4, 2, 8, 6, 1], dtype=np.int32)
        data_i = data_c.copy()
        sort.compile(cbackend)(data_c, 5)
        sort.compile("interp")(data_i, 5)
        assert np.array_equal(data_c, data_i)
