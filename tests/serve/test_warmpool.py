"""Unit tests of per-tenant state: kernel LRU pools and resident buffers."""

import pytest

from repro.serve.protocol import ServeError
from repro.serve.state import (KernelPool, TenantState, WarmKernel,
                               kernel_key)


def fake_kernel(key):
    return WarmKernel(key, "f", fn=None, handle=None)


class TestKernelKey:
    def test_identity_covers_every_staging_input(self):
        base = kernel_key("src", "f", False, "c")
        assert kernel_key("src", "f", False, "c") == base
        assert kernel_key("src2", "f", False, "c") != base
        assert kernel_key("src", "g", False, "c") != base
        assert kernel_key("src", "f", True, "c") != base
        assert kernel_key("src", "f", False, "interp") != base


class TestKernelPool:
    def test_lru_eviction_beyond_quota(self):
        pool = KernelPool(2)
        for k in ("a", "b", "c"):
            evicted = pool.put(k, fake_kernel(k))
        assert [e.key for e in evicted] == ["a"]
        assert pool.keys() == ["b", "c"]
        assert pool.evictions == 1

    def test_get_refreshes_recency(self):
        pool = KernelPool(2)
        pool.put("a", fake_kernel("a"))
        pool.put("b", fake_kernel("b"))
        assert pool.get("a").key == "a"
        evicted = pool.put("c", fake_kernel("c"))
        assert [e.key for e in evicted] == ["b"]

    def test_get_counts_hits(self):
        pool = KernelPool(2)
        pool.put("a", fake_kernel("a"))
        pool.get("a")
        pool.get("a")
        assert pool.get("missing") is None
        assert pool.get("a") is not None and pool.hits == 3
        pool.put("b", fake_kernel("b"))
        pool.put("c", fake_kernel("c"))     # evicts a: its hits stay counted
        assert pool.keys() == ["b", "c"] and pool.hits == 3


class TestBuffers:
    def make(self):
        return TenantState("t", kernel_quota=4)

    def test_alloc_write_read_round_trip(self):
        t = self.make()
        buf = t.alloc("double", 4)
        assert t.write(buf.id, 0, [1.5, 2.5]) == 2
        assert t.read(buf.id, 0, 4) == [1.5, 2.5, 0.0, 0.0]

    def test_integral_buffers_coerce_to_int(self):
        t = self.make()
        buf = t.alloc("int32", 2)
        t.write(buf.id, 0, [7, 2.0])
        assert t.read(buf.id, 0, 2) == [7, 2]

    def test_unknown_dtype(self):
        with pytest.raises(ServeError) as ei:
            self.make().alloc("complex128", 4)
        assert ei.value.code == "bad-request"

    def test_nonpositive_count(self):
        with pytest.raises(ServeError):
            self.make().alloc("double", 0)

    def test_per_buffer_byte_cap(self):
        with pytest.raises(ServeError) as ei:
            self.make().alloc("double", 1 << 40)
        assert "cap" in str(ei.value)

    def test_out_of_bounds_write_and_read(self):
        t = self.make()
        buf = t.alloc("double", 4)
        with pytest.raises(ServeError):
            t.write(buf.id, 3, [1.0, 2.0])
        with pytest.raises(ServeError):
            t.read(buf.id, 2, 3)
        with pytest.raises(ServeError):
            t.read(buf.id, -1, 2)

    def test_non_numeric_values_rejected(self):
        t = self.make()
        buf = t.alloc("double", 4)
        for bad in ("x", None, True, [1.0]):
            with pytest.raises(ServeError):
                t.write(buf.id, 0, [bad])

    def test_unknown_buffer(self):
        t = self.make()
        with pytest.raises(ServeError) as ei:
            t.read(99, 0, 1)
        assert ei.value.code == "unknown-buffer"

    def test_free_then_use_is_unknown(self):
        t = self.make()
        buf = t.alloc("double", 2)
        t.free(buf.id)
        with pytest.raises(ServeError) as ei:
            t.write(buf.id, 0, [1.0])
        assert ei.value.code == "unknown-buffer"

    def test_nan_reads_use_the_wire_encoding(self):
        t = self.make()
        buf = t.alloc("double", 2)
        t.write(buf.id, 0, [float("nan"), float("-inf")])
        assert t.read(buf.id, 0, 2) == [{"float": "nan"}, {"float": "-inf"}]


    def test_a_float_into_an_int_buffer_truncates(self):
        t = self.make()
        buf = t.alloc("int16", 4)
        assert t.write(buf.id, 1, [2.9, -2.9, 7]) == 3
        assert t.read(buf.id, 0, 4) == [0, 2, -2, 7]
        assert [type(v) for v in t.read(buf.id, 0, 4)] == [int] * 4

    def test_non_finite_values_round_trip_among_finite_ones(self):
        t = self.make()
        for dtype in ("float32", "float64"):
            buf = t.alloc(dtype, 5)
            t.write(buf.id, 0, [1.5, float("-inf"), 2, float("inf"),
                                float("nan")])
            assert t.read(buf.id, 0, 5) == [
                1.5, {"float": "-inf"}, 2.0, {"float": "inf"},
                {"float": "nan"}]
            assert t.read(buf.id, 2, 0) == []

    def test_a_rejected_write_writes_nothing(self):
        """Values are validated before any is stored — no prefix is left
        behind — with the message of the first offender; number subclasses
        are numbers."""
        import numpy as np
        t = self.make()
        buf = t.alloc("double", 3)
        with pytest.raises(ServeError, match="must be numbers, got bool"):
            t.write(buf.id, 0, [1.0, True, "x"])
        assert t.read(buf.id, 0, 3) == [0.0, 0.0, 0.0]
        assert t.write(buf.id, 0, [np.float64(2.5), 1]) == 2
        assert t.read(buf.id, 0, 3) == [2.5, 1.0, 0.0]


class TestResolveArgs:
    def test_numbers_strings_none_pass_through(self):
        t = TenantState("t", 4)
        assert t.resolve_args([1, 2.5, "s", None]) == [1, 2.5, "s", None]

    def test_buf_reference_resolves_to_ctypes_array(self):
        t = TenantState("t", 4)
        buf = t.alloc("double", 4)
        (resolved,) = t.resolve_args([{"buf": buf.id}])
        assert resolved is buf.cdata

    def test_float_wire_encoding_resolves(self):
        t = TenantState("t", 4)
        (v,) = t.resolve_args([{"float": "inf"}])
        assert v == float("inf")

    def test_foreign_buffer_id_is_unknown(self):
        a, b = TenantState("a", 4), TenantState("b", 4)
        buf = a.alloc("double", 4)
        with pytest.raises(ServeError) as ei:
            b.resolve_args([{"buf": buf.id}])
        assert ei.value.code == "unknown-buffer"

    def test_unresolvable_argument_shapes(self):
        t = TenantState("t", 4)
        for bad in ([1, 2], {"buf": 1, "extra": 2}, {"ptr": 3}):
            with pytest.raises(ServeError) as ei:
                t.resolve_args([bad])
            assert ei.value.code in ("bad-request", "unknown-buffer")
