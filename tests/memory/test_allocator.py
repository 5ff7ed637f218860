"""Allocator tests, including hypothesis-driven invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrapError
from repro.memory.allocator import Allocator
from repro.memory.flatmem import Memory


def make_alloc():
    return Allocator(Memory())


class TestBasics:
    def test_malloc_free(self):
        a = make_alloc()
        p = a.malloc(64)
        assert p != 0
        a.memory.write(p, bytes(64))
        a.free(p)

    def test_free_null_noop(self):
        make_alloc().free(0)

    def test_reuse_after_free(self):
        a = make_alloc()
        p = a.malloc(64)
        a.free(p)
        q = a.malloc(64)
        assert q == p  # LIFO reuse of the freed block

    def test_double_free(self):
        a = make_alloc()
        p = a.malloc(16)
        a.free(p)
        with pytest.raises(TrapError):
            a.free(p)

    def test_an_overrun_traps_whatever_the_neighbours(self):
        """Blocks are recycled by size, so a block's neighbours depend on
        what ran before; a red zone after every block makes a short
        overrun trap as one, not read the next block, live or freed."""
        a = make_alloc()
        first, freed, live = a.malloc(16), a.malloc(16), a.malloc(16)
        a.free(freed)
        for offset in (16, 40, 16 + 60):
            with pytest.raises(TrapError, match="unmapped|overrun"):
                a.memory.read(first + offset, 4)
        assert a.memory.read(live, 4) == bytes(4)

    def test_free_interior_pointer(self):
        a = make_alloc()
        p = a.malloc(16)
        with pytest.raises(TrapError):
            a.free(p + 4)

    def test_free_wild_pointer(self):
        a = make_alloc()
        with pytest.raises(TrapError):
            a.free(0xDEAD0)

    def test_calloc_zeroes(self):
        a = make_alloc()
        p = a.malloc(16)
        a.memory.write(p, b"\xff" * 16)
        a.free(p)
        q = a.calloc(4, 4)
        assert a.memory.read(q, 16) == bytes(16)

    def test_realloc_grow_preserves(self):
        a = make_alloc()
        p = a.malloc(8)
        a.memory.write(p, b"12345678")
        q = a.realloc(p, 64)
        assert a.memory.read(q, 8) == b"12345678"

    def test_realloc_shrink_in_place(self):
        a = make_alloc()
        p = a.malloc(64)
        assert a.realloc(p, 8) == p

    def test_realloc_null_is_malloc(self):
        a = make_alloc()
        p = a.realloc(0, 32)
        assert a.block_size(p) == 32

    def test_malloc_negative(self):
        with pytest.raises(TrapError):
            make_alloc().malloc(-1)

    def test_accounting(self):
        a = make_alloc()
        p = a.malloc(100)
        assert a.live_bytes == 100 and a.live_block_count() == 1
        a.free(p)
        assert a.live_bytes == 0 and a.live_block_count() == 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=512),
                    min_size=1, max_size=40))
    def test_live_blocks_never_overlap(self, sizes):
        a = make_alloc()
        blocks = [(a.malloc(s), s) for s in sizes]
        spans = sorted((p, p + s) for p, s in blocks)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2
        for p, _s in blocks:
            a.free(p)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 256), st.booleans()),
                    min_size=1, max_size=60))
    def test_interleaved_alloc_free(self, ops):
        """Random malloc/free sequences keep contents of live blocks
        intact and never hand out overlapping memory."""
        a = make_alloc()
        live: dict[int, bytes] = {}
        for i, (size, do_free) in enumerate(ops):
            if do_free and live:
                addr = next(iter(live))
                assert a.memory.read(addr, len(live[addr])) == live[addr]
                a.free(addr)
                del live[addr]
            else:
                addr = a.malloc(size)
                pattern = bytes((i + j) % 256 for j in range(size))
                a.memory.write(addr, pattern)
                live[addr] = pattern
        for addr, pattern in live.items():
            assert a.memory.read(addr, len(pattern)) == pattern

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 128), st.integers(1, 128))
    def test_realloc_roundtrip(self, first, second):
        a = make_alloc()
        p = a.malloc(first)
        data = bytes(range(min(first, 256) % 256)) or b"\x00"
        data = (data * (first // len(data) + 1))[:first]
        a.memory.write(p, data)
        q = a.realloc(p, second)
        keep = min(first, second)
        assert a.memory.read(q, keep) == data[:keep]
