"""Flat-memory substrate tests: region mapping, checked access, traps."""

import ctypes

import pytest

from repro.errors import TrapError
from repro.memory.flatmem import Memory


@pytest.fixture
def mem():
    return Memory(initial_size=4096)


class TestRegions:
    def test_map_and_rw(self, mem):
        r = mem.map_region(16, "heap")
        mem.write(r.start, b"hello")
        assert mem.read(r.start, 5) == b"hello"

    def test_alignment(self, mem):
        r = mem.map_region(10, "heap", align=64)
        assert r.start % 64 == 0

    def test_regions_disjoint(self, mem):
        regions = [mem.map_region(10, "heap") for _ in range(20)]
        spans = sorted((r.start, r.end) for r in regions)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_growth(self, mem):
        r = mem.map_region(100_000, "heap")  # larger than initial size
        mem.write(r.start + 99_000, b"x")
        assert mem.read(r.start + 99_000, 1) == b"x"

    def test_zero_size_region(self, mem):
        r = mem.map_region(0, "stack")
        assert r.start > 0


class TestTraps:
    def test_null_load(self, mem):
        with pytest.raises(TrapError, match="NULL"):
            mem.read(0, 4)

    def test_null_store(self, mem):
        with pytest.raises(TrapError, match="NULL"):
            mem.write(0, b"x")

    def test_unmapped(self, mem):
        with pytest.raises(TrapError, match="unmapped"):
            mem.read(0x100, 4)

    def test_overrun(self, mem):
        r = mem.map_region(8, "heap")
        with pytest.raises(TrapError, match="overruns"):
            mem.read(r.start + 4, 8)

    def test_use_after_free(self, mem):
        r = mem.map_region(8, "heap")
        mem.unmap_region(r)
        with pytest.raises(TrapError, match="freed"):
            mem.read(r.start, 1)

    def test_double_unmap(self, mem):
        r = mem.map_region(8, "heap")
        mem.unmap_region(r)
        with pytest.raises(TrapError, match="double free"):
            mem.unmap_region(r)

    def test_gap_between_regions(self, mem):
        a = mem.map_region(8, "heap", align=64)
        b = mem.map_region(8, "heap", align=64)
        gap = a.end + (b.start - a.end) // 2
        if gap < b.start and gap >= a.end:
            with pytest.raises(TrapError):
                mem.read(gap, 1)


class TestStrings:
    def test_roundtrip(self, mem):
        r = mem.map_region(32, "global")
        mem.write_cstring(r.start, b"hello world")
        assert mem.read_cstring(r.start) == b"hello world"

    def test_unterminated(self, mem):
        r = mem.map_region(4, "global")
        mem.write(r.start, b"abcd")
        with pytest.raises(TrapError, match="unterminated"):
            mem.read_cstring(r.start)

    def test_region_at(self, mem):
        r = mem.map_region(16, "heap")
        assert mem.region_at(r.start) is r
        assert mem.region_at(r.start + 15) is r


class TestHostRegions:
    def test_process_bytes_are_read_and_written_in_place(self, mem):
        buf = ctypes.create_string_buffer(b"ab\x00d", 4)
        r = mem.map_host(ctypes.addressof(buf), 4, "foreign")
        assert mem.read(r.start, 4) == b"ab\x00d"
        assert mem.read_cstring(r.start) == b"ab"
        mem.write(r.start + 2, b"c")
        assert buf.raw == b"abcd"
        assert len(mem._data) == 4096       # mapping one grows nothing
        assert r.start % 4096 == ctypes.addressof(buf) % 4096

    def test_host_regions_are_checked_like_any_other(self, mem):
        buf = ctypes.create_string_buffer(8)
        r = mem.map_host(ctypes.addressof(buf), 8, "foreign", readonly=True)
        with pytest.raises(TrapError, match="overruns"):
            mem.read(r.start + 4, 8)
        with pytest.raises(TrapError, match="store to read-only memory"):
            mem.write(r.start, b"x")
        mem.unmap_region(r)
        with pytest.raises(TrapError, match="freed"):
            mem.read(r.start, 1)
        assert buf.raw == bytes(8)
