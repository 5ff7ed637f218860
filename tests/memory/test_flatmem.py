"""Flat-memory substrate tests: region mapping, checked access, traps."""

import ctypes

import pytest

from repro import terra
from repro.errors import TrapError
from repro.memory.flatmem import Memory


@pytest.fixture
def mem():
    return Memory()


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
        r = mem.map_region(100_000, "heap")
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
        mem.write(r.start, b"hello world\x00")
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


class _Owner:
    """Something a region's lifetime can be tied to."""


class TestHostRegions:
    def test_process_bytes_are_read_and_written_in_place(self, mem):
        buf = ctypes.create_string_buffer(b"ab\x00d", 4)
        r = mem.map_host(ctypes.addressof(buf), 4, "foreign", False, [buf])
        assert mem.read(r.start, 4) == b"ab\x00d"
        assert mem.read_cstring(r.start) == b"ab"
        mem.write(r.start + 2, b"c")
        assert buf.raw == b"abcd"
        assert r.start == ctypes.addressof(buf)     # one address space

    def test_host_regions_are_checked_like_any_other(self, mem):
        buf = ctypes.create_string_buffer(8)
        r = mem.map_host(ctypes.addressof(buf), 8, "foreign", True, [buf])
        with pytest.raises(TrapError, match="overruns"):
            mem.read(r.start + 4, 8)
        with pytest.raises(TrapError, match="store to read-only memory"):
            mem.write(r.start, b"x")
        mem.unmap_region(r)
        with pytest.raises(TrapError, match="freed"):
            mem.read(r.start, 1)
        assert buf.raw == bytes(8)

    def test_a_region_mapped_inside_another_leaves_it_the_rest(self, mem):
        """A region mapped over part of a live one takes the bytes it
        covers until its own owner dies; the rest stays the older one's,
        for as long as that one's owner lives.  Bytes a writable region
        held stay writable under a read-only one."""
        buf = ctypes.create_string_buffer(32)
        base = ctypes.addressof(buf)
        outer, inner = _Owner(), _Owner()
        mem.map_host(base, 32, "foreign", False, [outer])
        mem.map_host(base + 8, 8, "foreign", True, [inner])
        for offset in (0, 8, 24):
            mem.write(base + offset, b"x")
        del inner
        with pytest.raises(TrapError, match="unmapped"):
            mem.read(base + 8, 1)
        assert mem.read(base, 1) == mem.read(base + 24, 1) == b"x"
        del outer
        for offset in (0, 24):
            with pytest.raises(TrapError, match="unmapped"):
                mem.read(base + offset, 1)
        assert buf.raw[:9] == b"x" + bytes(7) + b"x"


class TestReclaim:
    def test_the_region_count_stays_flat_over_many_calls(self):
        """A popped stack slot is reused by the next call's: twenty
        thousand interpreted calls of a one-local ``add`` leave one
        memory holding the regions one call leaves."""
        add = terra("terra add(a : int, b : int) : int "
                    "var c = a + b return c end")
        run = add.compile("interp")
        assert run(2, 3) == 5
        mem = run.machine.memory
        before = len(mem._regions)
        for i in range(20_000):
            run(i, 1)
        assert len(mem._regions) == before

    def test_a_popped_slot_traps_until_reused(self, mem):
        slot = mem.push(8, 8)
        mem.pop([slot])
        with pytest.raises(TrapError, match="freed"):
            mem.read(slot.start, 8)
        assert mem.push(8, 8) is slot and mem.read(slot.start, 8)

    def test_a_host_region_lives_as_long_as_its_owner(self, mem):
        buf = ctypes.create_string_buffer(8)
        r = mem.map_host(ctypes.addressof(buf), 8, "foreign", False, [buf])
        mem.write(r.start, b"x")
        del buf
        with pytest.raises(TrapError, match="unmapped"):
            mem.read(r.start, 1)
        mem.map_region(8, "heap")       # the next insert drops it
        assert mem.region_at(r.start) is not r
