"""A flat, byte-addressable memory for the reference interpreter.

Compiled Terra (the gcc backend) uses the real process heap; the
interpreter backend reproduces the same semantics on top of this module: a
single address space starting at a non-zero base (so that address 0 is a
genuine NULL), with explicit bookkeeping of live regions so that wild
pointers, out-of-bounds accesses and use-after-free become
:class:`~repro.errors.TrapError` instead of silent corruption.

Regions are the unit of validity: every allocation (heap block, stack
frame, global) is one region, and a load/store must fall entirely inside a
single live region — exactly the checkable subset of C's effective-bounds
rules.
"""

from __future__ import annotations

import bisect

from ..errors import TrapError

#: the lowest valid address; [0, _BASE) is an unmapped guard zone.
_BASE = 0x10000


class Region:
    __slots__ = ("start", "size", "kind", "live")

    def __init__(self, start: int, size: int, kind: str):
        self.start = start
        self.size = size
        self.kind = kind  # "heap" | "stack" | "global" | "foreign"
        self.live = True

    @property
    def end(self) -> int:
        return self.start + self.size

    def __repr__(self) -> str:
        state = "live" if self.live else "freed"
        return f"<Region {self.kind} [{self.start:#x},{self.end:#x}) {state}>"


class Memory:
    """The interpreter's address space."""

    def __init__(self, initial_size: int = 1 << 20):
        self._data = bytearray(initial_size)
        self._limit = _BASE  # next never-used address (bump watermark)
        #: sorted list of region start addresses, parallel to _regions
        self._starts: list[int] = []
        self._regions: list[Region] = []

    # -- region management --------------------------------------------------
    def map_region(self, size: int, kind: str, align: int = 16,
                   redzone: int = 0) -> Region:
        """Carve a fresh region of ``size`` bytes out of the address space,
        followed by ``redzone`` unmapped bytes no later region takes."""
        if size < 0:
            raise TrapError(f"cannot map region of negative size {size}")
        start = (self._limit + align - 1) & ~(align - 1)
        end = start + max(size, 1)  # zero-size regions still get an address
        while end > len(self._data):
            self._data.extend(bytearray(len(self._data)))
        self._limit = end + redzone
        region = Region(start, size, kind)
        idx = bisect.bisect_left(self._starts, start)
        self._starts.insert(idx, start)
        self._regions.insert(idx, region)
        return region

    def unmap_region(self, region: Region) -> None:
        if not region.live:
            raise TrapError(f"double free of {region!r}")
        region.live = False

    def region_at(self, addr: int) -> Region | None:
        """The region containing ``addr``, live or not (for diagnostics)."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        if addr < region.start + max(region.size, 1):
            return region
        return None

    def check_access(self, addr: int, nbytes: int, write: bool) -> None:
        op = "store to" if write else "load from"
        if addr == 0:
            raise TrapError(f"{op} NULL pointer")
        if addr < _BASE:
            raise TrapError(f"{op} unmapped address {addr:#x}")
        region = self.region_at(addr)
        if region is None:
            raise TrapError(f"{op} unmapped address {addr:#x}")
        if not region.live:
            raise TrapError(f"{op} freed memory at {addr:#x} ({region.kind})")
        if addr + nbytes > region.end:
            raise TrapError(
                f"{op} {addr:#x}+{nbytes} overruns {region!r}")

    # -- raw access ----------------------------------------------------------
    def read(self, addr: int, nbytes: int) -> bytes:
        self.check_access(addr, nbytes, write=False)
        return bytes(self._data[addr:addr + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        self.check_access(addr, len(data), write=True)
        self._data[addr:addr + len(data)] = data

    def read_unchecked(self, addr: int, nbytes: int) -> bytes:
        """For diagnostics/tests only: bypass validity checking."""
        return bytes(self._data[addr:addr + nbytes])

    # -- string helpers (for rawstring interop) ------------------------------
    def write_cstring(self, addr: int, text: bytes) -> None:
        self.write(addr, text + b"\x00")

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string, respecting region bounds."""
        self.check_access(addr, 1, write=False)
        region = self.region_at(addr)
        assert region is not None
        end = min(region.end, addr + limit)
        chunk = self._data[addr:end]
        nul = chunk.find(0)
        if nul < 0:
            raise TrapError(f"unterminated string at {addr:#x}")
        return bytes(chunk[:nul])
