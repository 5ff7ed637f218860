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
rules.  A region's bytes live in one ``bytearray``, or, for a *host*
region (:meth:`Memory.map_host`), at the process address that already
holds them (a buffer Python passed in, a ``GlobalVar``'s storage), seen
through a ``memoryview`` made once when it is mapped.  Either way
:meth:`Memory.read` and :meth:`Memory.write`, the one access path, slice
the region's ``data`` after the same checks.  Host regions take addresses
from a range the ``bytearray`` never backs, so mapping one grows nothing.
"""

from __future__ import annotations

import bisect
import ctypes

from ..errors import TrapError

#: the lowest valid address; [0, _BASE) is an unmapped guard zone.
_BASE = 0x10000
#: the lowest host-region address: far above anything the bytearray holds
_HOST_BASE = 1 << 44
#: a host region's address keeps its process address's offset in a page,
#: so an alignment Terra code observes is the one C would
_PAGE = 4096


class Region:
    __slots__ = ("start", "size", "kind", "live", "data", "base", "readonly")

    def __init__(self, start: int, size: int, kind: str, data, base: int,
                 readonly: bool = False):
        self.start = start
        self.size = size
        self.kind = kind  # "heap" | "stack" | "global" | "foreign"
        self.live = True
        #: what holds its bytes: address ``a`` is ``data[a - base]``
        self.data = data
        self.base = base
        self.readonly = readonly

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
        self._host_limit = _HOST_BASE   # ... of the host range
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
        return self._insert(Region(start, size, kind, self._data, 0))

    def map_host(self, host: int, size: int, kind: str,
                 readonly: bool = False) -> Region:
        """A region for the ``size`` process bytes at ``host``, read and
        written there; a store into a ``readonly`` one traps."""
        start = self._host_limit + (host - self._host_limit) % _PAGE
        self._host_limit = start + max(size, 1)
        view = memoryview((ctypes.c_char * size).from_address(host)).cast("B")
        return self._insert(Region(start, size, kind, view, start, readonly))

    def _insert(self, region: Region) -> Region:
        idx = bisect.bisect_left(self._starts, region.start)
        self._starts.insert(idx, region.start)
        self._regions.insert(idx, region)
        return region

    def unmap_region(self, region: Region) -> None:
        if not region.live:
            raise TrapError(f"double free of {region!r}")
        region.live = False
        if region.data is not self._data:   # (a heap block may be revived)
            region.data = None  # a host region lets go of the process bytes

    def region_at(self, addr: int) -> Region | None:
        """The region containing ``addr``, live or not (for diagnostics)."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        if addr < region.start + max(region.size, 1):
            return region
        return None

    def check_access(self, addr: int, nbytes: int, write: bool) -> Region:
        """The live region ``addr`` … ``addr + nbytes`` falls in."""
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
        if write and region.readonly:
            raise TrapError(f"{op} read-only memory at {addr:#x}")
        return region

    # -- raw access ----------------------------------------------------------
    def read(self, addr: int, nbytes: int) -> bytes:
        region = self.check_access(addr, nbytes, write=False)
        offset = addr - region.base
        return bytes(region.data[offset:offset + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        region = self.check_access(addr, len(data), write=True)
        offset = addr - region.base
        region.data[offset:offset + len(data)] = data

    # -- string helpers (for rawstring interop) ------------------------------
    def write_cstring(self, addr: int, text: bytes) -> None:
        self.write(addr, text + b"\x00")

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string, respecting region bounds."""
        region = self.check_access(addr, 1, write=False)
        chunk = self.read(addr, min(region.end, addr + limit) - addr)
        nul = chunk.find(0)
        if nul < 0:
            raise TrapError(f"unterminated string at {addr:#x}")
        return chunk[:nul]
