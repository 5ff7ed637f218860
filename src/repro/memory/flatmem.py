"""Checked access to process memory for the reference interpreter.

The interpreter shares one address space with compiled Terra and Python,
as Lua and Terra share one process in the paper: a pointer means the same
thing to all three.  What it adds is a table of the regions it may touch,
keyed by process address, so that wild pointers, out-of-bounds accesses
and use-after-free become :class:`~repro.errors.TrapError` instead of
silent corruption: a load/store must fall inside one live region, and
memory C allocated lies in none.  :meth:`Memory.read`/:meth:`~Memory.write`
slice a ``memoryview`` of the region's bytes after the checks.  A region
is fresh ``calloc``'d bytes (:meth:`~Memory.map_region`, never handed
back: the allocator pools freed heap blocks), a slot of one anonymous
``mmap`` stack (:meth:`~Memory.push`: a popped slot is a tombstone until a
later one reuses its range), or bytes something else owns, while their
owners live (:meth:`~Memory.map_host`: a buffer Python passed, a global).
"""

from __future__ import annotations

import bisect
import ctypes
import mmap
import weakref

from ..errors import TrapError

#: addresses below this are never mapped: a NULL-ish pointer traps as such
_BASE = 0x10000
#: the interpreter's stack (virtual: RSS follows the depth calls reach)
STACK_SIZE = 64 << 20

#: the process's C library, which the interpreter shares with compiled code
libc = ctypes.CDLL(None)
libc.calloc.restype = ctypes.c_void_p
libc.calloc.argtypes = [ctypes.c_size_t, ctypes.c_size_t]


def _view(address: int, size: int) -> memoryview:
    return memoryview((ctypes.c_char * size).from_address(address)).cast("B")


class Region:
    __slots__ = ("start", "size", "end", "kind", "live", "data", "readonly",
                 "tie")

    def __init__(self, start: int, size: int, kind: str, data,
                 readonly: bool = False):
        self.start = start
        self.size = size
        self.end = start + size
        self.kind = kind  # "heap" | "stack" | "global" | "foreign"
        self.live = True
        #: the process bytes: address ``a`` is ``data[a - start]``
        self.data = data
        self.readonly = readonly
        #: a host region's pieces, which its owners' deaths unmap together
        self.tie = None

    def __repr__(self) -> str:
        state = "live" if self.live else "freed"
        return f"<Region {self.kind} [{self.start:#x},{self.end:#x}) {state}>"


def _piece(region: Region, start: int, end: int) -> Region:
    """The bytes ``[start, end)`` of host ``region``, tied to its owners."""
    offset = start - region.start
    piece = Region(start, end - start, region.kind,
                   region.data[offset:offset + end - start], region.readonly)
    piece.tie = region.tie
    region.tie.append(piece)
    return piece


class Memory:
    """The regions of the process the interpreter may touch."""

    def __init__(self):
        #: sorted list of region start addresses, parallel to _regions
        self._starts: list[int] = []
        self._regions: list[Region] = []
        #: host regions whose owner died, for the next insert to drop
        self._dead: list[Region] = []
        self._stack = None      # (its view, its address), at the 1st push
        #: the stack's first free byte, as an offset
        self.sp = 0

    # -- region management --------------------------------------------------
    def map_region(self, size: int, kind: str, align: int = 16,
                   redzone: int = 0) -> Region:
        """A region over ``size`` fresh zeroed process bytes, followed by
        ``redzone`` bytes no region takes."""
        if size < 0:
            raise TrapError(f"cannot map region of negative size {size}")
        raw = libc.calloc(1, size + redzone + align)
        if not raw:
            raise TrapError(f"out of memory mapping {size} bytes")
        start = (raw + align - 1) & ~(align - 1)   # calloc's own, for 16
        return self._insert(Region(start, size, kind, _view(start, size)))

    def map_host(self, host: int, size: int, kind: str, readonly: bool,
                 owners) -> Region:
        """A region for the ``size`` process bytes at ``host``, read and
        written there until the first of ``owners`` dies; a store into a
        ``readonly`` one traps, unless it overlaps a live writable one."""
        region = Region(host, size, kind, _view(host, size), readonly)
        region.tie = [region]
        for owner in owners:
            weakref.finalize(owner, self._forget, region.tie)
        return self._insert(region)

    def _forget(self, tie: list) -> None:
        # an owner died: its bytes may be anyone's from now on
        for region in tie:
            region.live = False
            region.data = None
        self._dead.extend(tie)

    def _insert(self, region: Region) -> Region:
        """Enter ``region`` over the regions it overlaps: their bytes are
        its now, except that a live host region keeps the bytes on either
        side of it as pieces that die with its owners, and bytes one held
        writable stay writable."""
        starts, regions = self._starts, self._regions
        while self._dead:
            gone = self._dead.pop()
            i = bisect.bisect_left(starts, gone.start)
            if i < len(regions) and regions[i] is gone:
                del starts[i], regions[i]
        start, end = region.start, region.end
        lo = bisect.bisect_left(starts, start)
        if lo and regions[lo - 1].end > start:
            lo -= 1
        hi = bisect.bisect_left(starts, start + max(region.size, 1), lo)
        left, right = [], []
        for old in regions[lo:hi]:
            if old.live and old.tie is not None:
                region.readonly = region.readonly and old.readonly
                if old.start < start:
                    left.append(_piece(old, old.start, start))
                if old.end > end:
                    right.append(_piece(old, end, old.end))
                old.tie.remove(old)
        new = [*left, region, *right]
        starts[lo:hi] = [r.start for r in new]
        regions[lo:hi] = new
        return region

    def unmap_region(self, region: Region) -> None:
        if not region.live:
            raise TrapError(f"double free of {region!r}")
        region.live = False

    # -- the stack ------------------------------------------------------------
    def push(self, size: int, align: int) -> Region:
        """A stack slot of ``size`` bytes above every live one."""
        if self._stack is None:
            stack = mmap.mmap(-1, STACK_SIZE, flags=mmap.MAP_PRIVATE)
            self._stack = (memoryview(stack), ctypes.addressof(
                ctypes.c_char.from_buffer(stack)))
        view, base = self._stack
        start = (base + self.sp + align - 1) & ~(align - 1)
        offset = start - base
        if offset + size > STACK_SIZE:
            raise TrapError(f"interpreter stack overflow ({STACK_SIZE} bytes)")
        self.sp = offset + max(size, 1)
        i = bisect.bisect_left(self._starts, start)
        if i < len(self._starts) and self._starts[i] == start:
            old = self._regions[i]
            if old.size == size:    # the tombstone of a slot just like it
                old.live = True
                return old
        return self._insert(Region(start, size, "stack",
                                   view[offset:offset + size]))

    def pop(self, slots: list) -> None:
        """Release the stack ``slots`` (the latest pushed, in push order)."""
        for slot in slots:
            slot.live = False
        if slots:
            self.sp = slots[0].start - self._stack[1]

    def region_at(self, addr: int) -> Region | None:
        """The region containing ``addr``, live or not (for diagnostics)."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        # (a zero-size region still holds its one address)
        return region if addr < region.end or addr == region.start else None

    def check_access(self, addr: int, nbytes: int, write: bool) -> Region:
        """The live region ``addr`` … ``addr + nbytes`` falls in."""
        op = "store to" if write else "load from"
        if addr == 0:
            raise TrapError(f"{op} NULL pointer")
        if addr < _BASE:
            raise TrapError(f"{op} unmapped address {addr:#x}")
        region = self.region_at(addr)
        if region is None or region.data is None:  # (or its owner died)
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
        offset = addr - region.start
        return bytes(region.data[offset:offset + nbytes])

    def write(self, addr: int, data: bytes) -> None:
        region = self.check_access(addr, len(data), write=True)
        offset = addr - region.start
        region.data[offset:offset + len(data)] = data

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string, respecting region bounds."""
        region = self.check_access(addr, 1, write=False)
        chunk = self.read(addr, min(region.end, addr + limit) - addr)
        nul = chunk.find(0)
        if nul < 0:
            raise TrapError(f"unterminated string at {addr:#x}")
        return chunk[:nul]
