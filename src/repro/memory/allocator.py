"""malloc/free/realloc for the interpreter backend.

Terra is manually managed ("Terra, on the other hand, is a statically-typed
language similar to C with manual memory management").  The compiled
backend uses the real libc allocator; this module gives the interpreter
backend the same surface with full checking.

The implementation favours checkability over speed: every block is its own
:class:`~repro.memory.flatmem.Region` over bytes from the process's
``calloc``, and freed regions are recycled through a size-bucketed free
list, never handed back.
"""

from __future__ import annotations

from ..errors import TrapError
from .flatmem import Memory, Region


#: unmapped bytes after every heap block: an access up to this far past a
#: block's end traps as unmapped, not as a read of whatever block a recycled
#: address happens to sit next to (live, or freed)
HEAP_REDZONE = 64


class Allocator:
    """A checking allocator over a :class:`Memory`."""

    def __init__(self, memory: Memory):
        self.memory = memory
        #: freed heap regions by exact size, reused LIFO.
        self._free_by_size: dict[int, list[Region]] = {}
        self._by_addr: dict[int, Region] = {}
        self.live_bytes = 0

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the address (0 for size<0 is a trap)."""
        if size < 0:
            raise TrapError(f"malloc of negative size {size}")
        size = max(size, 1)
        bucket = self._free_by_size.get(size)
        if bucket:
            region = bucket.pop()
            region.live = True
        else:
            region = self.memory.map_region(size, "heap",
                                            redzone=HEAP_REDZONE)
        self._by_addr[region.start] = region
        self.live_bytes += size
        return region.start

    def calloc(self, count: int, size: int) -> int:
        total = count * size
        addr = self.malloc(total)
        if total:
            self.memory.write(addr, bytes(total))
        return addr

    def free(self, addr: int) -> None:
        if addr == 0:  # free(NULL) is a no-op, as in C
            return
        region = self._by_addr.pop(addr, None)
        if region is None:
            owning = self.memory.region_at(addr)
            if owning is not None and owning.kind == "heap" and not owning.live:
                raise TrapError(f"double free at {addr:#x}")
            raise TrapError(f"free of non-heap or interior pointer {addr:#x}")
        self.memory.unmap_region(region)
        self.live_bytes -= region.size
        self._free_by_size.setdefault(region.size, []).append(region)

    def realloc(self, addr: int, new_size: int) -> int:
        if addr == 0:
            return self.malloc(new_size)
        region = self._by_addr.get(addr)
        if region is None:
            raise TrapError(f"realloc of non-heap pointer {addr:#x}")
        if new_size <= region.size:
            return addr
        new_addr = self.malloc(new_size)
        self.memory.write(new_addr, self.memory.read(addr, region.size))
        self.free(addr)
        return new_addr

    def block_size(self, addr: int) -> int:
        region = self._by_addr.get(addr)
        if region is None:
            raise TrapError(f"{addr:#x} is not the start of a live heap block")
        return region.size

    def live_block_count(self) -> int:
        return len(self._by_addr)
