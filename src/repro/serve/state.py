"""Per-tenant server state: the warm kernel pool and resident buffers.

**Warm pool.**  A kernel that has been compiled for a tenant stays
*resident* — its :class:`~repro.core.function.TerraFunction` and compiled
handle are kept in an LRU-ordered per-tenant pool, so a warm request
skips the entire parse → specialize → typecheck → emit → buildd path and
goes straight to one ctypes call.  (buildd's artifact cache already makes
the *gcc* step free for identical source; the warm pool also makes the
Python-side staging free, which dominates once artifacts are cached.)
Each tenant holds at most ``quota`` kernels; inserting beyond that evicts
the least-recently-used one.  Pools are per-tenant by design: one noisy
tenant can evict only its own kernels, never a neighbour's — the
cross-tenant sharing happens one layer down, in the content-addressed
artifact cache, where identical source still compiles once.

**Buffers.**  Kernels operate on pointers, and pointers cannot cross a
JSON boundary, so tenants allocate *server-resident* typed buffers
(``alloc``/``write``/``read``/``free`` ops) and pass ``{"buf": id}``
where a kernel expects a pointer.  Buffers are ctypes arrays owned by the
tenant that allocated them; referencing another tenant's buffer id is an
``unknown-buffer`` error (tenant isolation is by construction: ids are
looked up in the requesting tenant's table only).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
from collections import OrderedDict
from typing import Hashable, Optional

from ..backend.c.runtime import WARM_CALLS
from ..core import types as T
from .protocol import ServeError, jsonable_result

#: JSON dtype name -> (Terra element type, ctypes element type)
DTYPES = {
    "int8": (T.int8, ctypes.c_int8),
    "int16": (T.int16, ctypes.c_int16),
    "int32": (T.int32, ctypes.c_int32),
    "int64": (T.int64, ctypes.c_int64),
    "uint8": (T.uint8, ctypes.c_uint8),
    "uint16": (T.uint16, ctypes.c_uint16),
    "uint32": (T.uint32, ctypes.c_uint32),
    "uint64": (T.uint64, ctypes.c_uint64),
    "float": (T.float32, ctypes.c_float),
    "float32": (T.float32, ctypes.c_float),
    "double": (T.float64, ctypes.c_double),
    "float64": (T.float64, ctypes.c_double),
}

#: hard cap on one tenant buffer, independent of every other knob
MAX_BUFFER_BYTES = 1 << 28  # 256 MiB


#: A call runs on the event loop while its kernel's last INLINE_AFTER
#: runs each took under INLINE_BUDGET_S: what the executor hand-off it
#: replaces costs the request (a no-op ``run_in_executor`` round trip is
#: ~50 us bare on one pinned CPU, ~65 us in the server; EXPERIMENTS.md E13).
#: The streak puts a kernel's first calls (lazy binding, cold pages, the C
#: plan's WARM_CALLS-th: its native rung) behind it.  An overrun on the loop
#: doubles the streak to earn, up to the bound: once in 513 calls.
INLINE_BUDGET_S = 100e-6
INLINE_AFTER = max(8, WARM_CALLS)
_INLINE_AFTER_MAX = 512


def kernel_key(source: str, entry: str, chunked: bool, backend: str) -> str:
    """A kernel's name in spans: a digest of its full staging input."""
    h = hashlib.sha256()
    for part in (backend, entry, "chunk" if chunked else "plain", source):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class WarmKernel:
    """One resident compiled kernel.

    ``handle`` is whatever one call invokes: a backend handle under
    ahead-of-time policies, or the function's
    :class:`~repro.exec.dispatch.Dispatcher` under the ``tiered``
    execution policy (``tiered=True``), in which case calls start
    interpreted and the kernel climbs tiers in place while staying
    resident in the pool.

    ``streak``, ``need`` and ``envelope`` are its cost record (loop thread
    only): consecutive runs seen under ``INLINE_BUDGET_S``, how many earn
    the loop, and the largest ``|int|`` per argument position among them."""

    __slots__ = ("key", "entry", "span_name", "fn", "handle", "tiered",
                 "streak", "need", "envelope")

    def __init__(self, key: str, entry: str, fn, handle,
                 tiered: bool = False):
        self.key = key
        self.entry = entry
        self.span_name = f"serve.exec:{entry}"
        self.fn = fn            # the TerraFunction (kept alive with the lib)
        self.handle = handle    # backend callable handle, or fn (tiered)
        self.tiered = tiered
        self.streak = 0
        self.need = INLINE_AFTER
        self.envelope: list[int] = []

    def tier_info(self) -> Optional[dict]:
        """Tiering snapshot for stats, or None for ahead-of-time kernels."""
        if not self.tiered:
            return None
        return self.fn.dispatcher.tier_info()

    @property
    def eligible(self) -> bool:
        """Streak earned, so compiled: a tier-0 run (it interprets, and
        may stage the tier-up) earns none in :meth:`observe`."""
        return self.streak >= self.need

    def fits_inline(self, args: list) -> bool:
        """Whether this call may run on the loop: the kernel is eligible
        and every ``int`` argument (what a loop bound is; not ``bool``)
        lies inside the envelope.  Other types never gate."""
        if self.streak < self.need or len(args) != len(self.envelope):
            return False
        for a, bound in zip(args, self.envelope):
            if type(a) is int and abs(a) > bound:
                return False
        return True

    def observe(self, args: list, seconds: float, inline: bool) -> bool:
        """Record one run; True when it demoted the kernel.  A fast run
        extends the streak and widens the envelope; an overrun clears
        both, and one that held the loop doubles the streak to earn."""
        if self.tiered and self.tier_info()["tier"] == 0:
            return False    # interpreted: the streak counts compiled runs
        if seconds > INLINE_BUDGET_S:
            self.streak, self.envelope = 0, []
            if inline:
                self.need = min(2 * self.need, _INLINE_AFTER_MAX)
            return inline
        if inline:      # fits_inline held: the envelope covers args
            self.streak += 1
            return False
        if len(args) != len(self.envelope):
            self.streak, self.envelope = 0, [0] * len(args)
        self.streak += 1
        for i, a in enumerate(args):
            if type(a) is int and abs(a) > self.envelope[i]:
                self.envelope[i] = abs(a)
        return False


class KernelPool:
    """An LRU pool of :class:`WarmKernel`, bounded by ``quota``."""

    def __init__(self, quota: int):
        self.quota = max(1, int(quota))
        self._kernels: OrderedDict[Hashable, WarmKernel] = OrderedDict()
        self.hits = 0           # both over the pool's life: evicted
        self.evictions = 0      # kernels' hits stay counted

    def get(self, ident: Hashable) -> Optional[WarmKernel]:
        kernel = self._kernels.get(ident)
        if kernel is not None:
            self._kernels.move_to_end(ident)
            self.hits += 1
        return kernel

    def put(self, ident: Hashable, kernel: WarmKernel) -> list[WarmKernel]:
        """Insert (or refresh) a kernel under its identity, the staging
        input ``(backend, entry, chunked, source)``; returns evicted ones."""
        self._kernels[ident] = kernel
        self._kernels.move_to_end(ident)
        evicted = []
        while len(self._kernels) > self.quota:
            _, old = self._kernels.popitem(last=False)
            self.evictions += 1
            evicted.append(old)
        return evicted

    def __len__(self) -> int:
        return len(self._kernels)

    def keys(self) -> list:
        return list(self._kernels)

    def values(self) -> list[WarmKernel]:
        return list(self._kernels.values())


class Buffer:
    """A server-resident typed array owned by one tenant."""

    __slots__ = ("id", "dtype", "elem", "cdata", "count")

    def __init__(self, buf_id: int, dtype: str, count: int):
        elem_terra, elem_ctypes = DTYPES[dtype]
        self.id = buf_id
        self.dtype = dtype
        self.elem = elem_terra
        self.count = count
        self.cdata = (elem_ctypes * count)()

    @property
    def nbytes(self) -> int:
        return ctypes.sizeof(self.cdata)


class TenantState:
    """Everything the server holds for one tenant id."""

    def __init__(self, name: str, kernel_quota: int):
        self.name = name
        self.kernels = KernelPool(kernel_quota)
        self.buffers: dict[int, Buffer] = {}
        self._next_buf = 1
        self.inflight = 0          # admission-controlled concurrent requests
        self.requests = 0
        #: where calls ran; demotions are overruns on the loop
        self.placed = {"inline": 0, "offloaded": 0, "demotions": 0}

    # -- buffers ------------------------------------------------------------
    def alloc(self, dtype: str, count: int) -> Buffer:
        if dtype not in DTYPES:
            raise ServeError("bad-request",
                             f"unknown dtype {dtype!r} (one of: "
                             f"{', '.join(sorted(DTYPES))})")
        if count <= 0:
            raise ServeError("bad-request", f"count must be positive, "
                                            f"got {count}")
        _, elem_ctypes = DTYPES[dtype]
        if count * ctypes.sizeof(elem_ctypes) > MAX_BUFFER_BYTES:
            raise ServeError("bad-request",
                             f"buffer of {count} x {dtype} exceeds the "
                             f"{MAX_BUFFER_BYTES >> 20} MiB per-buffer cap")
        buf = Buffer(self._next_buf, dtype, count)
        self._next_buf += 1
        self.buffers[buf.id] = buf
        return buf

    def buffer(self, buf_id) -> Buffer:
        if not isinstance(buf_id, int) or isinstance(buf_id, bool):
            raise ServeError("bad-request",
                             f"buffer id must be an integer, got {buf_id!r}")
        buf = self.buffers.get(buf_id)
        if buf is None:
            raise ServeError("unknown-buffer",
                             f"tenant {self.name!r} owns no buffer {buf_id}")
        return buf

    def free(self, buf_id: int) -> None:
        self.buffer(buf_id)
        del self.buffers[buf_id]

    def write(self, buf_id: int, start: int, values: list) -> int:
        buf = self.buffer(buf_id)
        if start < 0 or start + len(values) > buf.count:
            raise ServeError("bad-request",
                             f"write [{start}, {start + len(values)}) is out "
                             f"of bounds for buffer of {buf.count}")
        if not set(map(type, values)) <= {int, float}:  # a subclass, or:
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ServeError("bad-request",
                                     f"buffer values must be numbers, got "
                                     f"{type(v).__name__}")
        cast = int if buf.elem.isintegral() else float
        buf.cdata[start:start + len(values)] = list(map(cast, values))
        return len(values)

    def read(self, buf_id: int, start: int, count: int) -> list:
        buf = self.buffer(buf_id)
        if start < 0 or count < 0 or start + count > buf.count:
            raise ServeError("bad-request",
                             f"read [{start}, {start + count}) is out of "
                             f"bounds for buffer of {buf.count}")
        values = buf.cdata[start:start + count]
        if buf.elem.isintegral():
            return values
        return [v if math.isfinite(v) else jsonable_result(v, "read")
                for v in values]

    # -- argument resolution ------------------------------------------------
    def resolve_args(self, raw_args: list) -> list:
        """Map wire arguments onto FFI-ready Python values: numbers pass
        through, ``{"buf": id}`` becomes the tenant's ctypes array (the
        FFI takes its address), None becomes a null pointer."""
        out = []
        for a in raw_args:
            if a is None or isinstance(a, (bool, int, float, str)):
                out.append(a)
            elif isinstance(a, dict) and set(a) == {"buf"}:
                out.append(self.buffer(a["buf"]).cdata)
            elif isinstance(a, dict) and set(a) == {"float"}:
                out.append(float(a["float"]))
            else:
                raise ServeError(
                    "bad-request",
                    f"argument {a!r} is not a number, string, null, or "
                    f'{{"buf": id}} reference')
        return out

    def summary(self) -> dict:
        tiers = {"tier0": 0, "tier1": 0}
        kernels = self.kernels.values()
        for kernel in kernels:
            info = kernel.tier_info()
            if info is not None:
                tiers["tier1" if info["tier"] else "tier0"] += 1
        return {
            "kernels": len(self.kernels),
            "kernel_evictions": self.kernels.evictions,
            "kernel_hits": self.kernels.hits,
            **self.placed,
            "inline_eligible": sum(k.eligible for k in kernels),
            "buffers": len(self.buffers),
            "buffer_bytes": sum(b.nbytes for b in self.buffers.values()),
            "inflight": self.inflight,
            "requests": self.requests,
            "tiers": tiers,
        }
