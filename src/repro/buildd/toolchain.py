"""Compiler discovery — the single source of truth for "which cc?".

``backend.base`` (backend selection) and ``backend.c.runtime`` (the
compile) both ask this module.  Besides the path, the toolchain records
the linker and ``libgcc.a`` the compiler drives, which link a JIT unit
(docs/INTERNALS.md "How a unit is built"), and its *identity* — a short
hash of the compiler's path and version and of the linker — which the
artifact cache folds into every cache key, so upgrading gcc or binutils
can never silently reuse stale ``.so`` artifacts.  The probe's answer is
kept in the artifact cache, keyed by the compiler binary's path,
realpath, inode, size and mtime and checked against those of the linker,
``libgcc.a`` and ``cc1``: a fresh process with a warm cache spawns no
child before its first hit.

Override discovery with ``REPRO_TERRA_CC=/path/to/cc`` (useful for tests
and for pinning a specific compiler).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
from dataclasses import dataclass
from typing import Optional

from .. import config
from ..errors import CompileError
from .cache import TOOLCHAIN_DIR, default_root, write_atomic

#: probed in order when REPRO_TERRA_CC is not set
CC_CANDIDATES = ("gcc", "cc")


@dataclass(frozen=True)
class Toolchain:
    """A resolved C compiler: absolute path, version banner, identity hash,
    and the linker and ``libgcc.a`` that link a JIT unit."""

    path: str
    version: str
    identity: str
    ld: str
    libgcc: str         # "" when the compiler names none

    def __str__(self) -> str:
        first_line = self.version.splitlines()[0] if self.version else "?"
        return f"{self.path} ({first_line})"


def _signature(path: str) -> list:
    """What must not change for a probe of ``path`` to stand."""
    real = os.path.realpath(path)
    st = os.stat(real)
    return [path, real, st.st_ino, st.st_size, st.st_mtime_ns]


def _ask(path: str, *options: str) -> list:
    """The compiler's answer to each option, asked of concurrent children."""
    procs = [subprocess.Popen([path, opt], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for opt in options]
    return [out.strip() or err.strip() for out, err
            in (proc.communicate(timeout=30) for proc in procs)]


def _probe_cached(path: str) -> Toolchain:
    """What the compiler says about itself and the linker it drives —
    asked once per binary: the answer is kept in the artifact cache under
    the compiler's signature, and stands while the signatures of the
    linker, ``libgcc.a`` and ``cc1`` do (behind a wrapper — ccache, a
    script — the driver's own does not move when the compiler does)."""
    record = os.path.join(default_root(), TOOLCHAIN_DIR, hashlib.sha256(
        repr(_signature(path)).encode()).hexdigest()[:24])
    try:
        with open(record) as f:
            facts = json.load(f)
        if all(sig == _signature(sig[0]) for sig in facts.pop("deps")):
            return Toolchain(path=path, **facts)
    except (OSError, ValueError, LookupError, TypeError):
        pass
    name, cc1, libgcc, version = _ask(
        path, "-print-prog-name=ld", "-print-prog-name=cc1",
        "-print-libgcc-file-name", "--version")
    ld = shutil.which(name or "ld") or name
    libgcc = libgcc if os.path.isabs(libgcc) else ""
    deps = [_signature(ld)] + [_signature(p) for p in (libgcc, cc1)
                               if os.path.isabs(p)]
    facts = {"version": version, "ld": ld, "libgcc": libgcc}
    facts["identity"] = hashlib.sha256(
        repr([path, facts, deps]).encode()).hexdigest()[:12]
    try:
        os.makedirs(os.path.dirname(record), exist_ok=True)
        write_atomic(record, json.dumps({**facts, "deps": deps}))
    except OSError:
        pass                # a read-only cache: probe again next process
    return Toolchain(path=path, **facts)


@functools.lru_cache(maxsize=None)
def default_toolchain() -> Optional[Toolchain]:
    """The host toolchain, or None when no C compiler is installed.
    Probed once per process (two first callers at once may both probe);
    :func:`reset` re-probes (tests)."""
    env_cc = config.get("REPRO_TERRA_CC")
    candidates = (env_cc,) if env_cc else CC_CANDIDATES
    for cc in candidates:
        path = shutil.which(cc)
        if path is None:
            continue
        try:
            return _probe_cached(path)
        except OSError:
            continue
    return None


def require_toolchain() -> Toolchain:
    tc = default_toolchain()
    if tc is None:
        raise CompileError(
            "no C compiler found (need gcc or cc in PATH, or set "
            "REPRO_TERRA_CC); the interpreter backend "
            "(REPRO_TERRA_BACKEND=interp) runs without one")
    return tc


def find_cc() -> str:
    """Path of the C compiler (raises :class:`CompileError` if none)."""
    return require_toolchain().path


def cc_available() -> bool:
    return default_toolchain() is not None


def cc_identity() -> str:
    """Short hash identifying the compiler build (empty if none found) —
    part of every artifact-cache key."""
    tc = default_toolchain()
    return tc.identity if tc is not None else ""


@functools.lru_cache(maxsize=None)
def package_fingerprint() -> str:
    """Short hash of the ``repro`` sources this process runs — each
    ``.py``'s path, ``mtime_ns`` and size, what CPython's own ``.pyc``
    invalidation trusts — taken once.  Structural-memo records carry it, so
    an edited pass or emitter is never served a unit its predecessor
    emitted into a cache directory that outlived it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stats = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            st = os.stat(os.path.join(dirpath, name))
            stats.append((dirpath[len(root):], name, st.st_mtime_ns, st.st_size))
    return hashlib.sha256(repr(stats).encode()).hexdigest()[:12]


def reset() -> None:
    """Forget the probed toolchain (tests change PATH / REPRO_TERRA_CC)."""
    default_toolchain.cache_clear()
