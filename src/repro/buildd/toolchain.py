"""Compiler discovery — the single source of truth for "which cc?".

``backend.base`` (backend selection) and ``backend.c.runtime`` (the
compile) both ask this module.  Besides the path, the
toolchain records the compiler's *identity* — a short hash of its resolved
path and ``--version`` output — which the artifact cache folds into every
cache key, so upgrading gcc can never silently reuse stale ``.so``
artifacts built by the old compiler.

Override discovery with ``REPRO_TERRA_CC=/path/to/cc`` (useful for tests
and for pinning a specific compiler).
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import threading
from dataclasses import dataclass
from typing import Optional

from .. import config
from ..errors import CompileError

#: probed in order when REPRO_TERRA_CC is not set
CC_CANDIDATES = ("gcc", "cc")


@dataclass(frozen=True)
class Toolchain:
    """A resolved C compiler: absolute path, version banner, identity hash."""

    path: str
    version: str
    identity: str

    def __str__(self) -> str:
        first_line = self.version.splitlines()[0] if self.version else "?"
        return f"{self.path} ({first_line})"


_lock = threading.Lock()
_cached: Optional[Toolchain] = None
_probed = False


def _probe() -> Optional[Toolchain]:
    env_cc = config.get("REPRO_TERRA_CC")
    candidates = (env_cc,) if env_cc else CC_CANDIDATES
    for cc in candidates:
        path = shutil.which(cc)
        if path is None:
            continue
        try:
            proc = subprocess.run([path, "--version"], capture_output=True,
                                  text=True, timeout=30)
            version = proc.stdout.strip() or proc.stderr.strip()
        except OSError:
            continue
        ident = hashlib.sha256(
            f"{path}\0{version}".encode()).hexdigest()[:12]
        return Toolchain(path=path, version=version, identity=ident)
    return None


def default_toolchain() -> Optional[Toolchain]:
    """The host toolchain, or None when no C compiler is installed.
    Probed once per process; :func:`reset` re-probes (tests)."""
    global _cached, _probed
    if not _probed:
        with _lock:
            if not _probed:
                _cached = _probe()
                _probed = True
    return _cached


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
    global _cached, _probed
    with _lock:
        _cached = None
        _probed = False
