"""The content-addressed artifact cache.

Compiled shared objects are stored under a cache root (``REPRO_TERRA_CACHE``
or ``$TMPDIR/repro-terra-<uid>``) keyed by SHA-256 of the *full build
input*: the C source, every compiler flag, and the toolchain's identity
hash (compiler and linker — see :mod:`repro.buildd.toolchain`).  Identical
code never rebuilds, and a toolchain upgrade can never serve stale objects.

Publication is atomic and race-free across processes: builders write to a
``tempfile.mkstemp`` unique name in the cache root and ``os.replace`` it
over the final path, so a concurrent reader sees either nothing or a
complete artifact — never a half-written one.

The filesystem is the index.  The root holds, per artifact::

    unit_<key>.so     the artifact; its mtime is the LRU clock
    unit_<key>.c      the C it was built from, written before the build
    unit_<key>.json   its namespace, when not the default; written at publish

and ``memo/<digest>``, one file per structural-memo record (docs/
INTERNALS.md): the artifact key and the bind record, written with the same
atomic rename.  A memo lookup opens one file, once per process; a hit is
one ``os.utime``, seen by every process at once.  Nothing is loaded up
front: eviction against ``REPRO_BUILDD_CACHE_ENTRIES`` and
``REPRO_BUILDD_CACHE_BYTES`` (default 1 GiB) scans the directory when a
publish puts this process's view over a cap; :meth:`summary`, :meth:`gc`
and :meth:`memo_rows` scan it when asked.  A damaged or older directory
(no sidecar, a memo file that does not decode, an old
``buildd-index.json``) reads as a miss or a default, never as an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Iterable, Optional

from .. import config

#: A temp file younger than this is assumed to belong to an in-flight
#: build (possibly in another process) and is left alone by :meth:`gc`.
DEFAULT_TEMP_TTL_S = 3600.0

#: length of the hex key used in artifact file names
KEY_LEN = 24

MEMO_DIR = "memo"
#: where :mod:`repro.buildd.toolchain` keeps its probe of each compiler
TOOLCHAIN_DIR = "toolchain"
TEMP_PREFIXES = (".build-", ".src-", ".index-")
#: the JSON index older versions kept beside the artifacts; gc removes it
LEGACY_INDEX = "buildd-index.json"


def default_root() -> str:
    base = config.get("REPRO_TERRA_CACHE")
    if base is None:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        base = os.path.join(tempfile.gettempdir(), f"repro-terra-{uid}")
    return base


def unlink_quietly(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".src-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        unlink_quietly(tmp)
        raise


class ArtifactCache:
    """Content-addressed store of compiled shared objects."""

    def __init__(self, root: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 temp_ttl_s: Optional[float] = None,
                 max_entries: Optional[int] = None) -> None:
        self.root = os.path.abspath(root or default_root())
        self.max_bytes = config.get("REPRO_BUILDD_CACHE_BYTES") \
            if max_bytes is None else max_bytes
        self.temp_ttl_s = DEFAULT_TEMP_TTL_S if temp_ttl_s is None \
            else temp_ttl_s
        #: entry-count LRU cap across all namespaces (0 = unbounded)
        self.max_entries = config.get("REPRO_BUILDD_CACHE_ENTRIES") \
            if max_entries is None else max(0, max_entries)
        os.makedirs(os.path.join(self.root, MEMO_DIR), exist_ok=True)
        self._lock = threading.Lock()
        #: key -> bytes: this process's view of the caps, from one scan at
        #: its first publish plus its own publishes; rescanned when over
        self._sizes: Optional[dict[str, int]] = None
        #: digest -> (key, record) this process read or wrote: a memo file
        #: is opened once per process (a record whose artifact has gone
        #: since fails its fetch, a miss that writes a new one)
        self._memos: dict[str, tuple] = {}

    # -- keys and paths -----------------------------------------------------
    @staticmethod
    def key_for(source: str, flags: Iterable[str], cc_identity: str) -> str:
        h = hashlib.sha256()
        h.update(cc_identity.encode())
        h.update(b"\0")
        h.update("\0".join(flags).encode())
        h.update(b"\0\0")
        h.update(source.encode())
        return h.hexdigest()[:KEY_LEN]

    def artifact_path(self, key: str) -> str:
        return os.path.join(self.root, f"unit_{key}.so")

    def source_path(self, key: str) -> str:
        return os.path.join(self.root, f"unit_{key}.c")

    def meta_path(self, key: str) -> str:
        return os.path.join(self.root, f"unit_{key}.json")

    def memo_path(self, digest: str) -> str:
        return os.path.join(self.root, MEMO_DIR, digest)

    def _artifacts(self) -> dict[str, os.stat_result]:
        """key -> stat of every artifact on disk: the directory scan that
        eviction, :meth:`summary` and :meth:`gc` make when asked."""
        out = {}
        with os.scandir(self.root) as entries:
            for entry in entries:
                name = entry.name
                if name.startswith("unit_") and name.endswith(".so"):
                    try:
                        out[name[len("unit_"):-len(".so")]] = entry.stat()
                    except OSError:
                        pass    # evicted since the listing
        return out

    # -- lookup / publish ---------------------------------------------------
    def memo(self, digest: str) -> Optional[tuple]:
        """``(key, record)`` of the memo file for ``digest``, or None.
        Reads only: :meth:`lookup` of the key is the cache request."""
        if digest in self._memos:
            return self._memos[digest]
        try:
            with open(self.memo_path(digest)) as f:
                key, record = found = json.load(f)
        except (OSError, ValueError, TypeError):
            return None
        if type(found) is list and isinstance(key, str) and key.isalnum():
            self._memos[digest] = key, record
            return key, record
        return None

    def memo_rows(self) -> int:
        """How many artifacts a memo record points at."""
        found = (self.memo(digest) for digest
                 in os.listdir(os.path.join(self.root, MEMO_DIR))
                 if not digest.startswith("."))
        return len({f[0] for f in found
                    if f and os.path.exists(self.artifact_path(f[0]))})

    def lookup(self, key: str, memo: Optional[tuple] = None) -> Optional[str]:
        """Path of a cached artifact, or None.  A hit sets the artifact's
        mtime — the LRU clock every process's eviction reads — and that is
        all it writes.

        ``memo`` is a ``(digest, record)`` to note — another specialized
        tree found to compile to this artifact — and reaches the disk at
        once when its file did not hold it yet.
        """
        path = self.artifact_path(key)
        try:
            os.utime(path)
        except FileNotFoundError:
            return None
        except OSError:
            pass        # an artifact this process may read, not touch
        if memo is not None:
            self._note_memo(key, memo)
        return path

    def _note_memo(self, key: str, memo: tuple) -> None:
        digest, record = memo
        text = json.dumps([key, record])
        noted = tuple(json.loads(text))
        if self.memo(digest) != noted:
            try:
                write_atomic(self.memo_path(digest), text)
                self._memos[digest] = noted
            except OSError:
                pass    # a read-only cache: the record waits for a writer

    def publish(self, key: str, built_path: str, *,
                namespace: Optional[str] = None,
                memo: Optional[tuple] = None) -> str:
        """Atomically install ``built_path`` (a unique temp file, consumed)
        as the artifact for ``key``; returns the final path.

        ``namespace`` attributes the entry (``summary()["namespaces"]``:
        repro.serve passes tenant ids); None files it under ``"default"``.
        ``memo`` is the ``(digest, record)`` of the specialized tree the
        source was emitted from (see :meth:`lookup`).
        """
        final = self.artifact_path(key)
        if namespace not in (None, "default"):
            write_atomic(self.meta_path(key), json.dumps({"ns": namespace}))
        os.utime(built_path)    # its mtime is its LRU clock: the newest
        size = os.path.getsize(built_path)
        with self._lock:        # so this process evicts only what it sees
            if self._sizes is None:
                self._sizes = {k: st.st_size
                               for k, st in self._artifacts().items()}
            os.replace(built_path, final)
            self._sizes[key] = size
            self._evict_locked()
        if memo is not None:
            self._note_memo(key, memo)
        return final

    def make_temp(self, suffix: str = ".so.tmp") -> str:
        """A unique closed temp file inside the cache root (same filesystem
        as the final path, so ``os.replace`` is atomic)."""
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".build-",
                                   suffix=suffix)
        os.close(fd)
        return tmp

    # -- eviction / maintenance ---------------------------------------------
    def _over(self, count: int, total: int) -> bool:
        return 0 < self.max_entries < count or 0 < self.max_bytes < total

    def _evict_locked(self) -> list[str]:
        """Apply every configured limit (0 = none): when this process's
        view is over a cap, rescan the directory and drop the least
        recently used artifact — the oldest mtime — while the entry count
        or the bytes are over, then the memo files that name one."""
        sizes = self._sizes
        if not self._over(len(sizes), sum(sizes.values())):
            return []
        found = self._artifacts()
        sizes.clear()
        sizes.update((key, st.st_size) for key, st in found.items())
        total, evicted = sum(sizes.values()), []
        for key in sorted(found, key=lambda k: found[k].st_mtime_ns):
            if not self._over(len(sizes), total):
                break
            total -= sizes.pop(key)
            for path in (self.artifact_path(key), self.source_path(key),
                         self.meta_path(key)):
                unlink_quietly(path)
            evicted.append(key)
        if evicted:
            self._drop_memos(set(evicted).__contains__)
        return evicted

    def _drop_memos(self, gone) -> None:
        """Delete every memo file that does not decode or whose key is
        ``gone``; a dot name is an in-flight write."""
        for name in os.listdir(os.path.join(self.root, MEMO_DIR)):
            if not name.startswith("."):
                found = self.memo(name)
                if found is None or gone(found[0]):
                    unlink_quietly(self.memo_path(name))
                    self._memos.pop(name, None)

    def gc(self) -> dict:
        """Evict over-cap artifacts, delete *orphaned* temp files, and drop
        what belongs to no artifact: memo files whose artifact is gone,
        sources and sidecars as old as an orphaned temp, the legacy index.
        Returns a summary.

        A temp file younger than ``temp_ttl_s`` may belong to an in-flight
        build in this or another process — deleting it would make that
        build's ``os.replace`` publish fail with ENOENT — so only temps
        (and sources and sidecars) older than the threshold are orphans.
        """
        with self._lock:
            self._sizes = {k: st.st_size
                           for k, st in self._artifacts().items()}
            evicted = self._evict_locked()
            kept = set(self._sizes)
        self._drop_memos(lambda key: key not in kept)
        self._memos.clear()
        removed_tmp, now = 0, time.time()
        for sub in ("", MEMO_DIR, TOOLCHAIN_DIR):
            folder = os.path.join(self.root, sub)
            for name in os.listdir(folder) if os.path.isdir(folder) else ():
                path = os.path.join(folder, name)
                temp = name.startswith(TEMP_PREFIXES) \
                    or name.endswith(".so.tmp")
                stray = name.startswith("unit_") \
                    and name[len("unit_"):].rsplit(".", 1)[0] not in kept
                try:
                    if name == LEGACY_INDEX or (temp or stray) and \
                            now - os.stat(path).st_mtime >= self.temp_ttl_s:
                        os.unlink(path)
                        removed_tmp += temp
                except OSError:
                    pass
        return {"evicted": len(evicted), "temp_files_removed": removed_tmp,
                "artifacts": len(kept)}

    def clear(self) -> int:
        """Delete every cached artifact and memo record; returns how many
        files were removed."""
        memo_dir = os.path.join(self.root, MEMO_DIR)
        paths = [os.path.join(self.root, name)
                 for name in os.listdir(self.root)
                 if name == LEGACY_INDEX or name.startswith("unit_")
                 or name.startswith(TEMP_PREFIXES)]
        paths += [os.path.join(memo_dir, n) for n in os.listdir(memo_dir)]
        with self._lock:
            self._sizes = None
            self._memos.clear()
            return sum(unlink_quietly(path) for path in paths)

    def summary(self) -> dict:
        found = self._artifacts()
        namespaces: dict[str, int] = {}
        for key in found:
            try:
                with open(self.meta_path(key)) as f:
                    ns = json.load(f)["ns"]
            except (OSError, ValueError, LookupError, TypeError):
                ns = "default"      # an artifact older versions published
            namespaces[ns] = namespaces.get(ns, 0) + 1
        return {"root": self.root, "artifacts": len(found),
                "bytes_cached": sum(st.st_size for st in found.values()),
                "max_bytes": self.max_bytes,
                "max_entries": self.max_entries,
                "namespaces": namespaces}
