"""The content-addressed artifact cache.

Compiled shared objects are stored under a cache root (``REPRO_TERRA_CACHE``
or ``$TMPDIR/repro-terra-<uid>``) keyed by SHA-256 of the *full build
input*: the C source, every compiler flag, and the compiler's identity
hash (path + ``--version`` — see :mod:`repro.buildd.toolchain`).  Identical
code never rebuilds, and a compiler upgrade can never serve stale objects.

Publication is atomic and race-free across processes: builders write to a
``tempfile.mkstemp`` unique name in the cache root and ``os.replace`` it
over the final path, so a concurrent reader sees either nothing or a
complete artifact — never a half-written one.

A JSON index (``buildd-index.json``) records per-artifact metadata (size,
flags, compile time, submitting namespace) and drives LRU eviction against
an entry cap (``REPRO_BUILDD_CACHE_ENTRIES``) and a byte cap
(``REPRO_BUILDD_CACHE_BYTES``, default 1 GiB).  The LRU clock is each
artifact's mtime: a hit touches it (``os.utime``) and eviction reads it, so
a hit costs one system call whatever the cache's size, is seen by every
process at once, and never rewrites the index — only a publish, a new memo
record (below) and maintenance do.  The index is advisory: if it is
missing, stale, or corrupted, it is rebuilt by scanning the cache
directory, so a pre-populated or damaged cache dir degrades to a rebuild,
never to an error.

A row may also carry ``memo``: *structural digest → bind record* for every
specialized component known to compile to this artifact (the linker's
structural memo, docs/INTERNALS.md).  It lives and dies with the row, so
eviction, ``clear`` and index recovery need no code of their own;
:meth:`ArtifactCache.memo` finds a row by digest.
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

INDEX_NAME = "buildd-index.json"
INDEX_VERSION = 1

#: A temp file younger than this is assumed to belong to an in-flight
#: build (possibly in another process) and is left alone by :meth:`gc`.
DEFAULT_TEMP_TTL_S = 3600.0

#: length of the hex key used in artifact file names
KEY_LEN = 24


def default_root() -> str:
    base = config.get("REPRO_TERRA_CACHE")
    if base is None:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        base = os.path.join(tempfile.gettempdir(), f"repro-terra-{uid}")
    return base


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
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._index: Optional[dict] = None  # key -> metadata dict
        self._by_digest: dict[str, str] = {}  # memo digest -> key (advisory)

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

    def _index_path(self) -> str:
        return os.path.join(self.root, INDEX_NAME)

    # -- index persistence --------------------------------------------------
    def _load_index_locked(self) -> dict:
        if self._index is not None:
            return self._index
        entries: dict = {}
        try:
            with open(self._index_path()) as f:
                data = json.load(f)
            if isinstance(data, dict) and isinstance(data.get("entries"), dict):
                entries = data["entries"]
        except (OSError, ValueError):
            entries = {}  # missing or corrupted: rebuild from the dir scan
        # adopt artifacts the index does not know about (pre-populated dir,
        # another process's builds, or a lost/corrupted index)
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if not (name.startswith("unit_") and name.endswith(".so")):
                continue
            key = name[len("unit_"):-len(".so")]
            if isinstance(entries.get(key), dict):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries[key] = {"size": st.st_size, "flags": [],
                            "compile_s": None, "created": st.st_mtime}
        # drop index entries that are not rows or whose artifact vanished
        entries = {k: v for k, v in entries.items() if isinstance(v, dict)
                   and os.path.exists(self.artifact_path(k))}
        self._by_digest = {}
        for key, entry in entries.items():
            if isinstance(entry.get("memo"), dict):
                self._by_digest.update(dict.fromkeys(entry["memo"], key))
            else:
                entry.pop("memo", None)
        self._index = entries
        return entries

    def _save_index_locked(self) -> None:
        assert self._index is not None
        payload = {"version": INDEX_VERSION, "entries": self._index}
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".index-")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, indent=0, sort_keys=True)
            os.replace(tmp, self._index_path())
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- lookup / publish ---------------------------------------------------
    def memo(self, digest: str) -> Optional[tuple]:
        """``(key, record)`` of the row whose ``memo`` holds ``digest``, or
        None.  Reads only: :meth:`lookup` of the key is the cache request."""
        with self._lock:
            entries = self._load_index_locked()
            key = self._by_digest.get(digest)
            record = entries.get(key, {}).get("memo", {}).get(digest)
            return None if record is None else (key, record)

    def memo_rows(self) -> int:
        """How many rows carry a memo record."""
        with self._lock:
            entries = self._load_index_locked()
            return len(entries.keys() & self._by_digest.values())

    def lookup(self, key: str, memo: Optional[tuple] = None) -> Optional[str]:
        """Path of a cached artifact, or None.  A hit sets the artifact's
        mtime — the LRU clock every process's eviction reads — and that is
        all it writes.

        ``memo`` is a ``(digest, record)`` to note on the row — another
        specialized tree found to compile to this artifact — and reaches
        the disk at once when the row did not hold it yet.
        """
        path = self.artifact_path(key)
        try:
            os.utime(path)
        except FileNotFoundError:
            with self._lock:
                if self._index is not None:
                    self._index.pop(key, None)
            return None
        except OSError:
            pass        # an artifact this process may read, not touch
        if memo is None:
            return path
        with self._lock:
            entry = self._load_index_locked().get(key)
            if entry is None:   # published since the load: what disk says
                self._index = None      # (no change here is unsaved)
                entry = self._load_index_locked().get(key)
            if entry is not None and self._note_memo_locked(key, entry, memo):
                self._save_index_locked()
        return path

    def _note_memo_locked(self, key: str, entry: dict, memo: tuple) -> bool:
        """Note ``memo`` on ``entry``; whether that changed the index."""
        digest, record = memo
        moved_from = self._index.get(self._by_digest.get(digest))
        if moved_from is entry and entry.get("memo", {}).get(digest) == record:
            return False
        if moved_from is not None and moved_from is not entry:
            moved_from.get("memo", {}).pop(digest, None)    # its C changed
        entry.setdefault("memo", {})[digest] = record
        self._by_digest[digest] = key
        return True

    def publish(self, key: str, built_path: str, *, source: str = "",
                flags: Iterable[str] = (),
                compile_s: Optional[float] = None,
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
        if source:
            self._write_atomic(self.source_path(key), source)
        os.utime(built_path)    # its mtime is its LRU clock: the newest
        # stat before the rename, and rename under the lock: once the final
        # name exists, a concurrent first-load dir scan would adopt it into
        # the index, where eviction could delete it before *this* thread
        # records the entry
        size = os.path.getsize(built_path)
        with self._lock:
            entries = self._load_index_locked()
            os.replace(built_path, final)
            entries[key] = {"size": size, "flags": list(flags),
                            "compile_s": compile_s, "created": time.time(),
                            "ns": namespace or "default"}
            if memo is not None:
                self._note_memo_locked(key, entries[key], memo)
            self._evict_locked()
            self._save_index_locked()
        return final

    def _write_atomic(self, path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".src-")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)

    def make_temp(self, suffix: str = ".so.tmp") -> str:
        """A unique closed temp file inside the cache root (same filesystem
        as the final path, so ``os.replace`` is atomic)."""
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".build-",
                                   suffix=suffix)
        os.close(fd)
        return tmp

    # -- eviction / maintenance ---------------------------------------------
    def _evict_locked(self) -> list[str]:
        """Apply every configured limit (0 = none): drop the least recently
        used artifact — the oldest mtime — while the entry count or the
        bytes are over their cap."""
        entries = self._load_index_locked()
        evicted: list[str] = []
        total = sum(e.get("size", 0) for e in entries.values())

        def over() -> bool:
            return 0 < self.max_entries < len(entries) \
                or 0 < self.max_bytes < total

        if over():
            for key in sorted(entries, key=self._last_use):
                total -= entries[key].get("size", 0)
                self._drop_locked(key, entries, evicted)
                if not over():
                    break
        return evicted

    def _last_use(self, key: str) -> int:
        try:
            return os.stat(self.artifact_path(key)).st_mtime_ns
        except OSError:
            return 0

    def _drop_locked(self, key: str, entries: dict,
                     evicted: list[str]) -> None:
        for path in (self.artifact_path(key), self.source_path(key)):
            try:
                os.unlink(path)
            except OSError:
                pass
        del entries[key]
        evicted.append(key)

    def gc(self) -> dict:
        """Evict over-cap artifacts, drop stale index entries, and delete
        *orphaned* temp files; returns a summary.

        A temp file younger than ``temp_ttl_s`` may belong to an in-flight
        build in this or another process — deleting it would make that
        build's ``os.replace`` publish fail with ENOENT — so only temps
        older than the threshold are treated as orphans.
        """
        removed_tmp = 0
        now = time.time()
        with self._lock:
            self._index = None  # force a fresh scan
            entries = self._load_index_locked()
            evicted = self._evict_locked()
            for name in os.listdir(self.root):
                if name.startswith((".build-", ".src-", ".index-")) \
                        or name.endswith(".so.tmp"):
                    path = os.path.join(self.root, name)
                    try:
                        if now - os.stat(path).st_mtime < self.temp_ttl_s:
                            continue  # likely an in-flight build's temp
                        os.unlink(path)
                        removed_tmp += 1
                    except OSError:
                        pass
            self._save_index_locked()
            kept = len(entries)
        return {"evicted": len(evicted), "temp_files_removed": removed_tmp,
                "artifacts": kept}

    def clear(self) -> int:
        """Delete every cached artifact; returns how many were removed."""
        removed = 0
        with self._lock:
            self._index = None
            for name in os.listdir(self.root):
                if name == INDEX_NAME or name.startswith("unit_") \
                        or name.startswith((".build-", ".src-", ".index-")):
                    try:
                        os.unlink(os.path.join(self.root, name))
                        removed += 1
                    except OSError:
                        pass
            self._index = {}
            self._save_index_locked()
        return removed

    def summary(self) -> dict:
        with self._lock:
            entries = self._load_index_locked()
            total = sum(e.get("size", 0) for e in entries.values())
            namespaces: dict[str, int] = {}
            for e in entries.values():
                ns = e.get("ns", "default")
                namespaces[ns] = namespaces.get(ns, 0) + 1
            return {"root": self.root, "artifacts": len(entries),
                    "bytes_cached": total, "max_bytes": self.max_bytes,
                    "max_entries": self.max_entries,
                    "namespaces": namespaces}
