"""Content-addressed on-disk result cache.

Results live under ``<root>/<code-salt>/<hh>/<hash>.json`` where
``hash`` is the :meth:`JobSpec.content_hash` and ``code-salt`` digests
every ``.py`` file of the :mod:`repro` package — editing any simulator
source invalidates the whole cache tier rather than serving results
computed by old code.

Entries are written atomically (temp file + ``os.replace``) so an
interrupted batch never leaves a half-written JSON behind; reads treat
any unreadable, unparsable, or spec-mismatched entry as a miss and let
the runner recompute.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runner.spec import JobSpec

#: default cache location, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: bump to invalidate caches across payload-format changes
PAYLOAD_VERSION = 1

#: per-root file recording the last run's hit/miss counts
STATS_FILE = "stats.json"


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the repro package sources (the cache's version key)."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"payload-v{PAYLOAD_VERSION}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Get/put of job payloads, keyed by spec content hash."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: JobSpec) -> str:
        digest = spec.content_hash()
        return os.path.join(self.root, code_salt(), digest[:2], f"{digest}.json")

    def get(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The cached payload for ``spec``, or None on any kind of miss."""
        path = self.path_for(spec)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        # the spec echo guards against hash collisions and hand-edited files
        if (
            not isinstance(payload, dict)
            or "kind" not in payload
            or "data" not in payload
            or entry.get("spec") != spec.canonical()
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, spec: JobSpec, payload: Dict[str, Any]) -> None:
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"spec": spec.canonical(), "payload": payload}
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance (stats / eviction, the `repro cache` surface) ------

    def _entries(self) -> List[Tuple[str, int, float]]:
        """Every entry as ``(path, bytes, mtime)``; unreadable files are
        skipped (a concurrent GC or writer may race us)."""
        entries: List[Tuple[str, int, float]] = []
        if not os.path.isdir(self.root):
            return entries
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".json") or name == STATS_FILE:
                    continue
                path = os.path.join(dirpath, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((path, info.st_size, info.st_mtime))
        return entries

    def stats(self) -> Dict[str, Any]:
        """Cache-wide stats plus the last recorded run's hit rate
        (``last_batch``).

        ``stale_entries`` counts results keyed by an old code salt —
        still on disk, but unreachable until a GC sweeps them."""
        current = os.path.join(self.root, code_salt())
        entries = self._entries()
        stale = [p for p, _, _ in entries if not p.startswith(current + os.sep)]
        out: Dict[str, Any] = {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "stale_entries": len(stale),
            "code_salt": code_salt(),
            "last_batch": None,
        }
        try:
            with open(os.path.join(self.root, STATS_FILE)) as fh:
                out["last_batch"] = json.load(fh)
        except (OSError, ValueError):
            pass
        return out

    def record_run(self, jobs: int, cached: int, executed: int) -> None:
        """Persist a run's hit/miss counts so far next to the entries,
        so ``repro cache`` can report a hit rate without re-running.
        A nested runner records its own share first; the parent's record,
        which includes it, overwrites it when the parent's batch ends."""
        if jobs <= 0:
            return
        os.makedirs(self.root, exist_ok=True)
        record = {
            "jobs": jobs,
            "cached": cached,
            "executed": executed,
            "hit_rate": cached / jobs,
        }
        # a temp file of its own: the nested runners of concurrent pool
        # workers record into the same root
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-", suffix=".stats")
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh)
        os.replace(tmp, os.path.join(self.root, STATS_FILE))

    def gc(
        self,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evict entries by age and/or total size; returns a summary.

        Stale-salt entries (results of old code) are always removed —
        nothing can ever read them again.  Then entries older than
        ``max_age_s`` go, then oldest-first until the survivors fit in
        ``max_bytes``.  Empty directories are pruned afterwards.
        """
        if now is None:
            now = time.time()
        current = os.path.join(self.root, code_salt())
        entries = self._entries()
        removed = 0
        freed = 0
        survivors: List[Tuple[str, int, float]] = []
        for path, size, mtime in entries:
            stale = not path.startswith(current + os.sep)
            expired = max_age_s is not None and now - mtime > max_age_s
            if stale or expired:
                if self._unlink(path):
                    removed += 1
                    freed += size
            else:
                survivors.append((path, size, mtime))
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            # oldest first, so the entries most likely to hit survive
            for path, size, _ in sorted(survivors, key=lambda e: e[2]):
                if total <= max_bytes:
                    break
                if self._unlink(path):
                    removed += 1
                    freed += size
                    total -= size
            survivors = [e for e in survivors if os.path.exists(e[0])]
        self._prune_empty_dirs()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_entries": len(survivors),
            "remaining_bytes": sum(size for _, size, _ in survivors),
        }

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _prune_empty_dirs(self) -> None:
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, _filenames in os.walk(self.root, topdown=False):
            if dirpath == self.root:
                continue
            try:
                os.rmdir(dirpath)  # fails (and is kept) unless empty
            except OSError:
                pass
