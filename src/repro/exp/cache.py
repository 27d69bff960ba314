"""Content-addressed on-disk result cache.

Layout (under ``.repro-cache/`` by default, or ``$REPRO_CACHE_DIR``)::

    .repro-cache/
        ab/
            ab3f...e9.json        # one file per point, named by its key

Each file stores the point's spec, the simulator version, and the
serialized :class:`~repro.sim.runner.WorkloadResult` — for an
``obs="trace"`` point that includes its trace payload, so a traced
point is one entry, written once.  Keys come from
:func:`repro.exp.spec.point_key`: a SHA-256 over the full point spec
plus ``repro.__version__``, so editing any parameter — or bumping the
package version — invalidates by construction.  Files are written
atomically (tmp + rename).  Only a missing entry is a miss; one that
exists but cannot be read or parsed is counted in
:attr:`ResultCache.corrupt` and named on stderr, then re-simulated and
overwritten like a miss — never an error.  A write that fails
(disk full, no permission) leaves no temporary file behind and raises
one :class:`CacheWriteError` naming the point and the entry.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.exp.spec import Point, point_key
from repro.sim.runner import WorkloadResult

#: default cache directory (relative to the current working directory)
DEFAULT_CACHE_DIR = ".repro-cache"

#: bump when the on-disk schema changes (independent of repro.__version__);
#: 3 keeps every mapping in insertion order, so a replay prints as the run
SCHEMA = 3

#: an entry's file name, its 64-hex-digit key: a schema-1 trace file
#: left beside it (``<key>.trace.json``) is not an entry
_ENTRY_NAME = "[0-9a-f]" * 64 + ".json"


class CacheWriteError(RuntimeError):
    """A point's result could not be stored: its label, its entry
    path and the operating system's reason, in one line."""


def default_cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class ResultCache:
    """Maps :class:`Point` -> :class:`WorkloadResult` on disk."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: entries that existed but could not be read or parsed
        self.corrupt = 0

    # ------------------------------------------------------------------
    def path_for(self, point: Point) -> Path:
        key = point_key(point)
        return self.root / key[:2] / f"{key}.json"

    def get(self, point: Point) -> Optional[WorkloadResult]:
        """Return the stored result for *point*, or None on a miss."""
        path = self.path_for(point)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema") != SCHEMA:
                raise ValueError(f"schema {payload.get('schema')}")
            result = WorkloadResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError
        ) as exc:
            self.corrupt += 1
            print(
                f"repro: corrupt cache entry {path} "
                f"({type(exc).__name__}: {exc}); re-simulating",
                file=sys.stderr,
            )
            return None
        self.hits += 1
        return result

    def put(self, point: Point, result: WorkloadResult) -> Path:
        """Store *result* for *point* atomically — a temporary file
        beside the entry, renamed over it, and removed if anything
        fails on the way; return the entry's path.  An ``OSError`` on
        the way is raised as :class:`CacheWriteError`."""
        from repro import __version__ as version

        path = self.path_for(point)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump({
                        "schema": SCHEMA,
                        "key": path.stem,
                        "version": version,
                        "spec": point.spec_dict(),
                        "result": result.to_dict(),
                    }, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise CacheWriteError(
                f"cannot write the cache entry of {point.label()} to "
                f"{path}: {exc.strerror or exc}"
            ) from exc
        return path

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every ``*.json`` file in the cache, leftovers of older
        schemas included; return how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in sorted(self.root.rglob("*.json")):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob(_ENTRY_NAME))
