"""Content-addressed on-disk result cache.

Layout (under ``.repro-cache/`` by default, or ``$REPRO_CACHE_DIR``)::

    .repro-cache/
        ab/
            ab3f...e9.json        # one file per point, named by its key
            ab3f...e9.trace.json  # named artifact beside the result

Each result file stores the point's spec, the simulator version, and
the serialized :class:`~repro.sim.runner.WorkloadResult`.  Observability
runs additionally persist named *artifacts* (the trace event payload)
next to the result under ``<key>.<name>.json``.  Keys come from
:func:`repro.exp.spec.point_key`: a SHA-256 over the full point spec
plus ``repro.__version__``, so editing any parameter — or bumping the
package version — invalidates by construction.  Files are written
atomically (tmp + rename).  Only a missing entry is a miss; one that
exists but cannot be read or parsed is counted in
:attr:`ResultCache.corrupt` and named on stderr, then re-simulated and
overwritten like a miss — never an error.
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

#: bump when the on-disk schema changes (independent of repro.__version__)
SCHEMA = 1


def default_cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def _write_json(path: Path, payload: dict) -> Path:
    """Write *payload* to *path* atomically: a temporary file beside it,
    renamed over it, and removed if anything fails on the way."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


class ResultCache:
    """Maps :class:`Point` -> :class:`WorkloadResult` on disk."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: entries that existed but could not be read or parsed
        self.corrupt = 0

    # ------------------------------------------------------------------
    def path_for(self, point: Point, version: str | None = None) -> Path:
        key = point_key(point, version=version)
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, point: Point, version: str | None = None
    ) -> Optional[WorkloadResult]:
        """Return the stored result for *point*, or None on a miss."""
        path = self.path_for(point, version=version)
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
            self._report_corrupt(path, exc)
            return None
        self.hits += 1
        return result

    def _report_corrupt(self, path: Path, exc: Exception) -> None:
        self.corrupt += 1
        print(
            f"repro: corrupt cache entry {path} "
            f"({type(exc).__name__}: {exc}); re-simulating",
            file=sys.stderr,
        )

    def put(
        self,
        point: Point,
        result: WorkloadResult,
        version: str | None = None,
    ) -> Path:
        """Store *result* for *point* atomically; return the path."""
        if version is None:
            from repro import __version__ as version
        path = self.path_for(point, version=version)
        return _write_json(path, {
            "schema": SCHEMA,
            "key": path.stem,
            "version": version,
            "spec": point.spec_dict(),
            "result": result.to_dict(),
        })

    # ------------------------------------------------------------------
    # Named artifacts (trace payloads etc.) beside the result entry
    # ------------------------------------------------------------------
    def artifact_path_for(
        self, point: Point, name: str, version: str | None = None
    ) -> Path:
        key = point_key(point, version=version)
        return self.root / key[:2] / f"{key}.{name}.json"

    def get_artifact(
        self, point: Point, name: str, version: str | None = None
    ) -> Optional[dict]:
        """Return the named artifact for *point*, or None on a miss."""
        path = self.artifact_path_for(point, name, version=version)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("artifact is not an object")
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._report_corrupt(path, exc)
            return None
        return payload

    def put_artifact(
        self,
        point: Point,
        name: str,
        payload: dict,
        version: str | None = None,
    ) -> Path:
        """Store *payload* as the named artifact atomically."""
        return _write_json(
            self.artifact_path_for(point, name, version=version), payload
        )

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cached entry; return how many were removed."""
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
        return sum(1 for _ in self.root.rglob("*.json"))
