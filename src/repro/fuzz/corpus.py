"""Corpus persistence for fuzz campaigns (``.repro-fuzz/``).

The corpus is the one durable record of what the fuzzer has screened.
Every key — the generator configuration, the machine-config override,
the injected fault, and ``repro.__version__`` — owns one
append-only JSONL file, ``<key>.jsonl``, one line per verdict.  A
campaign appends, flushes and fsyncs each line the moment
:func:`repro.fuzz.diff.run_case` returns, so an interrupted campaign
loses at most the seeds in flight, and running the same command again
resumes it.  A fault exercise or a bounded-capacity run records under
its own key and can never make a plain seed clean; a version bump
reads fresh files and leaves the old ones untouched.

Loading folds the lines in order with the :meth:`Corpus.record` merge
rule: one verdict per ``nthreads`` (a 4-thread verdict never clobbers
an 8-thread one), a clean verdict unions its backends into a clean
predecessor, and a diverging verdict replaces what was there.  A final
line without its newline is what a kill mid-append leaves: it is
ignored, and cut off before the next append.  Any other line that does
not parse raises :class:`CampaignError` naming the file and line;
nothing rewrites or drops a corpus file.

Diverging cases are additionally saved whole (gene lists, not just
seeds) under ``diverging/`` so a divergence survives generator
changes that would re-expand the seed differently.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro import __version__
from repro.fuzz.gen import FuzzCase, GeneratorConfig, config_hash
from repro.sim.config import MachineConfig

DEFAULT_ROOT = Path(".repro-fuzz")


class CampaignError(RuntimeError):
    """A campaign cannot run: a corpus file is corrupt."""


def _fold(seeds: dict, line: dict) -> None:
    """Merge one verdict line into ``seed -> nthreads -> verdict``."""
    entry = seeds.setdefault(line["seed"], {})
    prior = entry.get(line["nthreads"])
    backends = set(line["backends"])
    if line["ok"] and prior and prior["ok"]:
        backends |= set(prior["backends"])
    verdict: dict = {"ok": line["ok"], "backends": sorted(backends)}
    if line.get("divergences"):
        verdict["divergences"] = line["divergences"]
    entry[line["nthreads"]] = verdict


class Corpus:
    """Screening verdicts for one campaign setting, per generator
    configuration."""

    def __init__(
        self,
        root: Path = DEFAULT_ROOT,
        machine: Optional[MachineConfig] = None,
        fault: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self._setting = {
            "machine": asdict(machine) if machine is not None else None,
            "fault": fault,
        }
        self._loaded: dict[Path, dict] = {}
        #: path -> length of its whole lines, for a log with a torn tail
        self._torn: dict[Path, int] = {}

    # ------------------------------------------------------------------
    def _path(self, config: GeneratorConfig) -> Path:
        key = dict(
            self._setting, generator=config_hash(config), version=__version__
        )
        blob = json.dumps(key, sort_keys=True, default=list)
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        return self.root / f"{digest}.jsonl"

    def _load(self, path: Path) -> dict:
        seeds: dict = {}
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return seeds
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            self._torn[path] = whole
        for number, raw in enumerate(data[:whole].splitlines(), 1):
            try:
                _fold(seeds, json.loads(raw))
            except (ValueError, KeyError, TypeError) as exc:
                raise CampaignError(
                    f"{path}:{number}: corrupt corpus line ({exc})"
                ) from None
        return seeds

    def verdicts(self, config: GeneratorConfig) -> dict:
        """Every folded verdict for *config*: ``seed -> nthreads ->
        {"ok", "backends"[, "divergences"]}``."""
        path = self._path(config)
        if path not in self._loaded:
            self._loaded[path] = self._load(path)
        return self._loaded[path]

    # ------------------------------------------------------------------
    def is_clean(
        self,
        config: GeneratorConfig,
        seed: int,
        backends: tuple,
        nthreads: int,
    ) -> bool:
        """True if *seed* already screened clean against (at least)
        *backends* at this thread count."""
        verdict = self.verdicts(config).get(seed, {}).get(nthreads)
        return bool(
            verdict
            and verdict["ok"]
            and set(backends) <= set(verdict["backends"])
        )

    def record(
        self,
        config: GeneratorConfig,
        seed: int,
        ok: bool,
        backends: tuple,
        nthreads: int,
        divergences: Optional[list] = None,
    ) -> None:
        """Durably append one verdict, keyed per thread count.

        Verdicts at other thread counts are untouched — a seed
        screened clean at ``nthreads=4`` survives an ``nthreads=8``
        campaign.  Re-recording a clean verdict at the same thread
        count unions the backend sets (each backend's differential
        signals are independent of the others in the run), so
        screening ``eager`` then ``stm`` accumulates into one verdict
        clean for both.  The line is on disk when this returns.
        """
        line: dict = {
            "seed": seed,
            "nthreads": nthreads,
            "ok": ok,
            "backends": sorted(backends),
        }
        if divergences:
            line["divergences"] = [
                d if isinstance(d, dict) else d.to_dict()
                for d in divergences
            ]
        seeds = self.verdicts(config)
        path = self._path(config)
        self.root.mkdir(parents=True, exist_ok=True)
        with path.open("ab") as log:
            if path in self._torn:
                log.truncate(self._torn.pop(path))
            log.write(json.dumps(line, sort_keys=True).encode() + b"\n")
            log.flush()
            os.fsync(log.fileno())
        _fold(seeds, line)

    def unscreened(
        self,
        config: GeneratorConfig,
        backends: tuple,
        nthreads: int,
        count: int,
    ) -> list[int]:
        """The *count* lowest seeds with no verdict, clean or diverging,
        covering *backends* at this thread count (for open-ended
        batches: gaps an interrupted batch left come first)."""
        seeds = self.verdicts(config)
        wanted = set(backends)
        found: list[int] = []
        seed = 0
        while len(found) < count:
            verdict = seeds.get(seed, {}).get(nthreads)
            if not verdict or not wanted <= set(verdict["backends"]):
                found.append(seed)
            seed += 1
        return found

    # ------------------------------------------------------------------
    def save_diverging(self, case: FuzzCase, divergences: list) -> Path:
        """Persist a diverging case in full under ``diverging/``."""
        from repro.fuzz.shrink import case_id

        directory = self.root / "diverging"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"case_{case_id(case)}.json"
        path.write_text(
            json.dumps(
                {
                    "version": __version__,
                    "case": case.to_dict(),
                    "divergences": [d.to_dict() for d in divergences],
                },
                indent=1,
                sort_keys=True,
            )
        )
        return path
