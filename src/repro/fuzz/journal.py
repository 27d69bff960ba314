"""Append-only campaign journals (``.repro-fuzz/journals/``).

A journaled campaign (``repro fuzz --campaign <id>``) records every
decision it makes as one JSON line in
``<corpus>/journals/<id>.jsonl`` — the transaction-manager /
audit-log discipline the ROADMAP asks for:

* ``campaign`` — the header: campaign id, ``repro`` version, and a
  fingerprint of every correctness-affecting option (profiles,
  backends, thread count, fault, machine-config override).  Resuming
  with different options is refused rather than silently mixing
  incompatible verdicts.
* ``batch`` — the seeds issued to one batch, per profile, *before*
  any of them runs.
* ``verdict`` — one differential verdict: ok flag, backends, thread
  count, divergences, and whether it came from a fresh run or was
  skipped via the corpus.  Appended (and flushed to disk) the moment
  the verdict exists, before the corpus file is rewritten — the
  journal is the write-ahead log, the corpus the checkpoint.
* ``batch-done`` / ``resumed`` — batch boundaries and resume points.

On ``--resume`` the journal is replayed: recorded verdicts are
restored into the in-memory corpus (so none of those seeds is ever
re-screened, even if the interrupt landed between a verdict and the
corpus flush), and seeds that were issued but never verdicted become
the first batch of the resumed run.  A torn final line — the usual
signature of a hard kill mid-append — is ignored; everything before
it is intact by construction.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import __version__


class CampaignError(RuntimeError):
    """A campaign cannot run as requested (bad resume, stale journal)."""


class CampaignJournal:
    """One campaign's append-only JSONL audit log."""

    def __init__(self, root: Path, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.path = Path(root) / "journals" / f"{campaign_id}.jsonl"
        self._fh = None
        self._records: list[dict] | None = None

    # -- low-level log ------------------------------------------------
    def exists(self) -> bool:
        return self.path.is_file()

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._records is not None:
            self._records.append(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def records(self) -> list[dict]:
        """Every intact record, oldest first (torn tail ignored)."""
        if self._records is None:
            records: list[dict] = []
            if self.path.is_file():
                for line in self.path.read_text().splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        # A partial line can only be the interrupted
                        # final append; nothing after it is trusted.
                        break
            self._records = records
        return self._records

    # -- header / resume ----------------------------------------------
    def begin(self, fingerprint: dict) -> None:
        self.append(
            {
                "t": "campaign",
                "id": self.campaign_id,
                "repro_version": __version__,
                "fingerprint": fingerprint,
            }
        )

    def resume_check(self, fingerprint: dict) -> None:
        """Validate the journal against *fingerprint*; mark the resume."""
        if not self.exists():
            raise CampaignError(
                f"no journal for campaign {self.campaign_id!r} "
                f"(expected {self.path})"
            )
        header = next(
            (r for r in self.records() if r.get("t") == "campaign"), None
        )
        if header is None:
            raise CampaignError(
                f"journal {self.path} has no campaign header"
            )
        if header.get("repro_version") != __version__:
            raise CampaignError(
                f"journal {self.path} was written by repro "
                f"{header.get('repro_version')!r}, this is {__version__}; "
                f"start a fresh campaign"
            )
        if header.get("fingerprint") != fingerprint:
            raise CampaignError(
                f"campaign {self.campaign_id!r} options do not match its "
                f"journal (profiles/backends/threads/fault/config must be "
                f"identical to resume)"
            )
        self.append({"t": "resumed"})

    # -- typed emitters ------------------------------------------------
    def batch(self, index: int, seeds_by_profile: dict) -> None:
        self.append(
            {
                "t": "batch",
                "n": index,
                "seeds": {
                    profile: list(seeds)
                    for profile, seeds in seeds_by_profile.items()
                },
            }
        )

    def batch_done(self, index: int) -> None:
        self.append({"t": "batch-done", "n": index})

    def verdict(
        self,
        profile: str,
        seed: int,
        ok: bool,
        nthreads: int,
        backends: tuple,
        divergences: list | None = None,
        source: str = "run",
    ) -> None:
        record = {
            "t": "verdict",
            "profile": profile,
            "seed": seed,
            "ok": ok,
            "nthreads": nthreads,
            "backends": sorted(backends),
            "source": source,
        }
        if divergences:
            record["divergences"] = [
                d if isinstance(d, dict) else d.to_dict()
                for d in divergences
            ]
        self.append(record)

    # -- replay views --------------------------------------------------
    def verdicts(self) -> list[dict]:
        return [r for r in self.records() if r.get("t") == "verdict"]

    def verdicted(self) -> set:
        """The (profile, seed) pairs that already have a verdict."""
        return {(v["profile"], v["seed"]) for v in self.verdicts()}

    def pending(self) -> dict:
        """Issued-but-unverdicted seeds per profile (the interrupted
        batch tail a resumed campaign must run first)."""
        issued: dict[str, list[int]] = {}
        for record in self.records():
            if record.get("t") != "batch":
                continue
            for profile, seeds in record.get("seeds", {}).items():
                bucket = issued.setdefault(profile, [])
                for seed in seeds:
                    if seed not in bucket:
                        bucket.append(seed)
        done = self.verdicted()
        pending = {
            profile: [s for s in seeds if (profile, s) not in done]
            for profile, seeds in issued.items()
        }
        return {p: seeds for p, seeds in pending.items() if seeds}

    def batches_done(self) -> int:
        return sum(1 for r in self.records() if r.get("t") == "batch-done")
