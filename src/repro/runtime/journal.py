"""Append-only JSONL checkpoint journal for campaign runs.

A campaign that takes hours must survive a Ctrl-C, an OOM kill, or a
power cut with nothing worse than losing the shard that was mid-write.
The journal is a record schema on :class:`~repro.core.durability.JsonlLog`,
which owns the file format (versioned header, fsynced appends, torn-tail
forgiveness, mid-file refusal, atomic rewrite):

* The **header** carries a digest of the campaign fingerprint — name,
  shard count, seed, parameters, task identity.  Resuming against a
  journal whose digest disagrees is refused with a
  :class:`~repro.core.errors.ConfigError`: silently mixing shards from
  two different campaigns is the one corruption this format cannot
  detect after the fact.
* Each **shard** record is appended once the shard reaches a final
  state (ok / failed / quarantined) and must carry an int ``index``.

The journal never stores derived aggregates: resume re-reduces from the
per-shard results, so a resumed campaign is bit-identical to an
uninterrupted one by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.canonical import stable_digest
from repro.core.durability import JsonlLog
from repro.core.errors import ConfigError

JOURNAL_VERSION = 1


def fingerprint_digest(fingerprint: Mapping) -> str:
    """Stable short digest of a campaign fingerprint mapping.

    The same canonical-JSON -> SHA-256 recipe as
    :meth:`~repro.core.config.RamConfig.digest` and the artifact
    store's bundle keys (:func:`repro.core.canonical.stable_digest`),
    truncated to the journal header's historical 16 characters.
    """
    return stable_digest(dict(fingerprint), 16)


class CheckpointJournal:
    """One campaign's checkpoint file.

    Usage: ``prior = journal.open(fingerprint, resume=...)`` returns the
    already-final shard payloads keyed by shard index (empty unless
    resuming), then ``journal.record(payload)`` appends each newly
    finalised shard, and ``journal.close()`` releases the handle.
    """

    def __init__(self, path) -> None:
        self._log = JsonlLog(path, JOURNAL_VERSION, "checkpoint",
                             types=("shard",))
        self.path = self._log.path

    def open(self, fingerprint: Mapping,
             resume: bool = False) -> Dict[int, dict]:
        """Create (or reopen) the journal; return journaled shards."""
        digest = fingerprint_digest(fingerprint)
        if not (resume and self.path.exists()):
            self._log.rewrite(digest=digest, campaign=dict(fingerprint))
            return {}
        prior = self._load(digest)
        self._log.reopen()
        return prior

    def record(self, payload: Mapping) -> None:
        """Append one finalised shard; durable once this returns."""
        if not self._log.is_open:
            raise ConfigError("journal.record() before journal.open()")
        self._log.append({"type": "shard", **payload})

    def close(self) -> None:
        self._log.close()

    def _load(self, digest: str) -> Dict[int, dict]:
        loaded = self._log.load()
        if loaded is None:
            raise ConfigError(
                f"checkpoint {self.path} has no complete header line; "
                f"rerun without --resume")
        header, records = loaded
        if header.get("digest") != digest:
            raise ConfigError(
                f"checkpoint {self.path} belongs to a different campaign "
                f"(digest {header.get('digest')!r}, expected {digest!r}); "
                f"refusing to resume"
            )
        shards: Dict[int, dict] = {}
        for record in records:
            payload = {k: v for k, v in record.items() if k != "type"}
            index = payload.get("index")
            if not isinstance(index, int) or isinstance(index, bool):
                raise ConfigError(
                    f"checkpoint {self.path} has a shard record without "
                    f"an int index: {index!r}")
            shards[index] = payload  # the last record for an index wins
        return shards
