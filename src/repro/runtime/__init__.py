"""Crash-safe parallel campaign runtime.

* :mod:`~repro.runtime.runner` — the campaign runner: seed-sharded
  task units fed by ``workers`` threads to the supervised pool, and
  graceful degradation into a :class:`CampaignResult`,
* :mod:`~repro.runtime.journal` — the checkpoint journal behind
  ``--checkpoint`` / ``--resume``, a record schema on the durable
  :class:`~repro.core.durability.JsonlLog`,
* :mod:`~repro.runtime.drivers` — the sharded workloads: Monte-Carlo
  yield, supervised fault-injection repair, SPICE sizing sweeps,
* :mod:`~repro.runtime.supervision` — :class:`SupervisedPool`, the one
  process pool (slots, deadlines, retry policy, crash blame and
  quarantine, innocent requeues, pool teardown) shared with the
  service tier's process-pool build backend.
"""

from repro.runtime.journal import CheckpointJournal, fingerprint_digest
from repro.runtime.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignSpec,
    ShardOutcome,
    ShardSpec,
)
from repro.runtime.supervision import (
    CrashBlame,
    RetryPolicy,
    SupervisedPool,
    classify_error,
    terminate_pool,
)

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CheckpointJournal",
    "CrashBlame",
    "RetryPolicy",
    "ShardOutcome",
    "ShardSpec",
    "SupervisedPool",
    "classify_error",
    "fingerprint_digest",
    "terminate_pool",
]
