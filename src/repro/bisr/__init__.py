"""Built-in self-repair.

* :mod:`~repro.bisr.tlb` — the translation lookaside buffer: parallel
  CAM compare of the incoming row address against all stored faulty
  addresses, with the strictly increasing spare-assignment rule,
* :mod:`~repro.bisr.repair` — repair bookkeeping and the
  "Repair Unsuccessful" analysis,
* :mod:`~repro.bisr.delay` — the TLB delay-penalty model (the paper
  quotes about 1.2 ns at 0.7 um with four spare rows),
* :mod:`~repro.bisr.masking` — the three circuit techniques for hiding
  that penalty inside the RAM cycle,
* :mod:`~repro.bisr.target` — the forwarding base of every test-target
  view and the one write-all/read-all sweep.
"""

from repro.bisr.tlb import Tlb, TlbEntry
from repro.bisr.repair import RepairAnalysis, analyze_repair
from repro.bisr.colsteer import (
    ColumnSteer,
    ColumnSteerEntry,
    ColumnSteerDelayModel,
    colsteer_delay_s,
)
from repro.bisr.allocate import (
    RepairPlan,
    allocate,
    repair_plan_from_dict,
    sequence_spares_consumed,
)
from repro.bisr.escalation import (
    AttemptRecord,
    DegradedResult,
    EscalationPolicy,
    RepairSupervisor,
    SupervisorResult,
    supervisor_result_from_dict,
)
from repro.bisr.delay import tlb_delay_s, tlb_delay_breakdown, TlbDelayModel
from repro.bisr.masking import (
    MaskingStrategy,
    AsyncPrechargeOverlap,
    SyncAddressRegisterOverlap,
    DecoderUpsizing,
    best_masking_strategy,
)

__all__ = [
    "Tlb",
    "TlbEntry",
    "RepairAnalysis",
    "analyze_repair",
    "ColumnSteer",
    "ColumnSteerEntry",
    "ColumnSteerDelayModel",
    "colsteer_delay_s",
    "RepairPlan",
    "allocate",
    "repair_plan_from_dict",
    "sequence_spares_consumed",
    "AttemptRecord",
    "DegradedResult",
    "EscalationPolicy",
    "RepairSupervisor",
    "SupervisorResult",
    "supervisor_result_from_dict",
    "tlb_delay_s",
    "tlb_delay_breakdown",
    "TlbDelayModel",
    "MaskingStrategy",
    "AsyncPrechargeOverlap",
    "SyncAddressRegisterOverlap",
    "DecoderUpsizing",
    "best_masking_strategy",
]
