"""Signoff guardrails: hierarchical DRC, LVS-lite, control validation.

The subsystem the compiler runs as stage gates after assembly — see
:func:`~repro.verify.signoff.run_signoff` for the orchestration and
:mod:`repro.verify.report` for the structured report every checker
feeds.
"""

from repro.verify.control import (
    check_bisr_invariants,
    check_control,
    check_march_roundtrip,
    check_personality,
    check_reachability,
)
from repro.verify.hierdrc import (
    HierDrcResult,
    cell_hash,
    default_cache,
    hierarchical_drc,
)
from repro.verify.lvs import (
    check_connectivity,
    extract_nets,
    intended_netlist,
)
from repro.verify.report import (
    EXIT_CODES,
    FAILURE_CLASSES,
    CheckResult,
    SignoffFinding,
    SignoffReport,
    drc_findings,
)
from repro.verify.signoff import drc_report, run_signoff

__all__ = [
    "EXIT_CODES",
    "FAILURE_CLASSES",
    "CheckResult",
    "HierDrcResult",
    "SignoffFinding",
    "SignoffReport",
    "cell_hash",
    "check_bisr_invariants",
    "check_connectivity",
    "check_control",
    "check_march_roundtrip",
    "check_personality",
    "check_reachability",
    "default_cache",
    "drc_findings",
    "drc_report",
    "extract_nets",
    "hierarchical_drc",
    "intended_netlist",
    "run_signoff",
]
