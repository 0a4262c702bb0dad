"""Signoff orchestration: every checker, every stage, one report.

``run_signoff`` is the stage-gate entry point
:meth:`~repro.core.compiler.BISRAMGen.build` calls after assembly:

* **drc / leaf-cells** — every unique generated cell flat-checked once
  (content-hash cached across builds, see
  :mod:`repro.verify.hierdrc`);
* **drc / assembly** — composite cells checked at their abutment seams
  only;
* **lvs / assembly** — extracted connectivity of the assembled module
  against the configuration's intended netlist
  (:mod:`repro.verify.lvs`);
* **control / control** — TRPLA microprogram reachability, march
  round-trip, personality equivalence, and BISR TLB invariants
  (:mod:`repro.verify.control`).

``drc_report`` is the reduced sweep for geometry without port
annotations (a CIF file read back from disk), where only DRC is
meaningful.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.bist.march import IFA_9, MarchTest
from repro.bist.trpla import Trpla
from repro.core.stages import StageCache
from repro.layout.cell import Cell
from repro.tech.process import Process, get_process
from repro.verify.control import check_control
from repro.verify.hierdrc import HierDrcResult, hierarchical_drc
from repro.verify.lvs import check_connectivity
from repro.verify.report import (
    CheckResult,
    SignoffFinding,
    SignoffReport,
    drc_findings,
)


def _drc_results(hier: HierDrcResult, elapsed_s: float,
                 ) -> List[CheckResult]:
    """Split one hierarchical sweep into the two DRC stage verdicts."""
    leaf: List[SignoffFinding] = []
    for name, violations in sorted(hier.leaf_violations.items()):
        leaf.extend(drc_findings("leaf-cells", name, violations))
    assembly: List[SignoffFinding] = []
    for name, violations in sorted(hier.assembly_violations.items()):
        assembly.extend(drc_findings("assembly", name, violations))
    return [
        CheckResult(
            checker="drc", stage="leaf-cells",
            status="fail" if leaf else "pass",
            findings=leaf,
            stats=dict(hier.stats),
            elapsed_s=elapsed_s,
        ),
        CheckResult(
            checker="drc", stage="assembly",
            status="fail" if assembly else "pass",
            findings=assembly,
            stats={"composite_checks": hier.stats.get("composite_checks"),
                   "halo_cu": hier.stats.get("halo_cu")},
            elapsed_s=0.0,  # covered by the leaf-cells sweep timing
        ),
    ]


def run_signoff(
    compiled,
    march: MarchTest = IFA_9,
    cache: Optional[StageCache] = None,
    trpla: Optional[Trpla] = None,
    max_findings: int = 200,
) -> SignoffReport:
    """Run the full signoff sweep over a :class:`CompiledRam`.

    Args:
        compiled: the compiler's output (``config`` + ``floorplan``).
        march: the march test the control stage validates against.
        cache: DRC verdict cache (defaults to the process-wide one).
        trpla: a personality read back from plane files, to verify the
            artifact instead of the in-memory assembly.
        max_findings: per-checker finding budget.
    """
    config = compiled.config
    process = get_process(config.process)
    report = SignoffReport(
        config_label=config.describe(), process=config.process)

    t0 = time.perf_counter()
    hier = hierarchical_drc(
        compiled.floorplan.top, process,
        cache=cache, max_violations=max_findings,
    )
    report.results.extend(_drc_results(hier, time.perf_counter() - t0))

    t0 = time.perf_counter()
    lvs_findings, lvs_stats = check_connectivity(
        compiled.floorplan.top, config, process,
        max_findings=max_findings,
    )
    report.results.append(CheckResult(
        checker="lvs", stage="assembly",
        status="fail" if lvs_findings else "pass",
        findings=lvs_findings, stats=lvs_stats,
        elapsed_s=time.perf_counter() - t0,
    ))

    t0 = time.perf_counter()
    control_findings, control_stats = check_control(
        march=march, trpla=trpla, spares=config.spares)
    control_findings = control_findings[:max_findings]
    report.results.append(CheckResult(
        checker="control", stage="control",
        status="fail" if control_findings else "pass",
        findings=control_findings, stats=control_stats,
        elapsed_s=time.perf_counter() - t0,
    ))
    return report


def drc_report(
    cell: Cell,
    process: Process,
    label: str = "",
    cache: Optional[StageCache] = None,
    max_findings: int = 200,
) -> SignoffReport:
    """DRC-only signoff of bare geometry (e.g. a CIF file read back).

    CIF carries no port annotations, so connectivity extraction is
    meaningless there; the report contains the two DRC stages only.
    """
    report = SignoffReport(
        config_label=label or cell.name, process=process.name)
    t0 = time.perf_counter()
    hier = hierarchical_drc(
        cell, process, cache=cache, max_violations=max_findings)
    report.results.extend(_drc_results(hier, time.perf_counter() - t0))
    return report
