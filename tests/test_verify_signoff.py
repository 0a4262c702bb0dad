"""Signoff subsystem: reports, hierarchical DRC, stage gates, CLI codes."""

import io
import json
import sys
import threading

import pytest

from repro.core.compiler import BISRAMGen, compile_ram
from repro.core.config import RamConfig
from repro.core.errors import ConfigError, SignoffError
from repro.core.stages import StageCache
from repro.geometry import Rect
from repro.layout.cell import Cell
from repro.layout.cif import read_cif, write_cif
from repro.layout.drc import DrcViolation
from repro.tech import get_process
from repro.verify import (
    EXIT_CODES,
    CheckResult,
    SignoffFinding,
    SignoffReport,
    cell_hash,
    drc_report,
    hierarchical_drc,
    run_signoff,
)

PROCESS = get_process("cda07")
LAM = PROCESS.lambda_cu
CONFIG = RamConfig(words=64, bpw=8, bpc=4, spares=4, process="cda07")


@pytest.fixture(scope="module")
def compiled():
    return compile_ram(CONFIG)


@pytest.fixture(scope="module")
def clean_report(compiled):
    return run_signoff(compiled)


class TestReportModel:
    def _finding(self):
        return SignoffFinding(
            checker="drc", stage="assembly", kind="drc-violation",
            subject="array/metal2", message="too close",
            data={"cell": "array"},
        )

    def test_finding_round_trip(self):
        f = self._finding()
        assert SignoffFinding.from_dict(
            json.loads(json.dumps(f.to_dict()))) == f

    def test_report_round_trip(self):
        report = SignoffReport(
            config_label="cfg", process="cda07",
            results=[CheckResult(
                checker="drc", stage="assembly", status="fail",
                findings=[self._finding()], stats={"n": 1},
                elapsed_s=0.5,
            )],
        )
        back = SignoffReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert back.clean is False
        assert back.failure_class == "drc"
        assert back.findings()[0] == self._finding()

    def test_failure_class_priority(self):
        def result(checker):
            return CheckResult(checker=checker, stage="s", status="fail")

        report = SignoffReport("c", "p", [result("control"), result("lvs")])
        assert report.failure_class == "lvs"
        report.results.append(result("drc"))
        assert report.failure_class == "drc"

    def test_exit_codes_distinct(self):
        assert EXIT_CODES == {"drc": 3, "lvs": 4, "control": 5}
        clean = SignoffReport("c", "p", [])
        assert clean.exit_code == 0

    def test_drc_violation_round_trip(self):
        v = DrcViolation("min-space", "metal1", 70, 105, Rect(0, 1, 2, 3))
        assert DrcViolation.from_dict(
            json.loads(json.dumps(v.to_dict()))) == v


class TestHierarchicalDrc:
    def test_clean_macro(self, compiled, clean_report):
        assert clean_report.clean
        assert clean_report.exit_code == 0
        stages = {(r.checker, r.stage) for r in clean_report.results}
        assert stages == {("drc", "leaf-cells"), ("drc", "assembly"),
                          ("lvs", "assembly"), ("control", "control")}

    def test_cache_hit_rate_warm(self, compiled):
        cache = StageCache()
        cold = hierarchical_drc(compiled.floorplan.top, PROCESS, cache=cache)
        warm = hierarchical_drc(compiled.floorplan.top, PROCESS, cache=cache)
        assert cold.clean and warm.clean
        assert cold.stats["cache_hit_rate"] == 0.0
        assert warm.stats["cache_hit_rate"] == 1.0
        assert warm.stats["leaf_checks"] == 0

    def test_default_cache_stays_within_its_cap(self, compiled):
        from repro.verify import hierdrc

        cache = hierdrc.default_cache
        try:
            for n in range(hierdrc.DRC_CACHE_ENTRIES + 10):
                cache.store("drc", f"filler-{n}", ())
            assert len(cache) <= hierdrc.DRC_CACHE_ENTRIES
            result = hierarchical_drc(compiled.floorplan.top, PROCESS)
            assert result.clean
            assert len(cache) <= hierdrc.DRC_CACHE_ENTRIES
        finally:
            cache.clear()

    def test_threads_sharing_a_cache_count_their_own_lookups(
            self, compiled):
        """Each sweep reports the lookups it made, one per unique cell,
        however the other sweeps on the shared cache interleave."""
        cache = StageCache()
        threads_n = 4
        barrier = threading.Barrier(threads_n)
        stats = [None] * threads_n

        def sweep(k):
            barrier.wait(timeout=30)
            stats[k] = hierarchical_drc(compiled.floorplan.top, PROCESS,
                                        cache=cache).stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(k,))
                       for k in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for one in stats:
            assert one["cache_hits"] + one["cache_misses"] \
                == one["unique_cells"]

    def test_content_hash_ignores_names(self):
        a, b = Cell("one"), Cell("two")
        for c in (a, b):
            c.add_shape("metal1", Rect(0, 0, 10, 10))
        assert cell_hash(a) == cell_hash(b)
        b.add_shape("metal1", Rect(20, 0, 30, 10))
        assert cell_hash(a) != cell_hash(b)

    def test_dirty_leaf_attributed(self):
        leaf = Cell("dirty_leaf")
        leaf.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        leaf.add_shape("metal1", Rect(4 * LAM, 0, 7 * LAM, 3 * LAM))
        top = Cell("top")
        top.add_instance(leaf)
        result = hierarchical_drc(top, PROCESS, cache=StageCache())
        assert list(result.leaf_violations) == ["dirty_leaf"]
        assert not result.assembly_violations

    def test_seam_violation_attributed_to_assembly(self):
        from repro.geometry import Point, Transform

        leaf = Cell("clean_leaf")
        leaf.add_shape("metal1", Rect(0, 0, 3 * LAM, 3 * LAM))
        top = Cell("top")
        top.add_instance(leaf)
        # Second instance placed within min-space of the first.
        top.add_instance(
            leaf, Transform(translation=Point(4 * LAM, 0)))
        result = hierarchical_drc(top, PROCESS, cache=StageCache())
        assert not result.leaf_violations
        assert list(result.assembly_violations) == ["top"]
        v = result.assembly_violations["top"][0]
        assert v.rule == "min-space"
        assert v.measured == LAM


def _short_bitlines(top):
    """Draw a metal2 bridge across bl_0/blb_0 at the array's top edge."""
    array_inst = next(i for i in top.instances() if i.name == "array")
    a = array_inst.port("bl_t_0").rect
    b = array_inst.port("blb_t_0").rect
    span = a.union_bbox(b)
    top.add_shape(
        "metal2", Rect(span.x1, span.y1 - 70, span.x2, span.y1 + 70))


def _sabotaged_floorplan(monkeypatch):
    """Make the compiler produce a floorplan with a routing short."""
    import repro.core.compiler as compiler_module

    original = compiler_module.build_floorplan

    def sabotaged(config, march, with_bisr=True):
        plan = original(config, march, with_bisr=with_bisr)
        if with_bisr:
            _short_bitlines(plan.top)
        return plan

    monkeypatch.setattr(compiler_module, "build_floorplan", sabotaged)


class TestStageGates:
    def test_strict_clean_build(self):
        compiled = BISRAMGen(CONFIG).build(signoff="strict")
        assert compiled.signoff is not None
        assert compiled.signoff.clean

    def test_routing_short_detected_and_classified(self):
        compiled = compile_ram(CONFIG)
        _short_bitlines(compiled.floorplan.top)
        report = run_signoff(compiled)
        assert not report.clean
        assert report.failure_class == "lvs"
        assert report.exit_code == EXIT_CODES["lvs"]
        shorted = [f for f in report.findings() if f.kind == "short"]
        assert any("bl_0" in f.subject and "blb_0" in f.subject
                   for f in shorted)

    def test_strict_raises_signoff_error(self, monkeypatch):
        _sabotaged_floorplan(monkeypatch)
        with pytest.raises(SignoffError) as exc:
            BISRAMGen(CONFIG).build(signoff="strict")
        assert exc.value.failure_class == "lvs"
        assert exc.value.report["clean"] is False

    def test_degrade_attaches_report_and_returns(self, monkeypatch):
        _sabotaged_floorplan(monkeypatch)
        compiled = BISRAMGen(CONFIG).build(signoff="degrade")
        assert compiled.signoff is not None
        assert not compiled.signoff.clean
        assert compiled.signoff.failure_class == "lvs"

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            BISRAMGen(CONFIG).build(signoff="paranoid")


class TestDrcGate:
    def test_injected_drc_violation_names_shape(self):
        compiled = compile_ram(CONFIG)
        top = compiled.floorplan.top
        box = top.bbox()
        # Two parent-level metal1 shapes spaced below the rule.
        top.add_shape("metal1", Rect(box.x2 + 10 * LAM, 0,
                                     box.x2 + 13 * LAM, 10 * LAM))
        top.add_shape("metal1", Rect(box.x2 + 14 * LAM, 0,
                                     box.x2 + 17 * LAM, 10 * LAM))
        report = run_signoff(compiled)
        assert report.failure_class == "drc"
        assert report.exit_code == EXIT_CODES["drc"]
        drc = [f for f in report.findings() if f.checker == "drc"]
        assert drc[0].data["rule"] == "min-space"
        assert drc[0].data["cell"]

    def test_drc_outranks_lvs_in_blame(self):
        report = SignoffReport("c", "p", [
            CheckResult(checker="lvs", stage="assembly", status="fail"),
            CheckResult(checker="drc", stage="assembly", status="fail"),
        ])
        assert report.failure_class == "drc"
        assert report.exit_code == EXIT_CODES["drc"]


class TestControlGate:
    def test_corrupted_personality_trips_control_gate(self, compiled):
        from repro.bist.controller import build_test_program
        from repro.bist.march import IFA_9
        from repro.bist.microcode import assemble
        from repro.bist.trpla import Trpla
        from repro.verify import check_personality

        program = build_test_program(IFA_9, 2)
        asm = assemble(program)
        # Find a flip that is not masked by OR-plane redundancy (the
        # cheap personality check alone), then gate the full signoff.
        bad_pla = None
        for term in range(8):
            or_plane = [list(r) for r in asm.or_plane]
            or_plane[term][0] ^= 1
            candidate = Trpla(asm.and_plane, or_plane)
            if check_personality(program, candidate):
                bad_pla = candidate
                break
        assert bad_pla is not None
        report = run_signoff(compiled, trpla=bad_pla)
        assert report.failure_class == "control"
        assert report.exit_code == EXIT_CODES["control"]
        bad = [f for f in report.findings()
               if f.kind == "microword-mismatch"]
        assert bad and bad[0].subject  # names the corrupted state


class TestCifRoundTrip:
    def test_hash_identical_after_cif(self, compiled):
        buf = io.StringIO()
        write_cif(compiled.floorplan.top, buf, PROCESS.layers)
        buf.seek(0)
        back = read_cif(buf, PROCESS.layers)
        assert cell_hash(back) == cell_hash(compiled.floorplan.top)

    def test_drc_report_on_readback_hits_cache(self, compiled):
        cache = StageCache()
        hierarchical_drc(compiled.floorplan.top, PROCESS, cache=cache)
        buf = io.StringIO()
        write_cif(compiled.floorplan.top, buf, PROCESS.layers)
        buf.seek(0)
        back = read_cif(buf, PROCESS.layers)
        report = drc_report(back, PROCESS, label="readback", cache=cache)
        assert report.clean
        assert report.results[0].stats["cache_hit_rate"] == 1.0
