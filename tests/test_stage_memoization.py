"""Tests for stage-level memoization of the build pipeline."""

import pytest

from repro.bist.march import MATS_PLUS, parse_march
from repro.core.compiler import BISRAMGen, compile_ram, march_digest
from repro.core.config import RamConfig
from repro.core.stages import STAGE_ORDER, StageCache, StageTiming
from repro.service import render_bundle

CFG = RamConfig(words=64, bpw=8, bpc=4, strap_every=8)


class TestStageCache:
    def test_lookup_miss_then_hit(self):
        cache = StageCache()
        hit, _ = cache.lookup("floorplan", "k1")
        assert not hit
        cache.store("floorplan", "k1", "product")
        hit, value = cache.lookup("floorplan", "k1")
        assert hit and value == "product"
        assert cache.counts.hits == 1 and cache.counts.misses == 1

    def test_stage_and_key_both_partition(self):
        cache = StageCache()
        cache.store("floorplan", "k1", "a")
        assert not cache.lookup("layout", "k1")[0]
        assert not cache.lookup("floorplan", "k2")[0]

    def test_caches_falsy_products(self):
        """A stage whose product is falsy (0, empty tuple) must still
        hit — the sentinel, not truthiness, decides."""
        cache = StageCache()
        cache.store("datasheet", "k", ())
        hit, value = cache.lookup("datasheet", "k")
        assert hit and value == ()

    def test_bounded_lru(self):
        cache = StageCache(max_entries=2)
        cache.store("s", "k1", 1)
        cache.store("s", "k2", 2)
        assert cache.lookup("s", "k1")[0]  # refresh k1
        cache.store("s", "k3", 3)          # evicts k2
        assert not cache.lookup("s", "k2")[0]
        assert cache.lookup("s", "k1")[0]
        assert cache.counts.evictions == 1

    def test_stats_shape(self):
        cache = StageCache()
        cache.store("s", "k", 1)
        cache.lookup("s", "k")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestMemoizedBuild:
    def test_cold_build_records_misses_in_order(self):
        cache = StageCache()
        compiled = BISRAMGen(CFG).build(stage_cache=cache)
        names = [t.name for t in compiled.stages]
        assert names == [s for s in STAGE_ORDER if s != "signoff"]
        assert all(not t.hit for t in compiled.stages)

    def test_warm_build_hits_every_stage(self):
        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        warm = BISRAMGen(CFG).build(stage_cache=cache)
        assert all(t.hit for t in warm.stages)

    def test_flow_report_carries_stage_verdicts(self):
        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        warm = BISRAMGen(CFG).build(stage_cache=cache)
        report = warm.flow_report()
        assert "stage cache" in report
        assert "floorplan HIT" in report
        cold = compile_ram(CFG)
        assert "floorplan MISS" in cold.flow_report()

    def test_warm_artifacts_are_byte_identical(self):
        """The contract the artifact store relies on: memoized and
        from-scratch builds render the same bytes."""
        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        warm = BISRAMGen(CFG).build(stage_cache=cache)
        fresh = compile_ram(CFG)
        assert render_bundle(warm) == render_bundle(fresh)

    def test_different_march_misses(self):
        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        other = BISRAMGen(CFG, MATS_PLUS).build(stage_cache=cache)
        assert all(not t.hit for t in other.stages)

    def test_different_config_misses(self):
        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        other = BISRAMGen(
            RamConfig(words=64, bpw=8, bpc=4, strap_every=8, spares=8)
        ).build(stage_cache=cache)
        assert all(not t.hit for t in other.stages)

    def test_no_cache_builds_standalone(self):
        compiled = BISRAMGen(CFG).build()
        assert all(not t.hit for t in compiled.stages)
        assert len(compiled.stages) == 4

    def test_policy_change_reuses_layout_stages(self, monkeypatch):
        """Adding signoff to a warmed geometry re-runs *only* the
        signoff stage; floorplan/layout/planes/datasheet all hit."""

        class _CleanReport:
            clean = True

        sweeps = []
        monkeypatch.setattr(
            "repro.verify.signoff.run_signoff",
            lambda compiled, march=None, **kw:
                sweeps.append(1) or _CleanReport())

        cache = StageCache()
        BISRAMGen(CFG).build(stage_cache=cache)
        gated = BISRAMGen(CFG).build(signoff="degrade",
                                     stage_cache=cache)
        verdicts = {t.name: t.hit for t in gated.stages}
        assert verdicts == {"floorplan": True, "layout": True,
                            "control-planes": True, "datasheet": True,
                            "signoff": False}
        assert len(sweeps) == 1
        # Same policy again: even the signoff sweep hits now.
        again = BISRAMGen(CFG).build(signoff="degrade",
                                     stage_cache=cache)
        assert all(t.hit for t in again.stages)
        assert len(sweeps) == 1


class TestStageKeys:
    def test_stage_key_folds_in_config_march_and_deck(self):
        key = BISRAMGen(CFG).stage_key()
        assert BISRAMGen(CFG).stage_key() == key
        assert BISRAMGen(
            RamConfig(words=64, bpw=8, bpc=4, strap_every=8,
                      process="mos08")
        ).stage_key() != key
        assert BISRAMGen(CFG, MATS_PLUS).stage_key() != key

    def test_march_digest_distinguishes_same_name(self):
        a = parse_march("twin", "m(w0); u(r0,w1)")
        b = parse_march("twin", "m(w0); d(r0,w1)")
        assert march_digest(a) != march_digest(b)

    def test_timing_describe(self):
        timing = StageTiming(name="layout", hit=True, elapsed_s=0.25)
        text = timing.describe()
        assert "layout" in text and "hit" in text
