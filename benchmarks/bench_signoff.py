"""Signoff cost: full-macro wall time and the leaf-cell cache payoff.

The hierarchical DRC's value proposition is that a *second* signoff on
an unchanged macro is nearly free: every unique cell's verdict is
cached against its content hash and the rule-deck digest, so the warm
sweep re-checks nothing.  This bench measures that across all four
technology nodes (the deck digest differs per node, so each node pays
its own cold sweep) and times one complete signoff — DRC + LVS-lite +
control validation — as the stage gate a build would run.
"""

import time

import pytest

from conftest import print_table
from repro.core.compiler import compile_ram
from repro.core.config import RamConfig
from repro.core.stages import StageCache
from repro.tech import get_process
from repro.verify import hierarchical_drc, run_signoff

NODES = ("cda05", "mos06", "cda07", "mos08")


def _small_config(process):
    return RamConfig(words=32, bpw=4, bpc=2, spares=4, process=process)


def test_leaf_cache_speedup_across_nodes():
    """Cold vs. warm hierarchical DRC on every node; warm must be ~free."""
    rows = []
    for node in NODES:
        compiled = compile_ram(_small_config(node))
        top = compiled.floorplan.top
        process = get_process(node)
        cache = StageCache()

        t0 = time.perf_counter()
        cold = hierarchical_drc(top, process, cache=cache)
        t1 = time.perf_counter()
        warm = hierarchical_drc(top, process, cache=cache)
        t2 = time.perf_counter()

        cold_s, warm_s = t1 - t0, t2 - t1
        speedup = cold_s / warm_s if warm_s else float("inf")
        rows.append([
            node, f"{cold_s:.2f}", f"{warm_s:.3f}", f"{speedup:.0f}x",
            cold.stats["unique_cells"],
            f"{warm.stats['cache_hit_rate']:.0%}",
        ])
        assert cold.clean and warm.clean
        assert warm.stats["cache_hit_rate"] == 1.0
        assert warm.stats["leaf_checks"] == 0
        assert speedup > 10

    print_table(
        "Hierarchical DRC: cold sweep vs. warm (content-hash cache)",
        ["node", "cold s", "warm s", "speedup", "unique cells", "warm hits"],
        rows,
    )


def test_full_macro_signoff_walltime(benchmark):
    """One complete stage-gate signoff (DRC + LVS + control), timed."""
    config = _small_config("cda07")
    compiled = compile_ram(config)
    cache = StageCache()

    # Cold pass populates the cache; the benchmarked pass is the
    # steady-state cost a rebuild pays.
    cold_t0 = time.perf_counter()
    cold = run_signoff(compiled, cache=cache)
    cold_s = time.perf_counter() - cold_t0
    assert cold.clean

    report = benchmark.pedantic(
        run_signoff, args=(compiled,), kwargs={"cache": cache},
        rounds=3, iterations=1,
    )
    assert report.clean

    rows = [[r.checker, r.stage, f"{r.elapsed_s * 1e3:.0f}"]
            for r in report.results]
    rows.append(["total (cold)", "-", f"{cold_s * 1e3:.0f}"])
    print_table(
        "Full-macro signoff wall time, 32x4 macro at cda07 (ms)",
        ["checker", "stage", "elapsed ms"],
        rows,
    )
