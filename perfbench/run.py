"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile_strict --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it holds the machine fingerprint, sample counts and every
oracle or gate that failed.  Exits 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile_strict", "selftest", "campaign", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the workload's layers and "
                             "build its inputs (timed by the parent)")
    return parser.parse_args(argv)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(c: dict) -> dict:
    """Per-layer metrics (name -> value) from the recorder counters."""
    g = lambda name: c.get(name, 0.0)  # noqa: E731
    drc_lookups = g("verify.hierdrc.cache_hits") \
        + g("verify.hierdrc.cache_misses")
    values = {
        "core.floorplan.calls": g("core.floorplan.calls"),
        "core.floorplan.busy_s": g("core.floorplan.busy_s"),
        "layout.cif.busy_s": g("layout.cif.busy_s"),
        "layout.cif.bytes": g("layout.cif.bytes"),
        "verify.hierdrc.busy_s": g("verify.hierdrc.busy_s"),
        "verify.hierdrc.unique_cells": g("verify.hierdrc.unique_cells"),
        "verify.hierdrc.cache_hit_rate":
            _ratio(g("verify.hierdrc.cache_hits"), drc_lookups),
        "layout.drc.leaf_checks": g("layout.drc.leaf_checks"),
        "layout.drc.shapes": g("layout.drc.shapes"),
        "layout.drc.busy_s": g("layout.drc.busy_s"),
        "layout.drc.trpla_s": g("layout.drc.trpla_s"),
        "verify.lvs.busy_s": g("verify.lvs.busy_s"),
        "verify.control.busy_s": g("verify.control.busy_s"),
        "core.datasheet.busy_s": g("core.datasheet.busy_s"),
        "bist.controller.cycles": g("bist.controller.cycles"),
        "bist.controller.busy_s": g("bist.controller.busy_s"),
        "bist.trpla.evals": g("bist.trpla.calls"),
        "bist.trpla.busy_s": g("bist.trpla.busy_s"),
        "bist.trpla.repeat_frac":
            _ratio(g("bist.trpla.repeats"), g("bist.trpla.calls")),
        "memsim.array.reads": g("memsim.array.read.calls"),
        "memsim.array.writes": g("memsim.array.write.calls"),
        "memsim.array.busy_s": g("memsim.array.read.busy_s")
        + g("memsim.array.write.busy_s"),
        "bisr.tlb.records": g("bisr.tlb.calls"),
        "bisr.tlb.busy_s": g("bisr.tlb.busy_s"),
        "bisr.allocate.calls": g("bisr.allocate.calls"),
        "bisr.allocate.busy_s": g("bisr.allocate.busy_s"),
        "bisr.allocate.nodes": g("bisr.allocate.nodes"),
        "bisr.allocate.exact_frac":
            _ratio(g("bisr.allocate.exact"), g("bisr.allocate.calls")),
        "yieldmodel.montecarlo.self_s": g("yieldmodel.montecarlo.self_s"),
        "bisr.escalation.busy_s": g("bisr.escalation.busy_s"),
        "runtime.runner.shard_busy_s": g("runtime.runner.shard_busy_s"),
        "runtime.runner.pool_idle_frac":
            g("runtime.runner.pool_idle_frac"),
        "runtime.runner.retries": g("runtime.runner.retries"),
        "runtime.runner.lost_shards": g("runtime.runner.lost_shards"),
        "runtime.journal.records": g("runtime.journal.calls"),
        "runtime.journal.busy_s": g("runtime.journal.busy_s"),
        "service.server.request_p50_ms":
            g("service.server.request_p50_ms"),
        "service.server.request_p99_ms":
            g("service.server.request_p99_ms"),
        "service.server.rejected": g("service.server.rejected"),
        "service.server.shed": g("service.server.shed"),
        "service.server.rss_growth_mb": g("service.server.rss_growth_mb"),
        "service.store.gets": g("service.store.get.calls"),
        "service.store.get_busy_s": g("service.store.get.busy_s"),
        "service.store.hit_rate":
            _ratio(g("service.store.hits"), g("service.store.get.calls")),
        "service.backend.builds": g("service.backend.builds"),
        "service.backend.build_busy_s":
            g("service.backend.build_busy_s"),
        "service.backend.retries": g("service.backend.retries"),
        "service.backend.crashes": g("service.backend.crashes"),
        "service.wal.appends": g("service.wal.admit.calls")
        + g("service.wal.done.calls"),
        "service.wal.busy_s": g("service.wal.admit.busy_s")
        + g("service.wal.done.busy_s"),
        "harness.lag_p99_ms": g("harness.lag_p99_ms"),
        "harness.tracing_overhead_frac":
            g("harness.tracing_overhead_frac"),
    }
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no sources under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, workloads
    from perfbench.serve import run_serve

    if args.setup_probe:
        workloads.inputs(args.workload, args.seed, args.seconds)
        return 0

    runners = {"compile_strict": workloads.run_compile,
               "selftest": workloads.run_selftest,
               "campaign": workloads.run_campaign,
               "serve": run_serve}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = None
    if args.trace:
        from perfbench.tracing import Recorder, install

        rec = install(Recorder())
    try:
        setup = None
        if args.workload != "serve" and not args.trace:
            setup = common.setup_seconds(args.workload, args.seed,
                                         args.seconds)
        t0 = time.perf_counter()
        out = runners[args.workload](args.seed, args.seconds, rec)
        wall = time.perf_counter() - t0
        if setup is not None:
            out.setup(setup)
    finally:
        for path in common.OUT.glob(f"*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)

    if rec is None:
        wanted = benchmark["end_to_end"]
        values = {name: value for name, (value, _) in out.metrics.items()}
    else:
        rec.paused = True
        counters = rec.snapshot()
        calls = sum(v for k, v in counters.items() if k.endswith(".calls"))
        counters["harness.tracing_overhead_frac"] = \
            calls * common.overhead_per_call_s() / common.cpu_seconds()
        wanted = benchmark["per_layer"]
        values = layer_metrics(counters)
        common.OUT.mkdir(exist_ok=True)
        trace = common.OUT / f"trace-{args.workload}-{args.seed}.json"
        trace.write_text(json.dumps({"traceEvents": rec.trace_events()}))
        out.info["trace_file"] = str(trace.relative_to(ROOT))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        out.check(False, f"metrics not measured: {missing}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "wall_s": wall,
        "fingerprint": common.fingerprint(), "info": out.info,
        "problems": out.problems,
    }, sort_keys=True, default=str))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
