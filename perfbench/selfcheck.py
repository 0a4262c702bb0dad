"""Self-tests of the benchmark at smoke size.

    python3 perfbench/selfcheck.py [--workloads serve,campaign] [--seconds 2]

For each workload, an untraced and a traced run must be correct and
emit every metric of BENCHMARK.json with its unit; the traced run must
count non-zero work in every layer the workload should exercise
(worker-side layers included) and reproduce the known profile.  A
copy of the benchmark without the sources must fail without printing
a result.  Exits 1 on the first failed check.  Takes a few minutes:
``compile_strict`` always builds both macros.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must exercise in its traced run.
EXERCISED = {
    "compile_strict": [
        "core.floorplan.calls", "core.floorplan.busy_s",
        "layout.cif.busy_s", "layout.cif.bytes", "verify.hierdrc.busy_s",
        "verify.hierdrc.unique_cells", "layout.drc.leaf_checks",
        "layout.drc.shapes", "layout.drc.busy_s", "layout.drc.trpla_s",
        "verify.lvs.busy_s", "verify.control.busy_s",
        "core.datasheet.busy_s"],
    "selftest": [
        "bist.controller.cycles", "bist.controller.busy_s",
        "bist.trpla.evals", "bist.trpla.busy_s", "bist.trpla.repeat_frac",
        "memsim.array.reads", "memsim.array.writes",
        "memsim.array.busy_s", "bisr.tlb.records", "bisr.tlb.busy_s"],
    "campaign": [
        "memsim.array.reads", "memsim.array.writes",
        "memsim.array.busy_s", "bisr.tlb.records", "bisr.tlb.busy_s",
        "bisr.allocate.calls", "bisr.allocate.busy_s",
        "bisr.allocate.nodes", "bisr.allocate.exact_frac",
        "yieldmodel.montecarlo.self_s", "bisr.escalation.busy_s",
        "runtime.runner.shard_busy_s", "runtime.runner.pool_idle_frac",
        "runtime.journal.records", "runtime.journal.busy_s"],
    "serve": [
        "core.floorplan.calls", "core.floorplan.busy_s",
        "layout.cif.busy_s", "layout.cif.bytes",
        "service.server.request_p50_ms", "service.server.request_p99_ms",
        "service.store.gets", "service.store.get_busy_s",
        "service.store.hit_rate", "service.backend.builds",
        "service.backend.build_busy_s", "service.wal.appends",
        "service.wal.busy_s", "harness.lag_p99_ms"],
}
#: Cold compiles must never hit the DRC verdict cache.
ZERO = {"compile_strict": ["verify.hierdrc.cache_hit_rate"]}


def _run(root: Path, workload: str, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900)
    return proc


def _profile(workload: str, metrics: dict, info: dict) -> list:
    """(label, part, whole) shares that must be more than half."""
    m = {name: entry["value"] for name, entry in metrics.items()}
    if workload == "compile_strict":
        return [("trpla leaf DRC / compile", m["layout.drc.trpla_s"],
                 info["op_total_s"])]
    if workload == "selftest":
        return [("TRPLA evaluate / self-test", m["bist.trpla.busy_s"],
                 info["op_total_s"])]
    if workload == "campaign":
        return [("allocator / montecarlo2d shards",
                 m["bisr.allocate.busy_s"], info["mc2d_shard_busy_s"]),
                ("array / repair shards", m["memsim.array.busy_s"],
                 info["repair_shard_busy_s"])]
    return []


def check_workload(workload: str, seconds: float) -> list:
    problems = []
    assert any(w["name"] == workload and w["why"].strip()
               for w in BENCHMARK["workloads"]), workload
    for trace, wanted in ((0, BENCHMARK["end_to_end"]),
                          (1, BENCHMARK["per_layer"])):
        proc = _run(ROOT, workload, seconds, trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            return [f"{workload} trace={trace}: exit {proc.returncode}: "
                    f"{proc.stderr[-1500:]}"]
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        tag = f"{workload} trace={trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{tag}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] \
                or result["attempted"] < 1:
            problems.append(f"{tag}: not correct: {info['problems']}")
        emitted = result["metrics"]
        for metric in wanted:
            entry = emitted.get(metric["name"])
            if entry is None or entry.get("unit") != metric["unit"]:
                problems.append(f"{tag}: {metric['name']} missing or "
                                f"without unit {metric['unit']}")
        if len(emitted) != len(wanted):
            problems.append(f"{tag}: {len(emitted)} metrics emitted, "
                            f"{len(wanted)} named")
        if trace == 0:
            for metric in wanted:
                if not emitted.get(metric["name"], {}).get("value"):
                    problems.append(f"{tag}: {metric['name']} is 0")
            continue
        for name in EXERCISED[workload] + ["harness.tracing_overhead_frac"]:
            if not emitted.get(name, {}).get("value"):
                problems.append(f"{tag}: layer {name} counted nothing")
        for name in ZERO.get(workload, []):
            if emitted[name]["value"]:
                problems.append(f"{tag}: {name} is not 0")
        for label, part, whole in _profile(workload, emitted,
                                           info["info"]):
            if not part > 0.5 * whole:
                problems.append(f"{tag}: {label} is {part:.3f} of "
                                f"{whole:.3f} s, not most of it")
    return problems


def check_without_sources() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, root / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(root, BENCHMARK["workloads"][0]["name"], 1, 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a copy without sources did not fail cleanly"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    problems = check_without_sources()
    for workload in args.workloads.split(","):
        found = check_workload(workload, args.seconds)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
