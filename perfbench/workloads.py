"""The compile, self-test and campaign workloads.

Each ``run_*`` function takes the seed, the run length and the
recorder (``None`` when untraced), checks every output against its
oracle and returns an :class:`~perfbench.common.Outcome`.  Each
``inputs_*`` function is what set-up builds from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
import time
from typing import List, Optional

from perfbench.common import EXPECTED, Outcome, fresh_dir

# ---------------------------------------------------------------------------
# compile_strict: what `repro compile --policy strict` does, cold
# ---------------------------------------------------------------------------

#: The ROADMAP baseline macro and a dual-port spare-column macro on a
#: registry deck.
MACROS = (
    ("cda07_32x4", dict(words=32, bpw=4, bpc=2, spares=4,
                        process="cda07")),
    ("scn4m_64x8_dp", dict(words=64, bpw=8, bpc=4, spare_cols=2,
                           ports=2, strap_every=8, process="scn4m")),
)


def inputs_compile(seed: int) -> list:
    """Both macros, in a seeded order."""
    from repro.core.config import RamConfig
    from repro.tech.process import get_process

    order = list(MACROS)
    random.Random(seed).shuffle(order)
    macros = [(name, RamConfig(**kw)) for name, kw in order]
    for _, config in macros:
        get_process(config.process)  # resolves registry decks
    return macros


def run_compile(seed: int, seconds: float, rec) -> Outcome:
    from repro.core.compiler import BISRAMGen
    from repro.verify import hierdrc

    out = Outcome()
    macros = inputs_compile(seed)
    latencies: List[float] = []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for name, config in macros:
            out.attempted += 1
            # `repro compile --policy strict` starts cold: no verdict
            # cache from an earlier build, no stage cache.
            hierdrc.default_cache.clear()
            t0 = time.perf_counter()
            try:
                compiled = BISRAMGen(config).build(signoff="strict")
                cif = compiled.cif_text()
            except Exception as error:  # every failure is an oracle miss
                out.fail(f"{name}: {type(error).__name__}: {error}")
                continue
            latencies.append((time.perf_counter() - t0) * 1e3)
            digest = hashlib.sha256(cif.encode("utf-8")).hexdigest()
            drc = next(r for r in compiled.signoff.results
                       if r.checker == "drc" and r.stage == "leaf-cells")
            if not compiled.signoff.clean:
                out.fail(f"{name}: signoff not clean")
            elif digest != EXPECTED["cif_sha256"][name]:
                out.fail(f"{name}: CIF sha256 {digest[:16]} differs "
                         f"from the pinned hash")
            elif not drc.stats.get("cache_misses"):
                out.fail(f"{name}: DRC ran warm (no cache misses)")
            out.info.setdefault("drc_cache_misses", {})[name] = \
                drc.stats.get("cache_misses")
        if not latencies:
            break
    if latencies:
        out.ops(latencies)
    out.info["builds"] = len(latencies)
    return out


# ---------------------------------------------------------------------------
# selftest: the paper's hardware path on faulty 4 Kbit devices
# ---------------------------------------------------------------------------

DEVICE = dict(rows=64, bpw=16, bpc=4, spares=4)
DEFECTS = 3
#: Nominal seconds one device takes; sets the device count per run.
DEVICE_NOMINAL_S = 10


def _device(device_seed: int):
    """A seeded faulty device.  Defects stay out of the spare rows: a
    faulty spare needs the iterated 2k-pass repair, and this workload
    times the two-pass test that repairs every device it is given."""
    from repro.memsim import BisrRam, DefectInjector, FaultMix

    device = BisrRam(**DEVICE)
    DefectInjector(rng=random.Random(device_seed),
                   mix=FaultMix(column_defect=0.0)).inject(
        device.array, DEFECTS, spare_rows_immune=True)
    return device


def inputs_selftest(seed: int, seconds: float) -> list:
    """``(device_seed, device)`` pairs; identically seeded devices are
    rebuilt for the oracle."""
    rng = random.Random(seed)
    count = max(2, int(seconds // DEVICE_NOMINAL_S))
    seeds = [rng.getrandbits(32) for _ in range(count)]
    return [(s, _device(s)) for s in seeds]


def run_selftest(seed: int, seconds: float, rec) -> Outcome:
    from repro.bist import IFA_9, BistScheduler, TrplaController

    out = Outcome()
    latencies: List[float] = []
    pinned = EXPECTED["selftest"]
    for device_seed, device in inputs_selftest(seed, seconds):
        out.attempted += 1
        t0 = time.perf_counter()
        controller = TrplaController(IFA_9, bpw=DEVICE["bpw"],
                                     target=device)
        result = controller.run()
        latencies.append((time.perf_counter() - t0) * 1e3)
        counts = {"cycles": controller.cycles,
                  "reads": device.array.read_count,
                  "writes": device.array.write_count}
        if rec is not None:
            rec.paused = True  # the oracle is not part of the workload
        try:
            reference = _device(device_seed)
            expected = BistScheduler(IFA_9, bpw=DEVICE["bpw"]).run(
                reference)
            residue = (device.check_pattern(0),
                       device.check_pattern((1 << DEVICE["bpw"]) - 1))
        finally:
            if rec is not None:
                rec.paused = False
        mine = (result.fail_count, result.op_count, result.repaired,
                device.tlb.mapped_rows())
        theirs = (expected.fail_count, expected.op_count,
                  expected.repaired, reference.tlb.mapped_rows())
        if mine != theirs:
            out.fail(f"device {device_seed}: controller {mine} != "
                     f"scheduler {theirs}")
        elif not result.repaired or residue != (0, 0):
            out.fail(f"device {device_seed}: not repaired "
                     f"(check_pattern mismatches {residue})")
        for name, value in counts.items():
            out.check(value == pinned[name],
                      f"device {device_seed}: simulated {name} {value} "
                      f"!= pinned {pinned[name]}")
    out.ops(latencies)
    out.info["devices"] = len(latencies)
    return out


# ---------------------------------------------------------------------------
# campaign: 2-D yield and repair campaigns on the supervised pool
# ---------------------------------------------------------------------------

WORKERS = 2
N_SHARDS = 8
#: One round runs one campaign of each kind; nominal seconds per round
#: set the round count per run.
ROUND_NOMINAL_S = 2.5
MC2D_TRIALS = 4000
REPAIR_TRIALS = 12


def _mc2d(trials: int, n_shards: int, seed: int):
    from repro.runtime.drivers import montecarlo2d_campaign

    return montecarlo2d_campaign(
        rows=256, bpw=32, bpc=8, spares_r=8, spares_c=8, defects=14,
        trials=trials, n_shards=n_shards, seed=seed,
        row_defect_frac=0.05, col_defect_frac=0.05)


def _repair(trials: int, n_shards: int, seed: int):
    from repro.runtime.drivers import repair_campaign

    return repair_campaign(rows=64, bpw=8, bpc=4, spares=4, defects=3,
                           trials=trials, n_shards=n_shards, seed=seed)


def inputs_campaign(seed: int, seconds: float) -> list:
    """Rounds of ``[("mc2d", spec), ("repair", spec)]``.

    Also imports what the shard tasks import, so that pool workers,
    forked from this process, start with it loaded.
    """
    importlib.import_module("repro.yieldmodel.montecarlo")
    importlib.import_module("repro.bisr.escalation")
    importlib.import_module("repro.memsim")
    rng = random.Random(seed)
    rounds = max(2, round(seconds / ROUND_NOMINAL_S))
    return [[("mc2d", _mc2d(MC2D_TRIALS, N_SHARDS, rng.getrandbits(32))),
             ("repair", _repair(REPAIR_TRIALS, N_SHARDS,
                                rng.getrandbits(32)))]
            for _ in range(rounds)]


def _traced_spec(spec):
    """The same campaign through the counter-returning shard wrapper."""
    from perfbench.tracing import traced_shard

    task = f"{spec.task.__module__}:{spec.task.__qualname__}"
    reduce = spec.reduce

    def unwrap(results):
        return reduce([r["result"] if r is not None else None
                       for r in results])

    return dataclasses.replace(
        spec, task=traced_shard, reduce=unwrap,
        params={**spec.params, "perfbench_task": task})


def _shard_spec(spec, index: int):
    import numpy as np

    from repro.runtime import ShardSpec

    children = np.random.SeedSequence(spec.seed).spawn(spec.n_shards)
    return ShardSpec(index=index, n_shards=spec.n_shards,
                     seed_seq=children[index])


def _reference_aggregates() -> dict:
    """Small fixed-seed campaigns whose aggregates are pinned."""
    found = {}
    for name, spec in (("mc2d", _mc2d(200, 2, 0)),
                       ("repair", _repair(2, 2, 0))):
        results = [spec.task(dict(spec.params), _shard_spec(spec, i))
                   for i in range(spec.n_shards)]
        found[name] = spec.reduce(results)
    return found


def _check_shard(out: Outcome, rec, name: str, spec, result,
                 shard_results: list, index: int) -> None:
    """Differential oracle: one shard re-run in this process must match
    the pool's result bit for bit (the allocator's node count too)."""
    before = rec.snapshot() if rec is not None else None
    mine = spec.task(dict(spec.params), _shard_spec(spec, index))
    if mine != shard_results[index]:
        out.fail(f"{name}: shard {index} re-run {mine} != pool "
                 f"{shard_results[index]}", spec.n_shards)
    if rec is not None:
        key = "bisr.allocate.nodes"
        nodes = rec.snapshot().get(key, 0) - before.get(key, 0)
        worker = result.shards[index].result["counters"].get(key, 0)
        out.check(nodes == worker,
                  f"{name}: allocator nodes {worker} in the worker "
                  f"!= {nodes} on re-run")
        rec.reset_to(before)  # counters describe the pool's work


def run_campaign(seed: int, seconds: float, rec) -> Outcome:
    from repro.runtime import CampaignRunner

    out = Outcome()
    workdir = fresh_dir("campaign")
    latencies: List[float] = []
    totals = {"mc2d": [0, 0.0, 0.0], "repair": [0, 0.0, 0.0]}
    rounds = inputs_campaign(seed, seconds)
    rng = random.Random(seed ^ 0x5EED)
    checked = rng.randrange(len(rounds))
    for number, campaigns in enumerate(rounds):
        round_ms = 0.0
        for name, spec in campaigns:
            run_spec = _traced_spec(spec) if rec is not None else spec
            journal = workdir / f"{name}-{number}.jsonl"
            runner = CampaignRunner(workers=WORKERS,
                                    checkpoint=str(journal))
            out.attempted += spec.n_shards
            t0 = time.perf_counter()
            result = runner.run(run_spec)
            wall = time.perf_counter() - t0
            round_ms += wall * 1e3
            lost = spec.n_shards - result.completed
            if lost:
                out.fail(f"{name}: {lost} shard(s) lost: "
                         f"{result.reason}", lost)
            shard_results = [s.result for s in result.shards]
            total = totals[name]
            total[0] += result.aggregates.get("trials", 0)
            total[1] += wall
            if rec is not None:
                rec.add("runtime.runner.retries",
                        sum(s.attempts - 1 for s in result.shards))
                rec.add("runtime.runner.lost_shards", lost)
                for shard in shard_results:
                    if shard is not None:
                        total[2] += shard["busy_s"]
                        rec.merge(shard["counters"])
                shard_results = [s["result"] if s is not None else None
                                 for s in shard_results]
            if number == checked:
                _check_shard(out, rec, name, spec, result, shard_results,
                             rng.randrange(spec.n_shards))
            if spec.reduce(shard_results) != result.aggregates:
                out.fail(f"{name}: aggregates differ from the reduced "
                         f"shard results", spec.n_shards)
            records = sum(1 for _ in journal.open()) - 1  # the header
            out.check(records == spec.n_shards,
                      f"{name}: journal holds {records} shard record(s)")
        latencies.append(round_ms)
    for name, (trials, wall, busy) in totals.items():
        out.info[f"{name}_trials"] = trials
        out.info[f"{name}_trials_per_s"] = trials / wall
        if rec is not None:
            out.info[f"{name}_shard_busy_s"] = busy
    reference = _reference_aggregates()
    for name, aggregates in reference.items():
        out.check(aggregates == EXPECTED["campaign_reference"][name],
                  f"{name}: reference aggregates {aggregates} differ "
                  f"from the pinned values")
    if rec is not None:
        busy = sum(t[2] for t in totals.values())
        wall = sum(t[1] for t in totals.values())
        rec.add("runtime.runner.shard_busy_s", busy)
        rec.add("runtime.runner.pool_idle_frac",
                max(0.0, 1.0 - busy / (WORKERS * wall)))
    out.ops(latencies)
    return out


def inputs(workload: str, seed: int, seconds: float) -> Optional[list]:
    """Set-up for the in-process workloads (``serve`` times its own:
    launching the server until it answers ``/readyz``)."""
    if workload == "compile_strict":
        return inputs_compile(seed)
    if workload == "selftest":
        return inputs_selftest(seed, seconds)
    if workload == "campaign":
        return inputs_campaign(seed, seconds)
    return None
