"""The ``serve`` workload: open-loop ``/compile`` traffic against
``repro serve --backend process``.

Requests arrive on a seeded Poisson schedule at one fixed rate, below
the rate at which the backlog grows, and each is timed from the moment
it was due.  One asyncio thread sends them all, so a slow reply never
delays the next send (open loop).  Most requests re-read a small
pre-built set (warm); a fixed share, evenly spaced among them, are
cold builds of macros no earlier request touched, which write through
the store and the WAL among the reads.  The operation the end-to-end
metric times is the warm request; cold latencies are reported beside
it with their sample counts.

Cold requests are evenly spaced, not drawn at random positions, so
that at most one build is in flight: two overlapping builds occupy
both of the server's request threads, and warm reads queued behind
them made the warm median swing by 2x between runs.  Burst writes are
therefore not measured here.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    Outcome,
    child_env,
    fresh_dir,
    percentile,
    proc_status_kb,
)

#: Offered load.  Its cold builds (1/s) keep the two build workers
#: and the server's two request threads about an eighth busy.
RATE_PER_S = 40.0
#: Exact share of requests that are cold builds.
COLD_SHARE = 0.025
#: Macros pre-built during set-up; warm requests re-read these.
WARM_SET = 4
#: Cold macros whose bytes are re-read and rebuilt in-process.
VERIFY_SAMPLE = 2
#: A run whose generator sent its p99 request later than this is
#: invalid: the schedule, not the server, would set the latencies.
LAG_LIMIT_MS = 50.0
HOST = "127.0.0.1"


def population() -> List[dict]:
    """Small macros of nearly equal build cost, all distinct."""
    return [
        dict(words=words, bpw=bpw, bpc=bpc, spares=spares,
             spare_cols=spare_cols, gate_size=gate, strap_every=8)
        for words, bpw, bpc, spares, spare_cols, gate in itertools.product(
            (16, 32, 64), (4, 8), (2, 4), (4, 8, 16), (0, 1, 2), (1, 2, 3))
    ]


def inputs_serve(seed: int, seconds: float) -> dict:
    """The warm set, the cold macros and the arrival schedule."""
    from repro.core.config import RamConfig
    from repro.service.bundle import bundle_key

    rng = random.Random(seed)
    pool = population()
    rng.shuffle(pool)
    n = int(RATE_PER_S * seconds)
    n_cold = max(VERIFY_SAMPLE, int(n * COLD_SHARE))
    if WARM_SET + n_cold > len(pool):
        raise ValueError("run too long for the macro population")
    configs = [RamConfig(**kw) for kw in pool[:WARM_SET + n_cold]]
    warm, cold = configs[:WARM_SET], iter(configs[WARM_SET:])
    stride = n // n_cold
    offset = rng.randrange(stride)
    cold_slots = {offset + k * stride for k in range(n_cold)}
    schedule, due = [], 0.0
    for i in range(n):
        due += rng.expovariate(RATE_PER_S)
        is_cold = i in cold_slots
        config = next(cold) if is_cold else rng.choice(warm)
        schedule.append((due, config, is_cold))
    return {
        "warm": warm,
        "schedule": schedule,
        "keys": {c.digest(32): bundle_key(c) for c in configs},
        "sample": rng.sample([c for _, c, k in schedule if k],
                             VERIFY_SAMPLE),
    }


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess with a fresh store and WAL."""

    def __init__(self, traced: bool, name: str) -> None:
        workdir = fresh_dir(name)
        entry = ([str(ROOT / "perfbench" / "serve_entry.py")] if traced
                 else ["-m", "repro"])
        self.log = open(workdir / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", "--backend", "process",
             "--workers", "2", "--host", HOST, "--port", "0",
             "--cache-dir", str(workdir / "store"),
             "--wal", str(workdir / "wal.jsonl")],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(), start_new_session=True,
            preexec_fn=_default_sigint)
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, _ = asyncio.run(request(self.port, "GET", "/readyz"))
            if status == 200:
                return
            time.sleep(0.02)
        raise RuntimeError("server never became ready")

    def stats(self) -> dict:
        status, payload = asyncio.run(request(self.port, "GET", "/stats"))
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def stop(self) -> None:
        """Drain and stop the server; wait until it has exited, then
        kill whatever is left of its session (its build workers)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()
        self.log.close()


def _default_sigint() -> None:
    # A parent started in the background may ignore SIGINT, and Python
    # keeps an inherited SIG_IGN, which would make the server deaf to
    # the graceful stop.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


async def request(port: int, method: str, path: str,
                  body: Optional[dict] = None):
    """One HTTP/1.0 exchange; returns ``(status, json payload)``."""
    data = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.0\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        await writer.drain()
        reply = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload or b"{}")


def compile_body(config, include=()) -> dict:
    return {"config": config.to_dict(), "march": "IFA-9",
            "signoff": None, "include": list(include)}


async def _open_loop(port: int, schedule) -> list:
    """Send every request at its due time; time each from due time."""
    start = time.perf_counter() + 0.05
    replies: list = [None] * len(schedule)

    async def one(i: int, due: float, config) -> None:
        await asyncio.sleep(max(0.0, start + due - time.perf_counter()))
        sent = time.perf_counter()
        try:
            status, payload = await request(port, "POST", "/compile",
                                            compile_body(config))
        except (OSError, ValueError, IndexError) as error:
            # refused, reset, or a torn/garbled reply: a failed request
            status, payload = 0, {"error": f"{type(error).__name__}: "
                                           f"{error}"}
        done = time.perf_counter()
        replies[i] = (status, payload, (done - start - due) * 1e3,
                      (sent - start - due) * 1e3)

    await asyncio.gather(*(one(i, due, config) for i, (due, config, _)
                           in enumerate(schedule)))
    return replies


def _backend(stats: dict, name: str) -> float:
    return stats.get("backend", {}).get(name, 0)


def run_serve(seed: int, seconds: float, rec) -> Outcome:
    from repro.service.bundle import build_bundle

    out = Outcome()
    work = inputs_serve(seed, seconds)
    keys: Dict[str, str] = work["keys"]
    traced = rec is not None
    servers: List[Server] = []
    try:
        setup = []
        for number in range(SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            t0 = time.perf_counter()
            servers.append(Server(traced, f"serve{number}"))
            servers[-1].wait_ready()
            setup.append(time.perf_counter() - t0)
        server = servers[-1]

        manifests: Dict[str, dict] = {}
        for config in work["warm"]:  # pre-build the warm set
            status, payload = asyncio.run(request(
                server.port, "POST", "/compile", compile_body(config)))
            if status != 200:
                raise RuntimeError(f"pre-build answered {status}")
            manifests[payload["key"]] = payload["artifacts"]

        before = server.stats()
        rss_before = proc_status_kb(server.proc.pid, "VmRSS")
        replies = asyncio.run(_open_loop(server.port, work["schedule"]))
        after = server.stats()
        rss_after = proc_status_kb(server.proc.pid, "VmRSS")
        hwm = proc_status_kb(server.proc.pid, "VmHWM")

        warm_ms, cold_ms, lags = [], [], []
        for (due, config, is_cold), reply in zip(work["schedule"],
                                                 replies):
            status, payload, latency, lag = reply
            out.attempted += 1
            lags.append(lag)
            if status != 200:
                out.fail(f"HTTP {status}: {payload.get('error')}")
                continue
            key = keys[config.digest(32)]
            if payload["key"] != key:
                out.fail(f"reply key {payload['key'][:16]} != bundle "
                         f"key {key[:16]}")
                continue
            if payload["cached"] == is_cold:
                out.fail(f"{key[:16]}: cached={payload['cached']} on a "
                         f"{'cold' if is_cold else 'warm'} request")
                continue
            known = manifests.setdefault(key, payload["artifacts"])
            if known != payload["artifacts"]:
                out.fail(f"{key[:16]}: artifacts changed between reads")
                continue
            (cold_ms if is_cold else warm_ms).append(latency)

        # Cold bytes, read back warm, equal an in-process build.
        if rec is not None:
            rec.paused = True  # the oracle's build is not served work
        for config in work["sample"]:
            status, payload = asyncio.run(request(
                server.port, "POST", "/compile",
                compile_body(config, include=("macro.cif",))))
            served = base64.b64decode(payload["content"]["macro.cif"]) \
                if status == 200 else b""
            built = build_bundle(config)["macro.cif"]
            digest = manifests[keys[config.digest(32)]]["macro.cif"][
                "sha256"]
            out.check(served == built and hashlib.sha256(built)
                      .hexdigest() == digest,
                      f"{keys[config.digest(32)][:16]}: warm bytes "
                      f"differ from the cold build")
    finally:
        for server in servers:
            server.stop()

    n_cold = sum(1 for _, _, cold in work["schedule"] if cold)
    misses = after["store"]["misses"] - before["store"]["misses"]
    out.check(misses == n_cold,
              f"store misses {misses} != distinct cold keys {n_cold}")
    builds = _backend(after, "builds") - _backend(before, "builds")
    out.check(builds == n_cold, f"backend built {builds} bundle(s) "
                                f"for {n_cold} cold key(s)")
    lag_p99 = percentile(lags, 99)
    out.check(lag_p99 <= LAG_LIMIT_MS,
              f"invalid run: the generator was {lag_p99:.1f} ms late "
              f"at p99 (limit {LAG_LIMIT_MS} ms)")

    out.setup(setup, rss_extra_kb=[hwm])
    if warm_ms:
        out.ops(warm_ms)
    out.info.update({
        "warm_samples": len(warm_ms), "cold_samples": len(cold_ms),
        "warm_p50_ms": percentile(warm_ms, 50) if warm_ms else None,
        "warm_p99_ms": percentile(warm_ms, 99) if warm_ms else None,
        "cold_p50_ms": percentile(cold_ms, 50) if cold_ms else None,
        "cold_p90_ms": percentile(cold_ms, 90) if cold_ms else None,
        "lag_p99_ms": lag_p99, "rate_per_s": RATE_PER_S,
    })
    if traced:
        rec.merge({name: value - before["perfbench"].get(name, 0.0)
                   for name, value in after["perfbench"].items()})
        latency = after["request_latency"]
        rec.add("service.server.request_p50_ms", latency["p50_s"] * 1e3)
        rec.add("service.server.request_p99_ms", latency["p99_s"] * 1e3)
        rec.add("service.server.rejected",
                after["rejected"] - before["rejected"])
        rec.add("service.server.shed", after["shed"] - before["shed"])
        rec.add("service.server.rss_growth_mb",
                (rss_after - rss_before) / 1024.0)
        for name in ("builds", "retries", "crashes"):
            rec.add(f"service.backend.{name}",
                    _backend(after, name) - _backend(before, name))
        rec.add("harness.lag_p99_ms", lag_p99)
    return out
