"""Helpers shared by the workloads: statistics, memory, set-up timing."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout root (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, journals, WALs and traces (git-ignored).
OUT = ROOT / ".perfbench_out"
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: Fresh-interpreter set-ups timed per run; the median is reported.
SETUP_REPEATS = 3


def child_env() -> dict:
    """Environment for benchmark subprocesses: the checkout's sources."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def fresh_dir(name: str) -> Path:
    """An empty per-run directory under the output root."""
    path = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int, seconds: float) -> List[float]:
    """Wall time of fresh interpreters that import the workload's
    layers and build its inputs, then exit (``--setup-probe``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            env=child_env(), check=True, timeout=120,
            stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb(extra_kb: Sequence[int] = ()) -> float:
    """Peak RSS of this process, its reaped children and ``extra_kb``
    (e.g. a server's ``VmHWM``), in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max([self_kb, child_kb, *extra_kb]) / 1024.0


def proc_status_kb(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def fingerprint() -> Dict[str, object]:
    """The machine and toolchain the numbers were taken on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, tuple] = {}
        self.info: Dict[str, object] = {}

    def fail(self, message: str, count: int = 1) -> None:
        """Record an oracle or gate failure."""
        self.failed += count
        self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A gate that fails the run without counting an operation."""
        if not ok:
            self.problems.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    @property
    def correct(self) -> bool:
        return not self.problems

    def ops(self, latencies_ms: Sequence[float]) -> None:
        """The end-to-end latency metric over this run's operations.

        Only the median is a metric: the runs of three workloads hold
        too few operations for any higher percentile to have ten
        samples beyond it.
        """
        self.metric("op_p50_ms", statistics.median(latencies_ms), "ms")
        self.info["op_samples"] = len(latencies_ms)
        self.info["op_p90_ms"] = percentile(latencies_ms, 90)
        self.info["op_total_s"] = sum(latencies_ms) / 1e3

    def setup(self, times: Sequence[float], rss_extra_kb=()) -> None:
        self.metric("setup_s", statistics.median(times), "s")
        self.info["setup_samples"] = len(times)
        self.metric("peak_rss_mb", peak_rss_mb(rss_extra_kb), "MB")


def overhead_per_call_s(samples: int = 200_000) -> float:
    """Cost of one wrapped call over a bare one, for the tracing
    overhead estimate."""
    from perfbench.tracing import Recorder

    class Probe:
        def call(self, x):
            return x

    probe = Probe()
    t0 = time.perf_counter()
    for i in range(samples):
        probe.call(i)
    bare = time.perf_counter() - t0
    rec = Recorder()
    rec.wrap(Probe, "call", "probe")
    t0 = time.perf_counter()
    for i in range(samples):
        probe.call(i)
    wrapped = time.perf_counter() - t0
    return max(0.0, (wrapped - bare) / samples)


def cpu_seconds() -> float:
    """CPU time of this process and every reaped descendant."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total
