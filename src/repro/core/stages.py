"""Stage-level memoization for the compiler's build pipeline.

:meth:`~repro.core.compiler.BISRAMGen.build` is a fixed pipeline —
floorplan -> layout -> control planes -> datasheet -> signoff — whose
stages are pure functions of the configuration, the march test, and
the process rule deck.  A :class:`StageCache` memoises each stage's
product against a content key, so a rebuild that changes nothing
reuses everything, and a build that only changes the signoff policy
reuses the cached layout.  The DRC verdict cache of
:mod:`repro.verify.hierdrc` is a :class:`StageCache` too.

The cache is **opt-in and explicitly shared**: cached products are the
live objects (a floorplan's cell hierarchy is not copied on hit), so a
caller that mutates a compiled macro's geometry — the verify tests do
exactly that to provoke findings — must build without a cache or use a
private one.  The macro server and the CLI's cached paths pass a
shared instance; plain ``build()`` keeps today's from-scratch
behaviour.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.counters import Counters, hit_rate
from repro.core.errors import ConfigError

#: Pipeline order; ``flow_report`` and the stats dict follow it.
STAGE_ORDER: Tuple[str, ...] = (
    "floorplan", "layout", "control-planes", "datasheet", "signoff",
)

#: Sentinel distinguishing "not cached" from a cached None.
_MISS = object()


@dataclass(frozen=True)
class StageTiming:
    """One stage's outcome inside one build: cache verdict and cost."""

    name: str
    hit: bool
    elapsed_s: float
    key: str = ""

    def describe(self) -> str:
        verdict = "hit " if self.hit else "miss"
        return f"{self.name:<14} {verdict} {self.elapsed_s * 1e3:8.2f} ms"


class StageCache:
    """Bounded LRU cache of stage products, keyed by content.

    Keys are ``(stage_name, content_key)`` where the content key folds
    in everything the stage's product depends on (configuration
    digest, march fingerprint, rule-deck digest).  Thread-safe: the
    macro server's worker threads share one instance.

    Attributes:
        max_entries: LRU bound on cached products (a floorplan for a
            large macro is the dominant cost, so the bound is a count,
            not bytes).
        counts: hits, misses and evictions since construction or the
            last :meth:`clear`.
    """

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ConfigError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, str], object]" = \
            OrderedDict()
        self._lock = threading.RLock()
        self.counts = Counters("hits", "misses", "evictions")

    def lookup(self, stage: str, key: str) -> Tuple[bool, object]:
        """``(hit, product)`` — the flag, not truthiness, is the
        verdict, so falsy products (0, (), None) cache cleanly."""
        with self._lock:
            found = self._entries.get((stage, key), _MISS)
            if found is _MISS:
                self.counts.add("misses")
                return False, None
            self.counts.add("hits")
            self._entries.move_to_end((stage, key))
            return True, found

    def store(self, stage: str, key: str, value) -> None:
        with self._lock:
            self._entries[(stage, key)] = value
            self._entries.move_to_end((stage, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.counts.add("evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.counts.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-serializable counters."""
        with self._lock:
            counts = self.counts.to_dict()
            return dict(entries=len(self._entries),
                        max_entries=self.max_entries, **counts,
                        hit_rate=hit_rate(counts["hits"],
                                          counts["misses"]))


class StageRunner:
    """Executes one build's stages against an optional cache.

    Collects a :class:`StageTiming` per executed stage so
    :meth:`~repro.core.compiler.CompiledRam.flow_report` can show
    per-stage hit/miss and timing even for uncached builds.
    """

    def __init__(self, cache: Optional[StageCache] = None) -> None:
        self.cache = cache
        self.timings: List[StageTiming] = []

    def run(self, stage: str, key: str, producer):
        """Return the stage product, from cache when possible."""
        import time

        t0 = time.perf_counter()
        hit, value = False, None
        if self.cache is not None:
            hit, value = self.cache.lookup(stage, key)
        if not hit:
            value = producer()
            if self.cache is not None:
                self.cache.store(stage, key, value)
        self.timings.append(StageTiming(
            name=stage, hit=hit,
            elapsed_s=time.perf_counter() - t0, key=key,
        ))
        return value

    def summary(self) -> Dict[str, dict]:
        """Per-stage hit/timing mapping in pipeline order."""
        out: Dict[str, dict] = {}
        for timing in self.timings:
            out[timing.name] = {
                "hit": timing.hit,
                "elapsed_s": round(timing.elapsed_s, 6),
            }
        return out
