"""Tests for the named-counter type shared by the service and runtime."""

import sys
import threading

import pytest

from repro.core.counters import Counters, hit_rate


def test_reads_adds_and_declaration_order():
    counts = Counters("hits", "misses")
    counts.add("misses")
    counts.add("hits", 3)
    assert counts.hits == 3 and counts.misses == 1
    assert list(counts.to_dict().items()) == [("hits", 3), ("misses", 1)]
    counts.reset()
    assert counts.to_dict() == {"hits": 0, "misses": 0}


def test_undeclared_and_reserved_names_are_refused():
    counts = Counters("hits")
    with pytest.raises(KeyError):
        counts.add("hist")
    for name in ("add", "to_dict", "_names"):
        with pytest.raises(ValueError):
            Counters(name)


def test_snapshot_is_detached_and_appends_derived_values():
    counts = Counters("hits", "misses")
    counts.add("hits")
    snap = counts.snapshot(hit_rate=hit_rate(counts.hits, counts.misses))
    counts.add("hits")
    assert snap.hits == 1
    assert snap.to_dict() == {"hits": 1, "misses": 0, "hit_rate": 1.0}


def test_concurrent_adds_are_not_lost():
    counts = Counters("n")
    threads = [threading.Thread(
        target=lambda: [counts.add("n") for _ in range(2000)])
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts.n == 16000


def test_hit_rate():
    assert hit_rate(0, 0) == 0.0
    assert hit_rate(1, 2) == 0.3333
