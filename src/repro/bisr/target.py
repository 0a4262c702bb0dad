"""Views over a test target, and the one write-all/read-all sweep.

Every BIST flow drives a :class:`~repro.bist.controller.TestTarget`,
usually a :class:`~repro.memsim.device.BisrRam` seen through one or
more wrappers: a port binding, the supervisor's N-of-M confirmation
gate, injected infrastructure faults, the transparent test's XOR view.
Each wrapper subclasses :class:`TargetView` and overrides only the
operations it changes.  ``array`` and ``tlb`` pass through, so code
that needs the organisation or the spare budget reads
``target.array.bpc`` and ``target.tlb`` the same way under any stack
of views.

The module lives in :mod:`repro.bisr` rather than next to the protocol
in :mod:`repro.bist` because :mod:`repro.bist` imports the repair
types of :mod:`repro.bisr`, and the supervisor's gate needs this base
at import time.
"""

from __future__ import annotations

from typing import List, Tuple


class TargetView:
    """A test target that forwards every operation to ``target``."""

    def __init__(self, target) -> None:
        self.target = target

    @property
    def word_count(self) -> int:
        return self.target.word_count

    @property
    def array(self):
        return self.target.array

    @property
    def tlb(self):
        return self.target.tlb

    def read(self, address: int) -> int:
        return self.target.read(address)

    def write(self, address: int, word: int) -> None:
        self.target.write(address, word)

    def set_repair_mode(self, enabled: bool) -> None:
        self.target.set_repair_mode(enabled)

    def record_fail(self, address: int) -> None:
        self.target.record_fail(address)

    def retention_wait(self) -> None:
        self.target.retention_wait()

    def reset_for_test(self) -> None:
        self.target.reset_for_test()


def sweep(target, pattern: int) -> List[int]:
    """Write ``pattern`` to every word, then read every word back.

    Returns the addresses that did not read back ``pattern``.  The
    sweep is destructive: it is a test, not a scrub.
    """
    for address in range(target.word_count):
        target.write(address, pattern)
    return [address for address in range(target.word_count)
            if target.read(address) != pattern]


def unrepaired_rows(target, bpw: int) -> Tuple[int, ...]:
    """Rows still faulty with diversion (and steering) active.

    Sweeps both data polarities; the result is the degrade-around map
    a mission computer needs when repair did not converge.
    """
    bpc = target.array.bpc
    target.set_repair_mode(True)
    return tuple(sorted({
        address // bpc
        for pattern in (0, (1 << bpw) - 1)
        for address in sweep(target, pattern)
    }))
