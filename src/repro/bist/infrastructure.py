"""Fault models for the BIST/BISR machinery itself.

The paper already concedes the repair hardware is imperfect — spare
rows can be faulty, forcing iterated 2k-pass repair — but the test
*infrastructure* can break too: the comparator can lie in either
direction, an ADDGEN counter bit can stick, and a TLB CAM cell can
divert a repaired row to the wrong spare.  A self-test that trusts a
broken tester silently ships bad parts (false pass) or burns its
entire spare budget on ghosts (false fail).

:class:`FaultyInfrastructure` wraps any
:class:`~repro.bist.controller.TestTarget` and injects these failure
modes *between* the controller and the device, which is exactly where
they live in silicon:

* **Flaky comparator** — with ``false_fail_rate`` a read is reported
  corrupted when it was clean; with ``false_pass_rate`` a genuinely
  corrupted read is reported clean (modelled by returning the last
  value written to that address, i.e. what a perfect memory would have
  returned).
* **Stuck ADDGEN bit** — ``stuck_address_bit=(bit, value)`` forces one
  bit of every generated address, aliasing part of the address space.
* **Corrupt TLB entry** — ``corrupt_tlb_entry=(index, wrong_spare)``
  models a broken CAM cell in entry ``index``: whatever spare the
  repair flow assigns it, the stored index reads back as
  ``wrong_spare``, so the diversion lands on the wrong row.

All randomness comes from the injected ``rng``, so campaigns stay
reproducible under a fixed seed.  The proxy (with its wrapped device,
RNG state, and shadow memory) round-trips through :mod:`pickle` so the
campaign runtime (:mod:`repro.runtime`) can dispatch
infrastructure-faulted test targets to process-pool workers;
``test_pickling.py`` enforces the round-trip.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.bisr.target import TargetView
from repro.core.errors import ConfigError


class FaultyInfrastructure(TargetView):
    """A TestTarget view with injectable infrastructure faults.

    Args:
        target: the real device (any TestTarget, usually a
            :class:`~repro.memsim.device.BisrRam`).
        rng: seeded randomness source for the flaky comparator.
        false_fail_rate: per-read probability of corrupting a clean
            read result (spurious comparator hit).
        false_pass_rate: per-read probability of masking a genuinely
            corrupted read result (missed comparator hit).
        stuck_address_bit: ``(bit, value)`` forcing address bit ``bit``
            to ``value`` on every access, or None.
        corrupt_tlb_entry: ``(index, wrong_spare)`` forcing TLB entry
            ``index`` to divert to spare ``wrong_spare``, or None.
    """

    def __init__(
        self,
        target,
        rng: Optional[random.Random] = None,
        *,
        false_fail_rate: float = 0.0,
        false_pass_rate: float = 0.0,
        stuck_address_bit: Optional[Tuple[int, int]] = None,
        corrupt_tlb_entry: Optional[Tuple[int, int]] = None,
    ) -> None:
        for name, rate in (("false_fail_rate", false_fail_rate),
                           ("false_pass_rate", false_pass_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate!r}")
        if stuck_address_bit is not None:
            bit, value = stuck_address_bit
            address_bits = max(1, (target.word_count - 1).bit_length())
            if not 0 <= bit < address_bits:
                raise ConfigError(
                    f"stuck address bit {bit} outside the "
                    f"{address_bits}-bit address counter"
                )
            if value not in (0, 1):
                raise ConfigError("stuck address bit value must be 0 or 1")
        if corrupt_tlb_entry is not None:
            tlb = getattr(target, "tlb", None)
            if tlb is None:
                raise ConfigError(
                    "corrupt_tlb_entry needs a target with a TLB"
                )
            index, wrong_spare = corrupt_tlb_entry
            if not 0 <= index < tlb.spares:
                raise ConfigError(f"TLB entry index {index} out of range")
            if not 0 <= wrong_spare < tlb.spares:
                raise ConfigError(
                    f"wrong_spare {wrong_spare} out of range"
                )
        super().__init__(target)
        self.rng = rng or random.Random(0)
        self.false_fail_rate = false_fail_rate
        self.false_pass_rate = false_pass_rate
        self.stuck_address_bit = stuck_address_bit
        self.corrupt_tlb_entry = corrupt_tlb_entry
        self._shadow: Dict[int, int] = {}
        # observability counters for tests and diagnosis
        self.false_fails = 0
        self.false_passes = 0
        self.address_aliases = 0
        self.tlb_corruptions = 0

    # -- TestTarget protocol ---------------------------------------------------

    def read(self, address: int) -> int:
        address = self._addr(address)
        word = self.target.read(address)
        expected = self._shadow.get(address)
        if (expected is not None and word != expected
                and self.false_pass_rate
                and self.rng.random() < self.false_pass_rate):
            self.false_passes += 1
            return expected
        if self.false_fail_rate and self.rng.random() < self.false_fail_rate:
            self.false_fails += 1
            return word ^ 1
        return word

    def write(self, address: int, word: int) -> None:
        address = self._addr(address)
        self._shadow[address] = word
        self.target.write(address, word)

    def record_fail(self, address: int) -> None:
        self.target.record_fail(self._addr(address))
        self._apply_tlb_corruption()

    def reset_for_test(self) -> None:
        self._shadow.clear()
        self.target.reset_for_test()

    # -- internals ---------------------------------------------------------------

    def _addr(self, address: int) -> int:
        if self.stuck_address_bit is None:
            return address
        bit, value = self.stuck_address_bit
        forced = (address | (1 << bit)) if value \
            else (address & ~(1 << bit))
        forced %= self.target.word_count
        if forced != address:
            self.address_aliases += 1
        return forced

    def _apply_tlb_corruption(self) -> None:
        """Re-assert the broken CAM cell after every TLB update."""
        if self.corrupt_tlb_entry is None:
            return
        tlb = self.tlb
        index, wrong_spare = self.corrupt_tlb_entry
        entries = tlb.entries
        if index < len(entries) and entries[index].spare != wrong_spare:
            entries[index].spare = wrong_spare
            self.tlb_corruptions += 1

    def describe(self) -> str:
        parts = []
        if self.false_fail_rate:
            parts.append(f"false_fail={self.false_fail_rate:g}")
        if self.false_pass_rate:
            parts.append(f"false_pass={self.false_pass_rate:g}")
        if self.stuck_address_bit:
            bit, value = self.stuck_address_bit
            parts.append(f"addr_bit{bit}={value}")
        if self.corrupt_tlb_entry:
            index, wrong = self.corrupt_tlb_entry
            parts.append(f"tlb[{index}]->spare{wrong}")
        return f"FaultyInfrastructure({', '.join(parts) or 'clean'})"
