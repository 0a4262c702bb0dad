"""DATAGEN: Johnson-counter background generation and read comparison.

"The test data generator DATAGEN is a Johnson counter that can generate
log2(bpw)+1 data backgrounds for a bpw-bit RAM word.  In reality, we
need to generate only log2(bpw)+1 words, as follows: all-0,
0101..., 00110011..., 0000111100001111..., ..., all-1."  (The all-1
row of that list is the complement view of all-0; complements are
produced by the inversion signal, not stored.)

"The test data generator DATAGEN not only generates background
patterns, but also compares the read data with their expected values
... using exclusive-OR gates and a bpw-input OR gate."

The background set is proved in [2] to be exactly what a Johnson
counter of log2(bpw)+1 stages produces when each word bit ``i`` taps
stage ``ctz-pattern`` — concretely, background ``k`` assigns bit ``i``
the value of bit ``k-1`` of ``i``'s binary index for ``k >= 1``
(background 0 is all-0).  These patterns cover every pair of bits of a
word with both equal and opposite values, which is what the intra-word
coupling coverage claim requires; :func:`backgrounds_for_word` has a
property test asserting exactly that.
"""

from __future__ import annotations

from typing import List, Tuple


def backgrounds_for_word(bpw: int) -> List[int]:
    """The log2(bpw)+1 background patterns for a ``bpw``-bit word.

    Background 0 is all-0; background k (k>=1) sets bit i to bit (k-1)
    of i, producing the 0101..., 00110011..., etc. family.  For bpw=1
    the list degenerates to [0].

    Raises:
        ValueError: when bpw is not a positive power of two (the paper
            requires bpw to be a power of 2).
    """
    if bpw < 1 or bpw & (bpw - 1):
        raise ValueError(f"bpw must be a positive power of two, got {bpw}")
    n_backgrounds = bpw.bit_length()  # log2(bpw) + 1
    patterns = []
    for k in range(n_backgrounds):
        if k == 0:
            patterns.append(0)
            continue
        value = 0
        for i in range(bpw):
            if (i >> (k - 1)) & 1:
                value |= 1 << i
        patterns.append(value)
    return patterns


class DataGen:
    """Johnson-counter background generator plus read comparator.

    The hardware is a log2(bpw)+1 stage Johnson (twisted-ring) counter;
    stepping it advances to the next background.  The ``invert`` input
    (the clock generator's *inversion* signal) selects the complemented
    pattern, used for the w1/r1 ops of a march.
    """

    def __init__(self, bpw: int) -> None:
        self.bpw = bpw
        self.mask = (1 << bpw) - 1
        self._patterns = backgrounds_for_word(bpw)
        self.index = 0

    @property
    def stage_count(self) -> int:
        """Johnson counter length: log2(bpw) + 1 stages."""
        return self.bpw.bit_length()

    @property
    def done(self) -> bool:
        """True when the last background is selected."""
        return self.index == len(self._patterns) - 1

    def reset(self) -> None:
        self.index = 0

    def step(self) -> int:
        """Advance to the next background and return it."""
        if self.done:
            raise RuntimeError("Johnson counter already at last background")
        self.index += 1
        return self.pattern(0)

    def pattern(self, data_bit: int) -> int:
        """Current background (data_bit=0) or its complement (1)."""
        value = self._patterns[self.index]
        if data_bit:
            value = ~value & self.mask
        return value

    def compare(self, read_word: int, data_bit: int) -> bool:
        """XOR/OR comparator: True when the read word mismatches.

        Mirrors the hardware: per-bit XOR against the expected pattern,
        then a bpw-input OR raising the *capture* pulse on any
        discrepancy.
        """
        return (read_word ^ self.pattern(data_bit)) & self.mask != 0

    def johnson_states(self) -> List[Tuple[int, ...]]:
        """The raw Johnson counter state sequence (for the layout/netlist
        view): ``stage_count`` stages walking 000 -> 100 -> 110 -> ...

        The background index is the number of ones in the state, which
        is how the decode of the twisted ring selects patterns.
        """
        n = self.stage_count
        states = []
        state = [0] * n
        states.append(tuple(state))
        for _ in range(n):
            state = [1] + state[:-1]
            states.append(tuple(state))
        return states
