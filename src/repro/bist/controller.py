"""The test-and-repair controller.

Two interchangeable implementations of the paper's two-pass flow:

* :class:`BistScheduler` — the algorithmic reference.  "The test
  involves two passes.  In the first pass, the memory array is tested
  and faulty addresses are stored in a translation lookaside buffer
  (TLB).  In the second pass, the array is retested along with the
  mapped redundant addresses.  Any fault detected in the second pass
  produces a 'Repair Unsuccessful' status signal."
* :class:`TrplaController` — the microprogrammed hardware model: a
  state register clocked against the TRPLA personality produced by
  :func:`build_test_program` + :func:`~repro.bist.microcode.assemble`.
  The equivalence test in the suite asserts that both emit identical
  memory-operation streams.

:meth:`BistScheduler.run_pass` is the one software march walk:
diagnosis, the transparent test and supervised repair all run it.

The two-pass flow generalises to 2k passes ("the cycle of self-testing
and self-repair may be iterated to repair faults within the spares
themselves") via the ``passes`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol, Tuple

from repro.bist.addgen import AddGen
from repro.bist.datagen import DataGen
from repro.bist.march import MarchElement, MarchTest, Order
from repro.bist.microcode import MicroInstruction, Microprogram, assemble
from repro.bist.trpla import Trpla


class TestTarget(Protocol):
    """What the BIST engine drives: a RAM with repair plumbing."""

    def read(self, address: int) -> int: ...

    def write(self, address: int, word: int) -> None: ...

    def set_repair_mode(self, enabled: bool) -> None: ...

    def record_fail(self, address: int) -> None: ...

    def retention_wait(self) -> None: ...

    def reset_for_test(self) -> None: ...

    @property
    def word_count(self) -> int: ...


@dataclass(frozen=True)
class MemoryOp:
    """One memory operation of the self-test, for stream comparison."""

    pass_no: int
    background: int
    address: int
    is_read: bool
    data_bit: int


@dataclass(frozen=True)
class FailRecord:
    """One comparator hit during a test pass."""

    address: int
    observed: int
    expected: int

    def failing_bits(self) -> int:
        return self.observed ^ self.expected


@dataclass
class BistResult:
    """Outcome of a complete self-test/self-repair run."""

    passes_run: int = 0
    op_count: int = 0
    fail_count: int = 0
    repair_unsuccessful: bool = False
    ops: List[MemoryOp] = field(default_factory=list)

    @property
    def repaired(self) -> bool:
        """True when the final verification pass saw no fault."""
        return not self.repair_unsuccessful


class BistScheduler:
    """Algorithmic reference implementation of the two-pass self-test."""

    def __init__(self, march: MarchTest, bpw: int,
                 record_ops: bool = False) -> None:
        self.march = march
        self.datagen = DataGen(bpw)
        self.record_ops = record_ops

    def run(self, target: TestTarget, passes: int = 2,
            stop_on_repair_fail: bool = True,
            divert_during_test: bool = False) -> BistResult:
        """Run ``passes`` passes against ``target``.

        Odd passes test-and-record with diversion reflecting previous
        repairs; even passes verify.  With the standard ``passes=2``,
        pass 1 records into the TLB and pass 2 verifies the repair.

        ``divert_during_test`` keeps diversion active in pass 1 as
        well — the re-entrant cycle of the paper's iterated 2k-pass
        repair (the equivalent of ``TrplaController(fresh=False)``):
        a mapped row that still fails advances to its next spare.
        """
        if passes < 1:
            raise ValueError("need at least one pass")
        result = BistResult()
        for pass_no in range(1, passes + 1):
            target.set_repair_mode(pass_no >= 2 or divert_during_test)
            verification = pass_no % 2 == 0
            failed = bool(self.run_pass(
                target, pass_no, verification, result
            ))
            result.passes_run = pass_no
            if verification:
                result.repair_unsuccessful = failed
                if failed and stop_on_repair_fail:
                    break
                if not failed:
                    break  # repaired and verified; later passes unneeded
        return result

    def run_pass(self, target: TestTarget, pass_no: int,
                 verification: bool, result: BistResult) -> List[FailRecord]:
        """One march pass over every background: the software walk.

        Counts ops and fails into ``result`` and returns every
        comparator hit.  A test pass (``verification`` false) records
        failing addresses into the TLB; a verification pass records
        nothing, which is also how diagnosis and the transparent test
        use it.  The pass leaves the repair mode as the caller set it.
        """
        fails: List[FailRecord] = []
        self.datagen.reset()
        while True:
            for element in self.march.elements:
                if element.is_delay:
                    target.retention_wait()
                    continue
                addresses = self._addresses(element, target.word_count)
                for address in addresses:
                    for op in element.ops:
                        result.op_count += 1
                        if self.record_ops:
                            result.ops.append(
                                MemoryOp(
                                    pass_no,
                                    self.datagen.index,
                                    address,
                                    op.is_read,
                                    op.data_bit,
                                )
                            )
                        if op.is_read:
                            word = target.read(address)
                            if self.datagen.compare(word, op.data_bit):
                                fails.append(FailRecord(
                                    address, word,
                                    self.datagen.pattern(op.data_bit)))
                                result.fail_count += 1
                                if not verification:
                                    target.record_fail(address)
                        else:
                            target.write(
                                address, self.datagen.pattern(op.data_bit)
                            )
            if self.datagen.done:
                break
            self.datagen.step()
        return fails

    @staticmethod
    def _addresses(element: MarchElement, word_count: int) -> range:
        if element.order is Order.DOWN:
            return range(word_count - 1, -1, -1)
        return range(word_count)


# ---------------------------------------------------------------------------
# Microprogram construction
# ---------------------------------------------------------------------------


def build_test_program(march: MarchTest, passes: int = 2) -> Microprogram:
    """Build the controller microprogram for ``march`` over ``passes``.

    State budget: one init state per op element (loads the address
    counter direction), one state per operation, one wait state per
    delay element, one background-shift state per pass, pass-end glue,
    and the idle/done/repair-fail states.  For IFA-9 and two passes
    this lands at 50 states in 6 flip-flops — the same encoding budget
    as the paper's 59-state controller (the delta is bookkeeping states
    our flow folds into transitions).
    """
    if passes < 1:
        raise ValueError("need at least one pass")
    states: List[MicroInstruction] = []
    states.append(
        MicroInstruction(
            name="idle",
            branches=(((("go", 1),), "init"),),
            default="idle",
        )
    )

    def element_entry(pass_no: int, index: int) -> str:
        element = march.elements[index]
        prefix = f"p{pass_no}_e{index}"
        return f"{prefix}_wait" if element.is_delay else f"{prefix}_init"

    states.append(
        MicroInstruction(
            name="init",
            outputs=("tlb_reset", "datagen_reset"),
            default=element_entry(1, 0),
        )
    )

    for pass_no in range(1, passes + 1):
        verification = pass_no % 2 == 0
        for index, element in enumerate(march.elements):
            prefix = f"p{pass_no}_e{index}"
            is_last_element = index == len(march.elements) - 1
            if is_last_element:
                after = None  # resolved to bg/end logic below
            else:
                after = element_entry(pass_no, index + 1)

            if element.is_delay:
                exit_target = after or f"p{pass_no}_lastexit"
                states.append(
                    MicroInstruction(
                        name=f"{prefix}_wait",
                        outputs=("wait_retention",),
                        branches=(
                            ((("retention_done", 1),), exit_target),
                        ),
                        default=f"{prefix}_wait",
                    )
                )
                continue

            up = element.order is not Order.DOWN
            states.append(
                MicroInstruction(
                    name=f"{prefix}_init",
                    outputs=(
                        "addr_reset_up" if up else "addr_reset_down",
                    ),
                    default=f"{prefix}_o0",
                )
            )
            for j, op in enumerate(element.ops):
                outputs = []
                branches: List[tuple] = []
                if op.is_read:
                    outputs.append("op_read")
                    if verification:
                        branches.append(
                            ((("fail", 1),), "repair_fail")
                        )
                    else:
                        outputs.append("tlb_record")
                else:
                    outputs.append("op_write")
                if op.data_bit:
                    outputs.append("data_inv")
                is_last_op = j == len(element.ops) - 1
                if is_last_op:
                    outputs.append("addr_step")
                    advance = after or f"p{pass_no}_lastexit"
                    if op.is_read and verification:
                        branches = [
                            ((("fail", 1),), "repair_fail"),
                            ((("addr_done", 1),), advance),
                        ]
                    else:
                        branches.append(((("addr_done", 1),), advance))
                    default = f"{prefix}_o0"
                else:
                    default = f"{prefix}_o{j + 1}"
                states.append(
                    MicroInstruction(
                        name=f"{prefix}_o{j}",
                        outputs=tuple(outputs),
                        branches=tuple(branches),
                        default=default,
                    )
                )

        # End-of-march glue for this pass: loop backgrounds, then hand
        # over to the next pass or finish.
        if pass_no < passes:
            end_target = f"p{pass_no}_end"
        else:
            end_target = "pass_done"
        states.append(
            MicroInstruction(
                name=f"p{pass_no}_lastexit",
                branches=(((("bg_done", 1),), end_target),),
                default=f"p{pass_no}_bgshift",
            )
        )
        states.append(
            MicroInstruction(
                name=f"p{pass_no}_bgshift",
                outputs=("datagen_shift",),
                default=element_entry(pass_no, 0),
            )
        )
        if pass_no < passes:
            states.append(
                MicroInstruction(
                    name=f"p{pass_no}_end",
                    outputs=("datagen_reset", "phase_adv"),
                    default=element_entry(pass_no + 1, 0),
                )
            )

    states.append(
        MicroInstruction(
            name="pass_done", outputs=("done",), default="pass_done"
        )
    )
    states.append(
        MicroInstruction(
            name="repair_fail",
            outputs=("repair_unsuccessful",),
            default="repair_fail",
        )
    )
    return Microprogram(states, start="idle")


class TrplaController:
    """Cycle-stepped controller clocked against the TRPLA personality.

    Each clock: the PLA's unconditional terms produce the control
    outputs for the current state; the controller executes them against
    the address counter, data generator, and the target RAM; the
    condition signals that result (address done, background done, fail,
    retention done) feed the PLA's branch terms to produce the next
    state — exactly the settle-then-register behaviour of the silicon.
    """

    def __init__(self, march: MarchTest, bpw: int, target: TestTarget,
                 passes: int = 2, record_ops: bool = False,
                 fresh: bool = True) -> None:
        """``fresh=False`` re-runs the 2-pass cycle on a device that
        already holds a TLB image — the paper's iterated "2k-pass"
        repair of faults within the spares: diversion stays active, and
        recorded rows that still fail advance to their next spare.
        """
        self.march = march
        self.target = target
        self.fresh = fresh
        program = build_test_program(march, passes)
        self.program = program
        self.assembled = assemble(program)
        self.pla = Trpla(self.assembled.and_plane, self.assembled.or_plane)
        self._out_index = {
            name: i for i, name in enumerate(self.assembled.output_names)
        }
        self._cond_names = program.condition_inputs()
        self.state_bits = self.assembled.state_bits
        self.state = self.assembled.state_encoding["idle"]
        self._decode = {
            code: name for name, code in self.assembled.state_encoding.items()
        }
        address_bits = max(1, (target.word_count - 1).bit_length())
        self.addgen = AddGen(address_bits, target.word_count)
        self.datagen = DataGen(bpw)
        self.record_ops = record_ops
        self.result = BistResult()
        self.pass_no = 1
        self.cycles = 0
        self.finished = False

    # -- one clock ---------------------------------------------------------

    def step(self, go: int = 1) -> None:
        """Advance one controller clock."""
        if self.finished:
            return
        self.cycles += 1
        outputs = self._query(conditions={})
        conds = self._execute(outputs, go)
        next_outputs = self._query(conditions=conds)
        next_code = 0
        for b in range(self.state_bits):
            if next_outputs[b]:
                next_code |= 1 << b
        self.state = next_code
        state_name = self._decode[self.state]
        if state_name in ("pass_done", "repair_fail"):
            self.result.repair_unsuccessful = state_name == "repair_fail"
            self.result.passes_run = self.pass_no
            self.finished = True

    def run(self, max_cycles: int = 50_000_000) -> BistResult:
        """Clock until done; raises RuntimeError on runaway programs."""
        while not self.finished:
            if self.cycles >= max_cycles:
                raise RuntimeError(
                    f"controller did not finish within {max_cycles} cycles"
                )
            self.step()
        return self.result

    # -- internals -----------------------------------------------------------

    def _query(self, conditions) -> Tuple[int, ...]:
        inputs = [
            (self.state >> b) & 1 for b in range(self.state_bits)
        ]
        inputs += [conditions.get(name, 0) for name in self._cond_names]
        return self.pla.evaluate(inputs)

    def _on(self, outputs: Tuple[int, ...], name: str) -> bool:
        idx = self._out_index.get(name)
        return bool(idx is not None and outputs[idx])

    def _execute(self, outputs: Tuple[int, ...], go: int) -> dict:
        on = lambda name: self._on(outputs, name)  # noqa: E731
        conds = {"go": go}
        if on("tlb_reset") and self.fresh:
            self.target.reset_for_test()
        if on("datagen_reset"):
            self.datagen.reset()
        if on("phase_adv"):
            self.pass_no += 1
            self.target.set_repair_mode(True)
        if on("addr_reset_up"):
            self.addgen.reset(up=True)
        if on("addr_reset_down"):
            self.addgen.reset(up=False)
        if on("wait_retention"):
            self.target.retention_wait()
            conds["retention_done"] = 1

        fail = 0
        data_bit = 1 if on("data_inv") else 0
        if on("op_read") or on("op_write"):
            address = self.addgen.value
            self.result.op_count += 1
            if self.record_ops:
                self.result.ops.append(
                    MemoryOp(
                        self.pass_no,
                        self.datagen.index,
                        address,
                        on("op_read"),
                        data_bit,
                    )
                )
            if on("op_read"):
                word = self.target.read(address)
                if self.datagen.compare(word, data_bit):
                    fail = 1
                    self.result.fail_count += 1
                    if on("tlb_record"):
                        self.target.record_fail(address)
            else:
                self.target.write(address, self.datagen.pattern(data_bit))

        conds["fail"] = fail
        conds["addr_done"] = 1 if self.addgen.done else 0
        conds["bg_done"] = 1 if self.datagen.done else 0
        if on("addr_step"):
            self.addgen.step()
        if on("datagen_shift"):
            self.datagen.step()
        return conds
