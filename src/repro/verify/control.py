"""Control-logic validation: TRPLA microprogram and BISR invariants.

The layout checks prove the silicon is drawable; this checker proves
the *controller burned into it* is the right machine:

* **reachability / liveness** — every microprogram state is reachable
  from ``idle``, and every state can still reach a terminal
  (``pass_done``/``repair_fail``); a corrupted branch target strands
  the hardware in a live-locked loop.
* **march round-trip** — the microprogram's per-operation states agree
  with the march test they were compiled from: one ``o<j>`` state per
  operation with the right read/write/polarity outputs, one wait state
  per delay element.
* **personality equivalence** — the AND/OR plane matrices (as built,
  or as read back from plane files) are exhaustively evaluated over
  every state x condition assignment, as one batched
  :meth:`~repro.bist.trpla.Trpla.evaluate_all` call, and each row is
  compared against the microprogram semantics, so a single corrupted
  microword is caught and named.  A plane too narrow for the
  program's inputs or outputs is reported, not raised.
* **BISR invariants** — a short fault-injected self-test run must
  leave the TLB with strictly increasing spare assignments, no
  duplicate rows, and translations that land inside the spare band.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bist.controller import build_test_program
from repro.bist.march import IFA_9, MarchTest
from repro.bist.microcode import Microprogram, assemble
from repro.bist.trpla import Trpla
from repro.verify.report import SignoffFinding

#: Cap on the equivalence sweep's per-state condition assignments; with
#: the standard 5 condition inputs this is exhaustive (2^5 = 32).
_MAX_ASSIGNMENTS = 1 << 10


def _finding(kind: str, subject: str, message: str,
             **data: object) -> SignoffFinding:
    return SignoffFinding(
        checker="control", stage="control", kind=kind,
        subject=subject, message=message, data=data,
    )


def _successors(program: Microprogram, name: str) -> List[str]:
    inst = program.states[name]
    targets = [target for _, target in inst.branches]
    if inst.default:
        targets.append(inst.default)
    return targets


def check_reachability(program: Microprogram) -> List[SignoffFinding]:
    """All states reachable from start; all states can reach a terminal."""
    names = list(program.states)
    reached = {program.start}
    frontier = [program.start]
    while frontier:
        nxt = []
        for name in frontier:
            for succ in _successors(program, name):
                if succ not in reached:
                    reached.add(succ)
                    nxt.append(succ)
        frontier = nxt
    findings = [
        _finding("unreachable-state", name,
                 f"state {name} cannot be reached from {program.start}")
        for name in names if name not in reached
    ]

    # Terminals absorb (every successor is the state itself).
    terminals = {
        name for name in names
        if all(s == name for s in _successors(program, name))
    }
    # Walk backwards: states that can reach a terminal.
    predecessors: Dict[str, List[str]] = {name: [] for name in names}
    for name in names:
        for succ in _successors(program, name):
            if succ != name:
                predecessors[succ].append(name)
    alive = set(terminals)
    frontier = list(terminals)
    while frontier:
        nxt = []
        for name in frontier:
            for pred in predecessors[name]:
                if pred not in alive:
                    alive.add(pred)
                    nxt.append(pred)
        frontier = nxt
    findings.extend(
        _finding("dead-state", name,
                 f"state {name} can never reach a terminal state")
        for name in names if name not in alive and name in reached
    )
    return findings


def check_march_roundtrip(program: Microprogram,
                          march: MarchTest,
                          passes: int = 2) -> List[SignoffFinding]:
    """The microprogram's operation states mirror the march elements.

    Both directions: every march element must have its init/op/wait
    states with the right direction and read/write/polarity outputs,
    and every element-shaped state in the program must trace back to a
    march element — a program compiled from a longer march is flagged,
    not silently accepted as a superset.
    """
    from repro.bist.march import Order

    findings: List[SignoffFinding] = []
    by_name = program.states
    expected: set = set()
    for pass_no in range(1, passes + 1):
        for index, element in enumerate(march.elements):
            prefix = f"p{pass_no}_e{index}"
            if element.is_delay:
                expected.add(f"{prefix}_wait")
                wait = by_name.get(f"{prefix}_wait")
                if wait is None or "wait_retention" not in wait.outputs:
                    findings.append(_finding(
                        "march-mismatch", f"{prefix}_wait",
                        f"delay element {index} of pass {pass_no} has no "
                        f"wait_retention state"))
                continue
            expected.add(f"{prefix}_init")
            init = by_name.get(f"{prefix}_init")
            want_dir = ("addr_reset_up"
                        if element.order is not Order.DOWN
                        else "addr_reset_down")
            if init is None or want_dir not in init.outputs:
                findings.append(_finding(
                    "march-mismatch", f"{prefix}_init",
                    f"element {index} of pass {pass_no} does not reset "
                    f"the address generator {want_dir[11:]}ward"))
            for j, op in enumerate(element.ops):
                expected.add(f"{prefix}_o{j}")
                name = f"{prefix}_o{j}"
                inst = by_name.get(name)
                if inst is None:
                    findings.append(_finding(
                        "march-mismatch", name,
                        f"operation {j} of element {index} (pass {pass_no}) "
                        f"has no microprogram state"))
                    continue
                want_read = op.is_read
                has_read = "op_read" in inst.outputs
                has_write = "op_write" in inst.outputs
                if has_read != want_read or has_write == want_read:
                    findings.append(_finding(
                        "march-mismatch", name,
                        f"state {name} encodes "
                        f"{'read' if has_read else 'write'}, march says "
                        f"{'read' if want_read else 'write'}"))
                want_inv = bool(op.data_bit)
                if ("data_inv" in inst.outputs) != want_inv:
                    findings.append(_finding(
                        "march-mismatch", name,
                        f"state {name} data polarity disagrees with march "
                        f"op {op.describe() if hasattr(op, 'describe') else op}"))

    # Surplus: element-shaped states with no march counterpart.
    import re

    element_state = re.compile(r"^p\d+_e\d+_(?:o\d+|wait|init)$")
    for name in program.states:
        if element_state.match(name) and name not in expected:
            findings.append(_finding(
                "march-mismatch", name,
                f"state {name} has no corresponding march operation"))
    return findings


def check_personality(program: Microprogram,
                      trpla: Optional[Trpla] = None,
                      max_findings: int = 50) -> List[SignoffFinding]:
    """Exhaustive state x conditions equivalence: PLA vs. microprogram.

    ``trpla`` defaults to the personality assembled from ``program``
    (verifying the assembler); pass a :class:`Trpla` read back from
    plane files to verify the *artifact* — a flipped bit in a microword
    is reported with the state it corrupts.  The whole input matrix is
    evaluated in one :meth:`Trpla.evaluate_all` call; rows are compared
    state by state, assignment by assignment, and each mismatching row
    yields one finding, up to ``max_findings``.  A plane too narrow for
    the program's inputs or outputs yields a single finding naming the
    first state.
    """
    assembled = assemble(program)
    pla = trpla if trpla is not None else Trpla(
        assembled.and_plane, assembled.or_plane)
    conds = program.condition_inputs()
    state_bits = assembled.state_bits
    encoding = assembled.state_encoding
    n_outputs = len(assembled.output_names)
    control_outputs = assembled.output_names[state_bits:]
    states = list(program.states.values())

    def failed(reason: object) -> List[SignoffFinding]:
        first = states[0].name
        return [_finding(
            "microword-mismatch", first,
            f"PLA evaluation failed in state {first}: {reason}")]

    assignments = list(islice(product((0, 1), repeat=len(conds)),
                              _MAX_ASSIGNMENTS))
    per_state = len(assignments)
    codes = np.array([encoding[inst.name] for inst in states])
    inputs = np.hstack([
        np.repeat((codes[:, None] >> np.arange(state_bits)) & 1,
                  per_state, axis=0),
        np.tile(np.reshape(assignments, (per_state, len(conds))),
                (len(states), 1)),
    ])
    try:
        outputs = pla.evaluate_all(inputs)
    except ValueError as error:
        return failed(error)
    if pla.n_outputs < n_outputs:
        return failed(f"expected {n_outputs} outputs, got {pla.n_outputs}")

    cond_maps = [dict(zip(conds, values)) for values in assignments]
    got_next = outputs[:, :state_bits] @ (1 << np.arange(state_bits))
    want_next = np.array([encoding[inst.next_state(cond_map)]
                          for inst in states for cond_map in cond_maps])
    want_controls = np.array(
        [[name in inst.outputs for name in control_outputs]
         for inst in states], dtype=np.uint8)
    wrong_control = outputs[:, state_bits:n_outputs] != np.repeat(
        want_controls, per_state, axis=0)
    bad = (got_next != want_next) | wrong_control.any(axis=1)

    findings: List[SignoffFinding] = []
    for row in np.flatnonzero(bad)[:max(max_findings, 0)]:
        state, case = divmod(int(row), per_state)
        name = states[state].name
        if got_next[row] != want_next[row]:
            cond_map = cond_maps[case]
            findings.append(_finding(
                "microword-mismatch", name,
                f"state {name} with {cond_map}: PLA jumps to code "
                f"{got_next[row]}, microprogram says {want_next[row]}",
                conditions=dict(cond_map)))
        else:
            col = int(np.argmax(wrong_control[row]))
            output = control_outputs[col]
            findings.append(_finding(
                "microword-mismatch", name,
                f"state {name}: control output {output} is "
                f"{outputs[row, state_bits + col]}, expected "
                f"{want_controls[state, col]}",
                output=output))
    return findings


def check_bisr_invariants(spares: int = 4,
                          rows: int = 16,
                          bpw: int = 4,
                          bpc: int = 2,
                          march: MarchTest = IFA_9,
                          ) -> List[SignoffFinding]:
    """Run a faulty device through self-repair; audit the TLB after.

    The paper's contract: spare rows are consumed in strictly
    increasing order, each faulty row gets exactly one entry, and every
    diverted translation lands in the spare band.
    """
    from repro.bist.controller import BistScheduler
    from repro.memsim.device import BisrRam
    from repro.memsim.faults import StuckAt

    device = BisrRam(rows=rows, bpw=bpw, bpc=bpc, spares=spares)
    faulty_rows = sorted({1, rows // 2, rows - 2})
    for i, row in enumerate(faulty_rows):
        device.array.inject(
            StuckAt(device.array.cell_index(row, i % bpw, 0), 1))
    BistScheduler(march, bpw=bpw).run(device, passes=2)

    findings: List[SignoffFinding] = []
    tlb = device.tlb
    order = tlb.assigned_spares()
    if any(b <= a for a, b in zip(order, order[1:])):
        findings.append(_finding(
            "spare-order", "tlb",
            f"spare assignment order {order} is not strictly increasing"))
    rows_seen = [e.row for e in tlb.entries]
    if len(rows_seen) != len(set(rows_seen)):
        findings.append(_finding(
            "tlb-entry", "tlb",
            f"duplicate TLB entries for rows {rows_seen}"))
    for entry in tlb.entries:
        physical, diverted = tlb.translate(entry.row)
        if not diverted or not (rows <= physical < rows + spares):
            findings.append(_finding(
                "tlb-entry", f"row_{entry.row}",
                f"row {entry.row} translates to {physical} "
                f"(diverted={diverted}), outside the spare band"))
    if tlb.spares_used > spares:
        findings.append(_finding(
            "tlb-entry", "tlb",
            f"{tlb.spares_used} spares consumed, device has {spares}"))
    return findings


def check_control(march: MarchTest = IFA_9,
                  passes: int = 2,
                  trpla: Optional[Trpla] = None,
                  spares: int = 4,
                  ) -> Tuple[List[SignoffFinding], Dict[str, object]]:
    """The full control stage: microprogram + personality + BISR."""
    program = build_test_program(march, passes)
    findings = check_reachability(program)
    findings += check_march_roundtrip(program, march, passes)
    findings += check_personality(program, trpla)
    findings += check_bisr_invariants(spares=spares, march=march)
    stats = {
        "states": len(program.states),
        "condition_inputs": len(program.condition_inputs()),
        "assignments_per_state": 2 ** len(program.condition_inputs()),
    }
    return findings, stats
