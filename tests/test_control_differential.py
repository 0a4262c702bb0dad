"""The batched personality check against the scalar reference check.

:func:`repro.verify.control.check_personality` evaluates every state x
condition assignment in one :meth:`Trpla.evaluate_all` call.  Each test
here requires it to return exactly the findings of the
evaluation-at-a-time check kept in :mod:`tests.control_oracle` (same
order, ``subject``, ``message`` and ``data``) on clean, corrupted and
malformed personalities, and requires ``evaluate_all`` to agree with
``evaluate`` input by input.
"""

import random
from itertools import product

import numpy as np
import pytest

from repro.bist.controller import build_test_program
from repro.bist.march import ALL_TESTS, IFA_9
from repro.bist.microcode import assemble
from repro.bist.trpla import Trpla
from repro.verify.control import check_personality
from tests import control_oracle


def same_findings(program, trpla=None, max_findings=50):
    got = check_personality(program, trpla, max_findings)
    want = control_oracle.check_personality(program, trpla, max_findings)
    assert got == want
    return got


def planes(asm):
    return [list(r) for r in asm.and_plane], [list(r) for r in asm.or_plane]


@pytest.fixture(scope="module")
def ifa9():
    program = build_test_program(IFA_9, 2)
    return program, assemble(program)


@pytest.fixture(scope="module")
def ifa9_single_pass():
    program = build_test_program(IFA_9, 1)
    return program, assemble(program)


@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda m: m.name)
def test_library_march_assembles_clean(march):
    assert same_findings(build_test_program(march, 2)) == []


@pytest.mark.parametrize("march", ALL_TESTS, ids=lambda m: m.name)
def test_library_march_against_ifa9_planes(march, ifa9):
    # Other marches' programs read against IFA-9's planes: either a
    # width mismatch or a list of wrong microwords, never a crash.
    _, asm = ifa9
    same_findings(build_test_program(march, 2),
                  Trpla(asm.and_plane, asm.or_plane))


def flip_corpus(asm, seed=16, per_plane=16):
    """Seeded single-bit flips, ``per_plane`` in each plane."""
    rng = random.Random(seed)
    corpus = []
    for plane in ("and", "or"):
        for _ in range(per_plane):
            and_plane, or_plane = planes(asm)
            rows = and_plane if plane == "and" else or_plane
            term = rng.randrange(len(rows))
            col = rng.randrange(len(rows[term]))
            rows[term][col] ^= 1
            corpus.append((f"{plane}[{term}][{col}]",
                           Trpla(and_plane, or_plane)))
    return corpus


def test_single_bit_flips(ifa9_single_pass):
    program, asm = ifa9_single_pass
    corpus = flip_corpus(asm)
    visible = 0
    for label, trpla in corpus:
        try:
            visible += bool(same_findings(program, trpla))
        except AssertionError as error:
            raise AssertionError(f"flip {label}: {error}") from error
    # Some flips are masked by OR-plane redundancy; most are not.
    assert len(corpus) == 32 and visible >= 16


@pytest.mark.parametrize("max_findings", [1, 5])
def test_finding_budget(ifa9, max_findings):
    program, asm = ifa9
    for label, trpla in flip_corpus(asm, seed=5, per_plane=2):
        found = same_findings(program, trpla, max_findings)
        assert len(found) <= max_findings, label
    truncated = Trpla(asm.and_plane[:4], asm.or_plane[:4])
    assert len(same_findings(program, truncated, max_findings)) == \
        max_findings


@pytest.mark.parametrize("terms", [4, -1])
def test_truncated_terms(ifa9, terms):
    program, asm = ifa9
    found = same_findings(
        program, Trpla(asm.and_plane[:terms], asm.or_plane[:terms]))
    assert found


def test_narrowed_and_plane(ifa9):
    program, asm = ifa9
    and_plane = [row[:-2] for row in asm.and_plane]
    found = same_findings(program, Trpla(and_plane, asm.or_plane))
    assert len(found) == 1 and "evaluation failed" in found[0].message


def test_narrowed_or_plane(ifa9):
    program, asm = ifa9
    or_plane = [row[:-1] for row in asm.or_plane]
    found = same_findings(program, Trpla(asm.and_plane, or_plane))
    assert len(found) == 1 and "evaluation failed" in found[0].message


def test_evaluate_all_matches_evaluate(ifa9):
    _, asm = ifa9
    pla = Trpla(asm.and_plane, asm.or_plane)
    inputs = list(product((0, 1), repeat=pla.n_inputs))
    batched = pla.evaluate_all(np.array(inputs))
    assert batched.shape == (2 ** pla.n_inputs, pla.n_outputs)
    assert [tuple(row) for row in batched.tolist()] == \
        [pla.evaluate(x) for x in inputs]


def test_evaluate_all_rejects_wrong_width(ifa9):
    _, asm = ifa9
    pla = Trpla(asm.and_plane, asm.or_plane)
    with pytest.raises(ValueError, match=f"expected {pla.n_inputs} inputs"):
        pla.evaluate_all(np.zeros((3, pla.n_inputs + 1), dtype=int))
    with pytest.raises(ValueError, match="matrix of input vectors"):
        pla.evaluate_all([0] * pla.n_inputs)
