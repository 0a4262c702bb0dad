"""Pinned outputs of the behavioural test flows.

Diagnosis, transparent in-field test, supervised repair and 2-D repair
all drive the same march datapath.  These goldens pin what each flow
prints and returns, so a refactor of that datapath shows up as a diff
here rather than as a quiet change in behaviour.

Regenerate (only when a change of behaviour is intended, and say why
in CHANGES.md) with::

    PYTHONPATH=src python tests/test_behaviour_goldens.py
"""

import contextlib
import io
import json
import random
import runpy
from pathlib import Path

from repro.bist import ALL_TESTS
from repro.bist.transparent import TransparentBist
from repro.cli import main
from repro.memsim import BisrRam, DefectInjector, collect_fail_records

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("goldens") / "behaviour.json"

CLI_RUNS = {
    "diagnose": ["diagnose", "--words", "256", "--bpw", "8", "--bpc", "4",
                 "--defects", "4", "--seed", "1"],
    "repair_plan_repaired": [
        "repair-plan", "--words", "256", "--bpw", "8", "--bpc", "4",
        "--spares", "4", "--spare-cols", "2", "--defects", "4",
        "--seed", "1", "--column-weight", "0.2"],
    "repair_plan_degraded": [
        "repair-plan", "--words", "64", "--bpw", "4", "--bpc", "2",
        "--spares", "4", "--spare-cols", "1", "--defects", "40",
        "--seed", "1", "--column-weight", "0.1"],
    "selftest_repaired": [
        "selftest", "--words", "64", "--bpw", "8", "--bpc", "4",
        "--strap-every", "8", "--defects", "2", "--seed", "4",
        "--retries", "3", "--confirm", "2/5"],
    "selftest_degraded": [
        "selftest", "--words", "64", "--bpw", "8", "--bpc", "4",
        "--strap-every", "8", "--defects", "60", "--seed", "1",
        "--retries", "2"],
    "coverage": ["coverage", "--march", "IFA-9", "--samples", "5"],
}

DEVICES = 20


def _faulty_device(seed: int) -> BisrRam:
    bpw = (1, 2, 4, 8)[seed % 4]
    device = BisrRam(rows=16, bpw=bpw, bpc=4, spares=2)
    DefectInjector(rng=random.Random(seed)).inject(device.array, 3)
    return device


def _device_runs(seed: int) -> dict:
    march = ALL_TESTS[seed % len(ALL_TESTS)]
    device = _faulty_device(seed)
    records = collect_fail_records(march, device, device.array.bpw)

    device = _faulty_device(seed)
    image = random.Random(seed + 1000)
    for address in range(device.word_count):
        device.write(address, image.randrange(1 << device.array.bpw))
    reads_before = device.array.read_count
    result = TransparentBist(march, device.array.bpw).run(device)
    return {
        "march": march.name,
        "fail_records": [[r.address, r.observed, r.expected]
                         for r in records],
        "transparent": [result.op_count, result.fail_count,
                        result.contents_preserved],
        "transparent_reads": device.array.read_count - reads_before,
    }


def _stdout_of(call) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call()
    return code, out.getvalue()


def capture() -> dict:
    """Every pinned output, keyed by flow."""
    cli = {}
    for name, argv in CLI_RUNS.items():
        code, out = _stdout_of(lambda: main(list(argv)))
        cli[name] = {"exit": code, "stdout": out}
    _, mission = _stdout_of(lambda: runpy.run_path(
        str(ROOT / "examples" / "field_repair_mission.py"),
        run_name="__main__"))
    return {
        "cli": cli,
        "field_repair_mission": mission,
        "devices": [_device_runs(seed) for seed in range(DEVICES)],
    }


def test_behaviour_matches_goldens():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(capture()))
    for name in golden["cli"]:
        assert got["cli"][name] == golden["cli"][name], name
    assert got["field_repair_mission"] == golden["field_repair_mission"]
    for seed, (mine, pinned) in enumerate(zip(got["devices"],
                                              golden["devices"])):
        assert mine == pinned, f"device seed {seed}"
    assert len(got["devices"]) == len(golden["devices"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
