"""Signoff oracles: flat vs hierarchical DRC, and a planted-violation corpus.

The hierarchical sweep (:func:`repro.verify.hierdrc.hierarchical_drc`)
checks each unique cell once and only the seams between instances, so
it can miss what the flat checker sees, or blame the wrong level.  Two
checks guard it:

* **Flat vs hierarchical.**  Compiled macros on every deck family and
  port count are checked both ways; the two must report the same
  violations (rule, layer, measured, required).
* **Mutation corpus.**  One violation per rule class is planted inside
  a leaf, across an instance seam and in parent-drawn routing, next to
  a compiled macro.  Each must be detected, blamed on the level it was
  planted at, and seen identically by the flat checker.
"""

import pytest

from repro.core.compiler import BISRAMGen
from repro.core.config import RamConfig
from repro.core.stages import StageCache
from repro.geometry import Point, Rect, Transform
from repro.layout import Cell, DrcChecker
from repro.tech import get_process
from repro.verify.hierdrc import hierarchical_drc


def signature(violations):
    return sorted((v.rule, v.layer, v.measured, v.required)
                  for v in violations)


def hier_signature(result):
    found = []
    for bucket in (result.leaf_violations, result.assembly_violations):
        for violations in bucket.values():
            found.extend(violations)
    return signature(found)


MACROS = {
    "cda07_32x4": dict(words=32, bpw=4, bpc=2, spares=4, process="cda07"),
    "scn4m_16x4": dict(words=16, bpw=4, bpc=2, process="scn4m"),
    "scn4m_16x4_dp": dict(words=16, bpw=4, bpc=2, ports=2, process="scn4m"),
    "scn4m_64x8_dp": dict(words=64, bpw=8, bpc=4, spare_cols=2, ports=2,
                          strap_every=8, process="scn4m"),
    "pfin7_16x4": dict(words=16, bpw=4, bpc=2, process="pfin7"),
}


class TestFlatVsHierarchical:
    @pytest.mark.parametrize("name", sorted(MACROS))
    def test_same_violations(self, name):
        config = RamConfig(**MACROS[name])
        top = BISRAMGen(config).build(signoff=None).floorplan.top
        process = get_process(config.process)
        flat = DrcChecker(process).check(top)
        hier = hierarchical_drc(top, process, cache=StageCache())
        assert signature(flat) == hier_signature(hier)
        assert flat == [] and hier.clean


# -- mutation corpus ----------------------------------------------------------

PROCESS = get_process("cda07")
L = PROCESS.lambda_cu
RULES = PROCESS.rules.rules
#: Planted geometry sits this far right of the macro: well beyond the
#: interaction halo, so the macro's own (clean) verdicts are unaffected.
OFFSET = 200 * L

#: enclosure rule -> (cut layer, encloser, other encloser or None)
ENCLOSURES = {
    "enclosure-metal1/contact": ("contact", "metal1", None),
    "enclosure-metal1/via1": ("via1", "metal1", "metal2"),
    "enclosure-metal2/via1": ("via1", "metal2", "metal1"),
    "enclosure-metal2/via2": ("via2", "metal2", "metal3"),
    "enclosure-metal3/via2": ("via2", "metal3", "metal2"),
}
SHORT = 10  # cu an undersized encloser falls short by


def via_stack(kind: str):
    """A cut with every encloser sized right except ``kind``'s, which
    falls ``SHORT`` cu short on its right side.

    Returns ``(cut, [(layer, rect), ...])`` in local coordinates.
    """
    cut_layer, bad, other = ENCLOSURES[kind]
    cut = Rect(3 * L, 3 * L, 5 * L, 5 * L)
    shapes = []
    for layer in (bad, other):
        if layer is None:
            continue
        margin = RULES[f"enclose.{layer}_{cut_layer}"]
        metal = cut.expanded(margin)
        if layer == bad:
            metal = Rect(metal.x1, metal.y1, metal.x2 - SHORT, metal.y2)
        shapes.append((layer, metal))
    return (cut_layer, cut), shapes


def leaf(name: str, shapes) -> Cell:
    cell = Cell(name)
    for layer, rect in shapes:
        cell.add_shape(layer, rect)
    return cell


def at(x: int, y: int = 0) -> Transform:
    return Transform(translation=Point(x, y))


def narrow_wire():
    return [("metal1", Rect(0, 0, 10 * L, RULES["width.metal1"] - 1))]


def close_wires():
    gap = RULES["space.metal1"] - L
    return [("metal1", Rect(0, 0, 4 * L, 3 * L)),
            ("metal1", Rect(4 * L + gap, 0, 8 * L + gap, 3 * L))]


def short_gate():
    # Poly crosses the diffusion vertically but overhangs its top edge
    # by one lambda less than the endcap rule.
    endcap = RULES["overhang.gate_poly"]
    diff = Rect(0, 2 * L, 10 * L, 6 * L)
    return [("ndiff", diff),
            ("poly", Rect(4 * L, 0, 6 * L, diff.y2 + endcap - L))]


def plant(rule: str, level: str, parent: Cell) -> str:
    """Plant one ``rule`` violation at ``level`` into ``parent``.

    Returns the cell the hierarchical sweep must blame.
    """
    if level == "leaf":
        if rule == "min-width":
            shapes = narrow_wire()
        elif rule == "min-space":
            shapes = close_wires()
        elif rule == "gate-endcap":
            shapes = short_gate()
        else:
            cut, metals = via_stack(rule)
            shapes = [cut] + metals
        parent.add_instance(leaf("plant_leaf", shapes), at(OFFSET))
        return "plant_leaf"
    if level == "seam":
        if rule == "min-width":
            # Width is a per-rectangle rule: a narrow stub abutting a
            # neighbour's wire is still its own cell's violation.
            wide = leaf("plant_wire", [("metal1", Rect(0, 0, 10 * L, 3 * L))])
            stub = leaf("plant_stub", narrow_wire())
            parent.add_instance(wide, at(OFFSET))
            parent.add_instance(stub, at(OFFSET + 10 * L))
            return "plant_stub"
        if rule == "min-space":
            pad = leaf("plant_pad", close_wires()[:1])
            parent.add_instance(pad, at(OFFSET))
            parent.add_instance(pad, at(OFFSET + close_wires()[1][1].x1))
            return parent.name
        if rule == "gate-endcap":
            (diff_layer, diff), (_, poly) = short_gate()
            parent.add_instance(leaf("plant_diff", [(diff_layer, diff)]),
                                at(OFFSET))
            parent.add_instance(leaf("plant_poly", [("poly", poly)]),
                                at(OFFSET))
            return parent.name
        # The undersized encloser ends at the seam; the neighbour's
        # abutting metal does not count, since one shape must enclose
        # the cut.
        cut, metals = via_stack(rule)
        _, bad, _ = ENCLOSURES[rule]
        edge = next(r for layer, r in metals if layer == bad).x2
        parent.add_instance(leaf("plant_via", [cut] + metals), at(OFFSET))
        parent.add_instance(
            leaf("plant_ext", [(bad, Rect(0, 0, 6 * L, 8 * L))]),
            at(OFFSET + edge))
        return "plant_via"
    # level == "parent": drawn by the parent itself
    if rule == "min-width":
        shapes = narrow_wire()
    elif rule == "min-space":
        shapes = close_wires()
    elif rule == "gate-endcap":
        shapes = short_gate()
    else:
        cut, metals = via_stack(rule)
        shapes = [cut] + metals
    for layer, rect in shapes:
        parent.add_shape(layer, rect.translated(Point(OFFSET, 0)))
    return parent.name


CORPUS = [(rule, level)
          for rule in ["min-width", "min-space", "gate-endcap",
                       *ENCLOSURES]
          for level in ("leaf", "seam", "parent")]


@pytest.fixture(scope="module")
def macro():
    return BISRAMGen(RamConfig(words=16, bpw=4, bpc=2, process="cda07")
                     ).build(signoff=None).floorplan.top


@pytest.fixture(scope="module")
def cache():
    """Shared across plants: only the planted cells are checked anew."""
    return StageCache()


class TestMutationCorpus:
    @pytest.mark.parametrize("rule,level", CORPUS,
                             ids=[f"{r}@{lv}" for r, lv in CORPUS])
    def test_detected_and_blamed(self, macro, cache, rule, level):
        top = Cell("planted")
        top.add_instance(macro)
        blamed = plant(rule, level, top)
        result = hierarchical_drc(top, PROCESS, cache=cache)

        base_rule = rule.split("/")[0]
        leaf_level = blamed != top.name
        bucket = (result.leaf_violations if leaf_level
                  else result.assembly_violations)
        other = (result.assembly_violations if leaf_level
                 else result.leaf_violations)
        assert [v.rule for v in bucket.get(blamed, [])] == [base_rule]
        assert set(bucket) == {blamed} and not other
        if rule.startswith("enclosure"):
            assert bucket[blamed][0].layer == ENCLOSURES[rule][0]
            assert bucket[blamed][0].measured == \
                RULES[f"enclose.{ENCLOSURES[rule][1]}_"
                      f"{ENCLOSURES[rule][0]}"] - SHORT
        assert signature(DrcChecker(PROCESS).check(top)) == \
            hier_signature(result)
