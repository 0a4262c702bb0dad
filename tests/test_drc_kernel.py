"""The array DRC kernel against the scalar reference kernel.

Every test compares exact violation lists (rule, layer, measured,
required and ``where``, in order) between :mod:`repro.layout.drc` and
the rectangle-at-a-time checker kept in :mod:`tests.drc_oracle`, on
rectangle sets drawn on a coarse lambda grid so that touching,
abutting, corner-only and zero-area shapes come up often.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.layout import drc
from repro.layout.drc import DrcChecker, close_pairs, group_labels, rect_array
from repro.tech import get_process
from repro.tech.rules import DesignRules
from repro.verify import hierdrc
from tests import drc_oracle

PROCESS = get_process("cda07")
LAM = PROCESS.lambda_cu
LAYERS = ("metal1", "metal2", "metal3", "contact", "via1", "via2",
          "poly", "ndiff", "pdiff")
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def process_with(corner_touch: int):
    rules = dict(PROCESS.rules.rules)
    rules["touch.corner"] = corner_touch
    return replace(PROCESS, rules=DesignRules(PROCESS.lambda_cu, rules))


PROCESSES = {ct: process_with(ct) for ct in (0, 1)}

#: Sides of 0 (a zero-thickness marker) up to 8 lambda, plus a
#: non-grid side that makes narrow shapes and off-grid gaps.
sides = st.sampled_from([0, LAM, 2 * LAM, 3 * LAM, 4 * LAM, 8 * LAM,
                         3 * LAM - 1])


@st.composite
def rects(draw, span: int = 16):
    x = draw(st.integers(0, span)) * LAM
    y = draw(st.integers(0, span)) * LAM
    return Rect(x, y, x + draw(sides), y + draw(sides))


def layouts(layers=LAYERS, max_size: int = 40):
    return st.dictionaries(st.sampled_from(layers),
                           st.lists(rects(), min_size=1, max_size=max_size),
                           max_size=len(layers))


def assert_same(got, want):
    assert [(v.rule, v.layer, v.measured, v.required, v.where)
            for v in got] == \
        [(v.rule, v.layer, v.measured, v.required, v.where) for v in want]


class TestFlatKernel:
    @SETTINGS
    @given(by_layer=layouts(), corner_touch=st.sampled_from([0, 1]),
           max_violations=st.sampled_from([1, 2, 5, 1000]),
           widths=st.booleans())
    @example(  # corner-only contact: one group or a zero-gap violation
        by_layer={"metal1": [Rect(0, 0, 3 * LAM, 3 * LAM),
                             Rect(3 * LAM, 3 * LAM, 6 * LAM, 6 * LAM)]},
        corner_touch=0, max_violations=1000, widths=True)
    def test_check_layers_matches_scalar(self, by_layer, corner_touch,
                                         max_violations, widths):
        process = PROCESSES[corner_touch]
        got = DrcChecker(process).check_layers(by_layer, max_violations,
                                               widths)
        want = drc_oracle.ScalarDrcChecker(process).check_layers(
            by_layer, max_violations, widths)
        assert_same(got, want)

    @pytest.mark.parametrize("cut_layer,encloser", [
        (cut, metal) for cut, metals in DrcChecker._CUT_ENCLOSURES.items()
        for metal in metals])
    @SETTINGS
    @given(data=st.data())
    def test_every_cut_encloser_pair(self, cut_layer, encloser, data):
        cuts = data.draw(st.lists(rects(), min_size=1, max_size=12))
        metal = data.draw(st.lists(rects(), max_size=12))
        by_layer = {cut_layer: cuts, encloser: metal}
        got = DrcChecker(PROCESS)._check_enclosures(by_layer)
        want = drc_oracle.ScalarDrcChecker(PROCESS).check_enclosures(
            by_layer)
        assert_same(got, want)

    @SETTINGS
    @given(by_layer=layouts(("poly", "ndiff", "pdiff")))
    def test_gates_match_scalar(self, by_layer):
        got = DrcChecker(PROCESS)._check_gates(by_layer)
        want = drc_oracle.ScalarDrcChecker(PROCESS).check_gates(by_layer)
        assert_same(got, want)

    @SETTINGS
    @given(shapes=st.lists(rects(), max_size=60),
           corner_touch=st.booleans())
    def test_groups_match_scalar(self, shapes, corner_touch):
        labels = group_labels(rect_array(shapes), corner_touch)
        groups = {}
        for k, label in enumerate(labels):
            groups.setdefault(int(label), []).append(shapes[k])
        assert list(groups.values()) == drc_oracle.connected_groups(
            shapes, corner_touch)

    def test_known_fixture_in_scalar_order(self):
        from tests.test_layout_drc import TestKnownDirtyFixture

        cell = TestKnownDirtyFixture()._dirty_cell()
        by_layer = {}
        for layer, rect in cell.flatten():
            by_layer.setdefault(layer, []).append(rect)
        assert_same(DrcChecker(PROCESS).check(cell),
                    drc_oracle.ScalarDrcChecker(PROCESS).check_layers(
                        by_layer))


class TestClosePairs:
    @staticmethod
    def brute(a, b, reach):
        if b is None:
            return {(i, j) for i in range(len(a)) for j in range(i + 1, len(a))
                    if a[i].spacing_to(a[j]) < reach}
        return {(i, j) for i in range(len(a)) for j in range(len(b))
                if a[i].spacing_to(b[j]) < reach}

    @SETTINGS
    @given(a=st.lists(rects(), max_size=40), b=st.lists(rects(), max_size=40),
           bipartite=st.booleans(), reach=st.sampled_from([1, LAM, 4 * LAM]))
    def test_matches_brute_force(self, a, b, bipartite, reach):
        other = b if bipartite else None
        i, j = close_pairs(rect_array(a),
                           rect_array(b) if bipartite else None, reach)
        pairs = list(zip(i.tolist(), j.tolist()))
        if not bipartite:
            pairs = [(min(p), max(p)) for p in pairs]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == self.brute(a, other, reach)

    @settings(max_examples=40, deadline=None)
    @given(by_layer=layouts(max_size=60), corner_touch=st.sampled_from([0, 1]))
    def test_tiny_blocks_change_nothing(self, by_layer, corner_touch):
        """Sweeps split across many blocks give the same verdicts."""
        process = PROCESSES[corner_touch]
        want = drc_oracle.ScalarDrcChecker(process).check_layers(by_layer)
        saved = drc.PAIR_BLOCK
        drc.PAIR_BLOCK = 3
        try:
            got = DrcChecker(process).check_layers(by_layer)
        finally:
            drc.PAIR_BLOCK = saved
        assert_same(got, want)


@st.composite
def sourced(draw, layers):
    """Zone items: positive-area shapes tagged with sources 0..3."""
    shape = rects().filter(lambda r: r.area > 0)
    return {layer: draw(st.lists(st.tuples(shape, st.integers(0, 3)),
                                 min_size=1, max_size=30))
            for layer in layers}


def as_sourced(items):
    return (rect_array([r for r, _ in items]),
            np.array([s for _, s in items], dtype=np.int64))


class TestHierarchicalKernels:
    @SETTINGS
    @given(items=sourced(["metal1"]), corner_touch=st.sampled_from([0, 1]))
    def test_cross_spacing_matches_scalar(self, items, corner_touch):
        process = PROCESSES[corner_touch]
        got = hierdrc._cross_spacing(DrcChecker(process), "metal1",
                                     as_sourced(items["metal1"]))
        want = drc_oracle.cross_spacing(process, "metal1", items["metal1"])
        assert_same(got, want)

    @SETTINGS
    @given(items=sourced(["poly", "ndiff"]))
    def test_cross_gates_matches_scalar(self, items):
        polys, diffs = items["poly"], items["ndiff"]
        got = hierdrc._cross_gates(DrcChecker(PROCESS), as_sourced(polys),
                                   as_sourced(diffs))
        want = drc_oracle.cross_gates(PROCESS, polys, diffs)
        assert_same(got, want)


class TestPlaced:
    @settings(max_examples=50, deadline=None)
    @given(shapes=st.lists(rects(), min_size=1, max_size=10),
           dx=st.integers(-50, 50), dy=st.integers(-50, 50))
    def test_matches_rect_transformed(self, shapes, dx, dy):
        from repro.geometry import ALL_ORIENTATIONS, Point, Transform

        for orientation in ALL_ORIENTATIONS:
            t = Transform(orientation, Point(dx * LAM, dy * LAM))
            assert drc.placed(rect_array(shapes), t).tolist() == \
                rect_array([r.transformed(t) for r in shapes]).tolist()


class TestLvsBridges:
    @SETTINGS
    @given(routing=st.lists(rects(), max_size=25),
           pads=st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                         min_size=1, max_size=8),
           corner_touch=st.sampled_from([0, 1]))
    def test_bridges_match_scalar(self, routing, pads, corner_touch):
        """Parent routing shorts the same port landings either way."""
        from repro.geometry import Point, Transform
        from repro.layout import Cell, Port
        from repro.verify.lvs import _geometry_bridges

        pad = Cell("pad")
        pad.add_shape("metal1", Rect(0, 0, 2 * LAM, 2 * LAM))
        # an edge port (zero-thickness) and an area port
        pad.add_port(Port("e", "metal1", Rect(0, 0, 0, 2 * LAM)))
        pad.add_port(Port("a", "metal1", Rect(0, 0, 2 * LAM, 2 * LAM)))
        parent = Cell("parent")
        for k, (x, y) in enumerate(pads):
            parent.add_instance(pad, Transform(translation=Point(
                x * LAM, y * LAM)), name=f"p{k}")
        for r in routing:
            parent.add_shape("metal1", r)
        process = PROCESSES[corner_touch]
        assert _geometry_bridges(parent, process, []) == \
            drc_oracle.geometry_bridges(parent, process)
