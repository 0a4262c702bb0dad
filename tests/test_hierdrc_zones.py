"""Interaction-zone queries of the hierarchical DRC sweep vs a reference.

The sweep's composite check collects, for each interaction zone, every
flattened shape touching it by descending the hierarchy in each cell's
own frame.  This test records every zone query of a full sweep over the
two benchmark macros and requires the plain recursive descent kept in
:func:`tests.drc_oracle.zone_shapes` to return the same ``(coords,
source)`` rows per layer, in the same order.
"""

import numpy as np
import pytest

from repro.core.compiler import BISRAMGen
from repro.core.config import RamConfig
from repro.core.stages import StageCache
from repro.tech import get_process
from repro.verify import hierdrc
from tests import drc_oracle

MACROS = {
    "cda07_32x4": dict(words=32, bpw=4, bpc=2, spares=4, process="cda07"),
    "scn4m_64x8_dp": dict(words=64, bpw=8, bpc=4, spare_cols=2, ports=2,
                          strap_every=8, process="scn4m"),
}


@pytest.mark.parametrize("name", sorted(MACROS))
def test_zone_queries_match_recursive_descent(name, monkeypatch):
    config = RamConfig(**MACROS[name])
    top = BISRAMGen(config).build(signoff=None).floorplan.top
    queries = []
    zone_shapes = hierdrc._zone_shapes

    def recorded(cell, region, memo):
        found = zone_shapes(cell, region, memo)
        queries.append((cell, region, found))
        return found

    monkeypatch.setattr(hierdrc, "_zone_shapes", recorded)
    result = hierdrc.hierarchical_drc(top, get_process(config.process),
                                      cache=StageCache())
    assert result.clean and queries

    memo: dict = {}
    for cell, region, found in queries:
        want = drc_oracle.zone_shapes(cell, region, memo)
        assert list(found) == list(want), (cell.name, region)
        for layer, (coords, sources) in want.items():
            assert np.array_equal(found[layer][0], coords), (cell.name, layer)
            assert np.array_equal(found[layer][1], sources), (cell.name, layer)
