"""Dual-port arrays: geometry, signoff, digests, port-aware BIST.

The dual-port macro shape rides on the same compile pipeline; these
tests pin (a) that single-port output did not move a single byte when
the port plumbing landed, and (b) that the ``ports=2`` shape carries
its second word-line/bit-line set through floorplan, signoff, the
datasheet, and the self-test schedule.
"""

import hashlib

import pytest

from repro import RamConfig, compile_ram
from repro.bist import IFA_9, PortView, port_bindings, run_dual_port_test
from repro.core.errors import ConfigError
from repro.memsim.device import BisrRam


def _config(**overrides):
    params = dict(words=64, bpw=8, bpc=4, spares=4, strap_every=8)
    params.update(overrides)
    return RamConfig(**params)


class TestSinglePortUnchanged:
    """Adding ``ports`` must not disturb historical layouts."""

    GOLDEN_CIF = {
        "cda05": "2f0f6208a55e5ec5d93a8d34fd939c7f"
                 "8610b85ba69bbd7142f2bd0e84c74a7c",
        "cda07": "9b2f54d6fae49468828bc568a4e4a71d"
                 "1e7a4cf56891644c583716f610441001",
    }

    @pytest.mark.parametrize("process", sorted(GOLDEN_CIF))
    def test_layout_bytes_pinned(self, process):
        ram = compile_ram(_config(process=process), signoff="strict")
        digest = hashlib.sha256(
            ram.cif_text().encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN_CIF[process]

    def test_default_config_is_single_port(self):
        config = _config()
        assert config.ports == 1
        assert "dual-port" not in config.describe()


class TestDualPortConfig:
    def test_ports_validated(self):
        with pytest.raises(ConfigError, match="ports"):
            _config(ports=3)

    def test_roundtrip_and_describe(self):
        config = _config(ports=2)
        assert RamConfig.from_dict(config.to_dict()) == config
        assert "dual-port" in config.describe()


class TestDualPortMacro:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_ram(_config(ports=2), signoff="strict")

    def test_signoff_clean(self, compiled):
        assert compiled.signoff.clean

    def test_floorplan_carries_port_b_structures(self, compiled):
        names = set(compiled.floorplan.macrocells)
        assert "precharge_row_b" in names
        assert "decoder_col_b" in names

    def test_array_exports_second_bitline_pair(self, compiled):
        array = compiled.floorplan.macrocells["array"]
        ports = {p.name for p in array.ports()}
        assert "bl2_0" in ports and "blb2_0" in ports
        assert "bl2_t_0" in ports and "blb2_t_0" in ports

    def test_datasheet_reports_deck_fingerprint(self, compiled):
        from repro.tech import get_process

        fp = get_process("cda07").fingerprint()
        assert compiled.datasheet.deck_fingerprint == fp
        assert fp in compiled.datasheet.summary()

    def test_flow_report_names_rule_deck(self, compiled):
        assert "rule deck" in compiled.flow_report()

    def test_simulation_model_is_dual_port(self, compiled):
        model = compiled.simulation_model()
        assert model.ports == 2

    def test_dual_port_taller_cell_grows_area(self):
        single = compile_ram(_config(), signoff=None)
        dual = compile_ram(_config(ports=2), signoff=None)
        assert dual.floorplan.top.bbox().height > \
            single.floorplan.top.bbox().height


class TestPortAwareBist:
    def _device(self, **overrides):
        params = dict(rows=16, bpw=8, bpc=4, spares=4, ports=2)
        params.update(overrides)
        return BisrRam(**params)

    def test_bindings_sweep(self):
        assert port_bindings(1) == [("a", 0, 0)]
        labels = [b[0] for b in port_bindings(2)]
        assert labels == ["a", "b", "w0r1", "w1r0"]

    def test_portview_bounds(self):
        device = self._device()
        with pytest.raises(ValueError):
            PortView(device, write_port=2)
        with pytest.raises(ValueError):
            device.read(0, port=5)

    def test_all_bindings_repair_clean_device(self):
        results = run_dual_port_test(self._device(), IFA_9, passes=2)
        assert set(results) == {"a", "b", "w0r1", "w1r0"}
        assert all(not r.repair_unsuccessful for r in results.values())

    def test_cross_port_sees_shared_storage(self):
        device = self._device()
        device.write(3, 0xA5, port=0)
        assert device.read(3, port=1) == 0xA5
        assert device.port_ops == [1, 1]

    def test_repair_via_one_port_serves_both(self):
        from repro.memsim.faults import RowStuck

        device = self._device()
        # Kill a storage row, repair through the port-A pass, then
        # confirm port B reads diverted data too.
        device.array.inject(
            RowStuck(row=2, phys_cols=device.array.phys_cols, value=0))
        view = PortView(device, write_port=0, read_port=0)
        from repro.bist.controller import BistScheduler

        result = BistScheduler(IFA_9, bpw=8).run(view, passes=2)
        assert not result.repair_unsuccessful
        device.repair_mode = True
        device.write(8, 0x3C, port=1)
        assert device.read(8, port=0) == 0x3C

    @pytest.mark.parametrize("label,write_port,read_port", port_bindings(2))
    def test_supervising_through_a_view_matches_the_device(
            self, label, write_port, read_port):
        from repro.bisr import RepairSupervisor
        from repro.memsim.faults import StuckAt

        def faulty():
            device = self._device(rows=8, bpw=4, bpc=4, spares=1)
            for row in (5, 2):
                device.array.inject(StuckAt(
                    device.array.cell_index(row, 1, 3), 1))
            return device

        supervisor = RepairSupervisor(IFA_9, bpw=4)
        direct = supervisor.run(faulty())
        viewed = supervisor.run(PortView(faulty(), write_port, read_port))
        assert direct.degraded and direct.reason.startswith(
            "spares exhausted")
        assert direct.spares_used == 1
        assert viewed == direct
