"""The engine registry: built-ins, third-party registration, validation."""

import pytest

from repro.circuit.generators import make_random_state_circuit
from repro.core.protected import ProtectedDesign
from repro.engines import (
    SimulationEngine,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
    validate_engine,
)


def _design(engine="reference"):
    circuit = make_random_state_circuit(20, seed=1)
    return ProtectedDesign(circuit, codes=["hamming(7,4)", "crc16"],
                           num_chains=4, engine=engine)


class RecordingEngine(SimulationEngine):
    """Third-party engine: reference semantics plus a call log."""

    def __init__(self):
        self.calls = []

    def encode_pass(self, design):
        self.calls.append("encode")
        return design.monitor_bank.encode_pass(design.chains)

    def decode_pass(self, design):
        self.calls.append("decode")
        return design.monitor_bank.decode_pass(design.chains)


class TestBuiltins:
    def test_builtins_registered(self):
        names = available_engines()
        assert "reference" in names
        assert "packed" in names

    def test_validate_engine_roundtrip(self):
        assert validate_engine("packed") == "packed"

    def test_validate_engine_normalises_case(self):
        """Case variants resolve to the canonical registry key, so the
        design's engine cache never aliases one engine twice."""
        assert validate_engine("Packed") == "packed"
        design = _design(engine="REFERENCE")
        assert design.engine == "reference"
        design.set_engine("Packed")
        assert design.engine == "packed"
        first = design._get_packed_engine()
        assert design._resolve_engine().engine is first

    def test_unknown_engine_lists_registered_names(self):
        with pytest.raises(ValueError) as err:
            validate_engine("verilog")
        message = str(err.value)
        assert "verilog" in message
        for name in available_engines():
            assert name in message

    def test_design_classmethods_source_from_registry(self):
        assert ProtectedDesign.available_engines() == available_engines()
        with pytest.raises(ValueError):
            ProtectedDesign.validate_engine("fpga")

    def test_get_engine_builds_per_design(self):
        pytest.importorskip("numpy")
        design = _design()
        engine = get_engine("simd", design)
        assert engine.name == "simd"
        assert engine.supports_summary


class TestThirdPartyRegistration:
    def test_registered_engine_appears_everywhere(self):
        register_engine("recording", lambda design: RecordingEngine())
        try:
            # Satellite requirement: registered engines appear in
            # available_engines() and validate_engine automatically.
            assert "recording" in available_engines()
            assert "recording" in ProtectedDesign.available_engines()
            assert ProtectedDesign.validate_engine("recording") \
                == "recording"

            design = _design(engine="recording")
            outcome = design.sleep_wake_cycle()
            assert outcome.state_intact
            engine = design._resolve_engine()
            assert isinstance(engine, RecordingEngine)
            assert engine.calls == ["encode", "decode"]
        finally:
            unregister_engine("recording")
        assert "recording" not in available_engines()

    def test_registered_engine_accepted_by_campaign_drivers(self):
        from repro.campaigns.tasks import FIFOValidationCampaignTask
        from repro.validation.campaign import ValidationCampaign
        from repro.validation.testbench import FIFOTestbench
        from repro.circuit.fifo import SyncFIFO

        register_engine("recording", lambda design: RecordingEngine())
        try:
            task = FIFOValidationCampaignTask(
                width=4, depth=4, num_chains=4, engine="recording")
            assert task.engine == "recording"
            fifo = SyncFIFO(4, 4, name="fifo4x4")
            design = ProtectedDesign(fifo, codes=["hamming(7,4)"],
                                     num_chains=4)
            bench = FIFOTestbench(design, words_per_sequence=2, seed=1)
            campaign = ValidationCampaign(bench, lambda rng: None,
                                          engine="recording")
            result = campaign.run(2)
            assert result.stats.num_sequences == 2
        finally:
            unregister_engine("recording")

    def test_duplicate_registration_requires_replace(self):
        register_engine("dup", lambda design: RecordingEngine())
        try:
            with pytest.raises(ValueError):
                register_engine("dup", lambda design: RecordingEngine())
            register_engine("dup", lambda design: RecordingEngine(),
                            replace=True)
        finally:
            unregister_engine("dup")

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError):
            unregister_engine("never-registered")

    def test_factory_must_return_an_engine(self):
        register_engine("broken", lambda design: object())
        try:
            with pytest.raises(TypeError):
                get_engine("broken", _design())
        finally:
            unregister_engine("broken")
