"""Fixture and reflection tests of the ``capability`` rule."""

import importlib.util
import textwrap

from repro.devtools.lint.rules.capabilities import (
    RULE,
    check_conditional_registration,
    check_registered_engines,
)
from repro.engines.base import EngineCapabilities, SimulationEngine
from repro.engines.registry import (
    CONDITIONAL_ENGINES,
    available_engines,
    register_engine,
    unregister_engine,
)

FIXTURE_HEADER = """\
from repro.engines.base import EngineCapabilities, SimulationEngine
"""


class TestAstPass:
    def test_summary_flag_without_method_fires(self, run_rule):
        findings = run_rule(RULE, FIXTURE_HEADER + textwrap.dedent("""\
            class Broken(SimulationEngine):
                capabilities = EngineCapabilities(summary=True)

                def encode_pass(self, design):
                    pass

                def decode_pass(self, design):
                    pass
            """), "repro/engines/fixture.py")
        assert len(findings) == 1
        assert "run_batch_summary" in findings[0].message

    def test_implemented_method_behind_false_flag_fires(self, run_rule):
        findings = run_rule(RULE, FIXTURE_HEADER + textwrap.dedent("""\
            class DeadCode(SimulationEngine):
                capabilities = EngineCapabilities(summary=False)

                def encode_pass(self, design):
                    pass

                def decode_pass(self, design):
                    pass

                def run_batch_summary(self, states, knowns, flips, batch_size):
                    pass
            """), "repro/engines/fixture.py")
        assert len(findings) == 1
        assert "dead code" in findings[0].message

    def test_consistent_engine_is_quiet(self, run_rule):
        findings = run_rule(RULE, FIXTURE_HEADER + textwrap.dedent("""\
            class Fine(SimulationEngine):
                capabilities = EngineCapabilities(summary=True)

                def encode_pass(self, design):
                    pass

                def decode_pass(self, design):
                    pass

                def run_batch_summary(self, states, knowns, flips, batch_size):
                    pass
            """), "repro/engines/fixture.py")
        assert findings == []

    def test_computed_flags_defer_to_reflection(self, run_rule):
        # Non-literal capability values cannot be judged from the AST;
        # the registry reflection pass owns those.
        findings = run_rule(RULE, FIXTURE_HEADER + textwrap.dedent("""\
            HAVE_NUMPY = True

            class Computed(SimulationEngine):
                capabilities = EngineCapabilities(summary=HAVE_NUMPY)

                def encode_pass(self, design):
                    pass

                def decode_pass(self, design):
                    pass
            """), "repro/engines/fixture.py")
        assert findings == []


class _InconsistentEngine(SimulationEngine):
    """Declares summary support it does not implement."""

    capabilities = EngineCapabilities(summary=True)

    def encode_pass(self, design):
        pass

    def decode_pass(self, design):
        pass


class TestRegistryReflection:
    def test_all_registered_engines_are_consistent(self):
        """The regression the rule exists for: every engine the
        registry serves matches its own capability flags."""
        assert list(check_registered_engines()) == []

    def test_every_builtin_engine_is_covered(self):
        names = available_engines()
        assert "reference" in names and "packed" in names \
            and "simd" in names

    def test_inconsistent_registration_fires(self):
        register_engine("lint_probe_bad",
                        lambda design: _InconsistentEngine())
        try:
            findings = list(check_registered_engines(
                engine_names=("lint_probe_bad",)))
        finally:
            unregister_engine("lint_probe_bad")
        assert len(findings) == 1
        assert "summary=True" in findings[0].message
        assert "run_batch_summary" in findings[0].message


class TestConditionalRegistration:
    def test_live_registry_is_consistent(self):
        """Whatever this install has (numpy/cupy/numba present or
        not), gate and registry must agree -- in particular, an absent
        numba must NOT fire on the unregistered jit engine."""
        assert list(check_conditional_registration()) == []

    def test_jit_is_in_the_conditional_table(self):
        assert CONDITIONAL_ENGINES["jit"][0] == "numba"
        assert ("jit" in available_engines()) == (
            importlib.util.find_spec("numba") is not None)

    def test_importable_gate_without_registration_fires(self):
        """The rot the pass exists for: the dependency is installed
        but the engine never registered."""
        findings = list(check_conditional_registration(
            conditional={"ghost": ("json", "stdlib, always importable")},
            engine_names=()))
        assert len(findings) == 1
        assert "ghost" in findings[0].message
        assert "has rotted" in findings[0].message

    def test_registration_without_importable_gate_fires(self):
        findings = list(check_conditional_registration(
            conditional={"ghost": ("definitely_not_a_module", "extra")},
            engine_names=("ghost",)))
        assert len(findings) == 1
        assert "ImportError at first use" in findings[0].message

    def test_absent_gate_and_absent_engine_is_silent(self):
        """Graceful degradation: nothing installed, nothing registered,
        nothing reported."""
        findings = list(check_conditional_registration(
            conditional={"ghost": ("definitely_not_a_module", "extra")},
            engine_names=()))
        assert findings == []
