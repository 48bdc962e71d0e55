"""Fixture tests of the ``fingerprint`` rule."""

import textwrap

from repro.devtools.lint.rules.fingerprint import RULE

HEADER = """\
from dataclasses import dataclass, field
from repro.campaigns.runner import CampaignTask
"""


class TestDefaultFingerprintPath:
    def test_clean_dataclass_is_quiet(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class GoodTask(CampaignTask):
                width: int = 4
                depth: int = 4
            """), "repro/campaigns/fixture.py")
        assert findings == []

    def test_repr_false_field_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class LeakyTask(CampaignTask):
                width: int = 4
                batch_size: int = field(default=64, repr=False)
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "batch_size" in findings[0].message
        assert "repr=False" in findings[0].message

    def test_non_dataclass_with_fields_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            class PlainTask(CampaignTask):
                width: int = 4
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "not a dataclass" in findings[0].message


class TestOverrideFingerprintPath:
    def test_override_covering_all_fields_is_quiet(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class CustomTask(CampaignTask):
                width: int = 4
                depth: int = 4

                def fingerprint(self):
                    return f"custom:{self.width}x{self.depth}"
            """), "repro/campaigns/fixture.py")
        assert findings == []

    def test_override_missing_a_field_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class ForgetfulTask(CampaignTask):
                width: int = 4
                sampler: str = "scalar"

                def fingerprint(self):
                    return f"forgetful:{self.width}"
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "'sampler'" in findings[0].message

    def test_string_key_mention_counts(self, run_rule):
        # Dict-key style fingerprints mention fields as string
        # literals; that must satisfy the rule.
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class DictTask(CampaignTask):
                width: int = 4

                def fingerprint(self):
                    return repr({"width": getattr(self, "width")})
            """), "repro/campaigns/fixture.py")
        assert findings == []


class TestSubclassDiscovery:
    def test_aliased_import_is_followed(self, run_rule):
        findings = run_rule(RULE, textwrap.dedent("""\
            from repro.campaigns.runner import CampaignTask as Base

            class Hidden(Base):
                width: int = 4
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1

    def test_in_file_subclass_chain_is_followed(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class Mid(CampaignTask):
                width: int = 4

            @dataclass(frozen=True)
            class Leaf(Mid):
                depth: int = field(default=4, repr=False)
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "Leaf.depth" in findings[0].message

    def test_unrelated_dataclass_is_ignored(self, run_rule):
        findings = run_rule(RULE, textwrap.dedent("""\
            from dataclasses import dataclass, field

            @dataclass
            class NotATask:
                hidden: int = field(default=0, repr=False)
            """), "repro/campaigns/fixture.py")
        assert findings == []


class TestRealTaskClasses:
    def test_project_task_modules_are_clean(self):
        """The shipped task definitions pass the rule (the PR 3/PR 5
        batch_size/sampler incidents stay fixed)."""
        from pathlib import Path

        from repro.devtools.lint import run_rules, scan

        src = Path(__file__).resolve().parents[2] / "src"
        project = scan([src / "repro" / "campaigns",
                        src / "repro" / "analysis"])
        assert run_rules(project, rules=[RULE]) == []
