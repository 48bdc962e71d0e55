"""Fixture tests of the ``pickle`` rule."""

import textwrap

from repro.devtools.lint.rules.pickle_safety import RULE

HEADER = """\
from dataclasses import dataclass, field
from typing import Callable, Optional
from repro.campaigns.runner import CampaignTask
"""


class TestFieldHazards:
    def test_callable_annotation_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class CallbackTask(CampaignTask):
                factory: Optional[Callable[[int], int]] = None
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "Callable" in findings[0].message

    def test_lambda_default_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class LambdaTask(CampaignTask):
                scale = lambda x: x + 1
                width: object = lambda: 4
            """), "repro/campaigns/fixture.py")
        assert any("lambda" in f.message for f in findings)

    def test_plain_value_fields_are_quiet(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class PlainTask(CampaignTask):
                width: int = 4
                codes: tuple = ("hamming(7,4)",)
            """), "repro/campaigns/fixture.py")
        assert findings == []


class TestSelfAssignmentHazards:
    def test_self_lambda_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            class SneakyTask(CampaignTask):
                def configure(self):
                    self.transform = lambda x: x
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "self.transform" in findings[0].message

    def test_self_open_handle_fires(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            class LoggingTask(CampaignTask):
                def configure(self, path):
                    self.log = open(path, "a")
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "open" in findings[0].message

    def test_local_handles_inside_methods_are_quiet(self, run_rule):
        # Opening inside the method body without storing on self is
        # exactly the recommended pattern.
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            class FineTask(CampaignTask):
                def run_chunk(self, start, size, root_seed):
                    with open("data") as handle:
                        return handle.read()
            """), "repro/campaigns/fixture.py")
        assert findings == []


class TestSubclassDiscovery:
    """``task_classes`` finds CampaignTask subclasses however the base
    is named."""

    def test_aliased_import_is_followed(self, run_rule):
        findings = run_rule(RULE, textwrap.dedent("""\
            from repro.campaigns.runner import CampaignTask as Base

            class Hidden(Base):
                def configure(self):
                    self.transform = lambda x: x
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "Hidden.configure" in findings[0].message

    def test_in_file_subclass_chain_is_followed(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass(frozen=True)
            class Mid(CampaignTask):
                width: int = 4

            @dataclass(frozen=True)
            class Leaf(Mid):
                factory: Optional[Callable[[int], int]] = None
            """), "repro/campaigns/fixture.py")
        assert len(findings) == 1
        assert "Leaf.factory" in findings[0].message

    def test_unrelated_class_is_ignored(self, run_rule):
        findings = run_rule(RULE, HEADER + textwrap.dedent("""\
            @dataclass
            class NotATask:
                factory: Optional[Callable[[int], int]] = None
            """), "repro/campaigns/fixture.py")
        assert findings == []


class TestWorkerCacheScope:
    """In the worker-cache module *every* class is in scope.

    Cached worker-side state outlives chunks inside warm persistent
    workers, so the pickle/handle hazards apply to any class defined
    there -- not only CampaignTask subclasses.
    """

    FIXTURE = textwrap.dedent("""\
        class ChunkWorkspace:
            def __init__(self, task):
                self.transform = lambda x: x

        class TraceSink:
            def attach(self, path):
                self.handle = open(path, "a")
        """)

    def test_plain_classes_fire_in_worker_cache_module(self, run_rule):
        findings = run_rule(RULE, self.FIXTURE,
                            "repro/campaigns/worker_cache.py")
        assert len(findings) == 2
        assert any("ChunkWorkspace" in f.message and "lambda" in f.message
                   for f in findings)
        assert any("TraceSink" in f.message and "open" in f.message
                   for f in findings)

    def test_same_classes_quiet_elsewhere(self, run_rule):
        # Outside the worker-cache module only CampaignTask
        # subclasses are checked; these plain classes never cross a
        # process boundary there.
        findings = run_rule(RULE, self.FIXTURE,
                            "repro/campaigns/fixture.py")
        assert findings == []

    def test_shipped_worker_cache_module_is_clean(self):
        """The real module must satisfy its own widened rule."""
        from pathlib import Path

        import repro.campaigns.worker_cache as module
        from lint_fixtures import make_file, make_project

        path = Path(module.__file__)
        file = make_file(path.read_text(),
                         "repro/campaigns/worker_cache.py")
        project = make_project(file)
        assert list(RULE.check_file(project, file)) == []


class TestRealTaskClasses:
    def test_shipped_tasks_pickle_cleanly(self):
        """Cross-check the rule's claim against the real pickler."""
        import pickle

        from repro.campaigns.tasks import FIFOValidationCampaignTask

        task = FIFOValidationCampaignTask(width=8, depth=8,
                                          codes=("hamming(7,4)",),
                                          num_chains=8)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
