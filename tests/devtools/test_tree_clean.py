"""The linter's own acceptance gate: the shipped tree is clean, and
each seed defect class makes the CLI exit non-zero again.

The first half is the CI tripwire (``run_lint`` over ``src/`` must
produce no findings, with every allowlist entry earning its keep); the
second half re-introduces one representative of each defect class the
rules were written for -- in a scratch tree -- and asserts the CLI
fails on it.
"""

import textwrap
from pathlib import Path

from repro.devtools.lint import main, run_lint
from repro.devtools.lint.allowlist import DEFAULT_ALLOWLIST
from repro.devtools.lint.rules import ALL_RULES, rules_by_id

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


class TestTreeClean:
    def test_src_tree_has_no_findings(self):
        result = run_lint([SRC])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"lint findings:\n{rendered}"

    def test_every_allowlist_entry_is_used(self):
        result = run_lint([SRC])
        assert result.unused == []
        assert len(result.suppressed) >= len(DEFAULT_ALLOWLIST)

    def test_cli_exits_zero_on_src(self, capsys):
        assert main([str(SRC), "-q"]) == 0

    def test_rule_registry_is_complete(self):
        ids = set(rules_by_id())
        assert ids == {"determinism", "fingerprint", "dtype", "pickle"}
        assert len(ALL_RULES) == len(ids)


def _write(tree: Path, relpath: str, source: str) -> Path:
    path = tree / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestSeedDefectsFailTheCli:
    """Each reverted seed defect class must flip the exit status."""

    def test_unseeded_random_in_engines(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/engines/noise.py", """\
            import random

            def jitter():
                return random.random()
            """)
        assert main([str(tmp_path / "src"), "-q"]) == 1
        assert "[determinism]" in capsys.readouterr().out

    def test_task_field_missing_from_fingerprint(self, tmp_path,
                                                 capsys):
        _write(tmp_path, "src/repro/campaigns/bad_task.py", """\
            from dataclasses import dataclass
            from repro.campaigns.runner import CampaignTask

            @dataclass(frozen=True)
            class BadTask(CampaignTask):
                width: int = 4
                sampler: str = "scalar"

                def fingerprint(self):
                    return f"bad:{self.width}"
            """)
        assert main([str(tmp_path / "src"), "-q"]) == 1
        assert "[fingerprint]" in capsys.readouterr().out

    def test_dtype_less_constructor_in_simd(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/engines/simd.py", """\
            import numpy as np

            SCRATCH = np.zeros((4, 4))
            """)
        assert main([str(tmp_path / "src"), "-q"]) == 1
        assert "[dtype]" in capsys.readouterr().out

    def test_clean_scratch_tree_passes(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/engines/fine.py", """\
            import random

            def jitter(rng: random.Random) -> float:
                return rng.random()
            """)
        assert main([str(tmp_path / "src"), "-q"]) == 0


class TestCliInterface:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_select_unknown_rule_is_usage_error(self, tmp_path):
        import pytest

        _write(tmp_path, "src/x.py", "X = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "src"), "--select", "nonsense"])
        assert excinfo.value.code == 2

    def test_select_narrows_rules(self, tmp_path, capsys):
        # A determinism violation is invisible to a dtype-only run.
        _write(tmp_path, "src/repro/engines/noise.py", """\
            import random
            X = random.random()
            """)
        assert main([str(tmp_path / "src"), "--select", "dtype",
                     "-q"]) == 0

    def test_missing_path_is_usage_error(self):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["definitely/not/a/path"])
        assert excinfo.value.code == 2

    def test_no_allowlist_surfaces_sanctioned_sites(self, capsys):
        # Audit mode: the sanctioned draws become visible findings.
        assert main([str(SRC), "--no-allowlist", "--select",
                     "determinism", "-q"]) == 1
        out = capsys.readouterr().out
        assert "campaigns/runner.py" in out
        assert "campaigns/scheduler.py" in out
        assert "faults/patterns.py" in out
