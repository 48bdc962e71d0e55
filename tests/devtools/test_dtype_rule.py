"""Fixture tests of the ``dtype`` rule."""

import textwrap

import pytest

from repro.devtools.lint.rules.dtype import RULE, SCOPED_FILES


class TestDtypeDiscipline:
    @pytest.mark.parametrize("relpath",
                             [f"repro/{s}" for s in SCOPED_FILES])
    def test_missing_dtype_fires_in_every_scoped_file(self, run_rule,
                                                      relpath):
        findings = run_rule(
            RULE, "import numpy as np\nX = np.zeros((4, 4))\n", relpath)
        assert len(findings) == 1
        assert "dtype" in findings[0].message

    def test_explicit_dtype_is_quiet(self, run_rule):
        findings = run_rule(
            RULE,
            "import numpy as np\n"
            "X = np.zeros((4, 4), dtype=np.uint64)\n",
            "repro/engines/simd.py")
        assert findings == []

    def test_from_import_member_is_tracked(self, run_rule):
        findings = run_rule(
            RULE,
            "from numpy import asarray\nX = asarray([1, 2])\n",
            "repro/engines/simd.py")
        assert len(findings) == 1

    def test_like_constructors_are_exempt(self, run_rule):
        findings = run_rule(
            RULE,
            "import numpy as np\n"
            "def f(a):\n"
            "    return np.zeros_like(a), np.flatnonzero(a)\n",
            "repro/engines/simd.py")
        assert findings == []

    def test_out_of_scope_file_is_quiet(self, run_rule):
        findings = run_rule(
            RULE, "import numpy as np\nX = np.zeros(4)\n",
            "repro/engines/packed.py")
        assert findings == []

    def test_real_word_pipeline_modules_are_clean(self):
        from pathlib import Path

        from repro.devtools.lint import run_rules, scan

        src = Path(__file__).resolve().parents[2] / "src"
        project = scan([src / "repro" / "engines",
                        src / "repro" / "faults"])
        assert run_rules(project, rules=[RULE]) == []
