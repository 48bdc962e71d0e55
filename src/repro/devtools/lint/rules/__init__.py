"""Rule registry of the project linter.

Each rule lives in its own module and exposes a ``RULE`` singleton;
``ALL_RULES`` is the runner's source of truth.  Adding a rule is:
write the module, add it here, document it in the README's static
analysis section, and give it fixture tests in ``tests/devtools/``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.devtools.lint.findings import Rule
from repro.devtools.lint.rules.determinism import (
    RULE as DETERMINISM_RULE,
)
from repro.devtools.lint.rules.dtype import RULE as DTYPE_RULE
from repro.devtools.lint.rules.fingerprint import (
    RULE as FINGERPRINT_RULE,
)
from repro.devtools.lint.rules.pickle_safety import (
    RULE as PICKLE_RULE,
)

ALL_RULES: Tuple[Rule, ...] = (
    DETERMINISM_RULE,
    FINGERPRINT_RULE,
    DTYPE_RULE,
    PICKLE_RULE,
)


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}


__all__ = ["ALL_RULES", "rules_by_id"]
