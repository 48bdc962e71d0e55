"""The explicit allowlist of sanctioned rule violations.

Every entry names the rule it silences, the file it applies to, a
snippet that must appear on the flagged source line, and a written
justification.  There is deliberately no way to skip a whole file or a
whole rule: an entry matches exactly one kind of line in exactly one
file, so a new violation of the same rule in the same file still
fails.  Entries that match nothing are themselves reported (a stale
entry usually means the sanctioned code was refactored and the lint
exemption should move or die with it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.devtools.lint.findings import Finding, SourceFile


@dataclass(frozen=True)
class Allow:
    """One sanctioned violation.

    ``path`` matches on the project-relative path's suffix (so the
    same entry works when the tree is scanned as ``src/`` or as
    ``repro/``); ``snippet`` must occur verbatim on the flagged line.
    """

    rule: str
    path: str
    snippet: str
    justification: str

    def matches(self, finding: Finding, line_text: str) -> bool:
        return (finding.rule == self.rule
                and finding.path.endswith(self.path)
                and self.snippet in line_text)


#: The project's sanctioned violations.  Keep this list short and every
#: justification honest -- the linter reports unused entries.
DEFAULT_ALLOWLIST: Tuple[Allow, ...] = (
    Allow(
        rule="determinism",
        path="campaigns/scheduler.py",
        snippet="random.SystemRandom().getrandbits(64)",
        justification=(
            "sanctioned root-seed draw: seed=None explicitly asks for a "
            "fresh random campaign root (such jobs are exempt from the "
            "result cache); the draw happens once, in the parent, the "
            "drawn root is recorded in the checkpoint header so "
            "resume/replay stay deterministic, and all chunk seeds "
            "derive deterministically from it"),
    ),
    Allow(
        rule="determinism",
        path="faults/patterns.py",
        snippet="return random.Random()",
        justification=(
            "interactive convenience fallback, consolidated in "
            "_unseeded_rng(): the pattern factories accept rng=None for "
            "exploratory one-off use; every campaign/test path injects "
            "a seeded Random derived from the chunk seed"),
    ),
)


@dataclass
class AllowlistResult:
    """Outcome of applying an allowlist to raw findings."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Allow]] = field(default_factory=list)
    unused: List[Allow] = field(default_factory=list)


def apply_allowlist(findings: Iterable[Finding],
                    files: Iterable[SourceFile],
                    allowlist: Iterable[Allow]) -> AllowlistResult:
    """Split findings into kept and suppressed; surface stale entries.

    An unused entry becomes a finding of rule ``allowlist`` so the
    exemption list can never silently outlive the code it excuses.
    """
    sources = {file.relpath: file for file in files}
    allowlist = list(allowlist)
    used = set()
    result = AllowlistResult()
    for finding in findings:
        file = sources.get(finding.path)
        line_text = file.line(finding.line) if file is not None else ""
        for position, allow in enumerate(allowlist):
            if allow.matches(finding, line_text):
                used.add(position)
                result.suppressed.append((finding, allow))
                break
        else:
            result.findings.append(finding)
    scanned = {file.relpath for file in sources.values()}
    for position, allow in enumerate(allowlist):
        if position in used:
            continue
        # Only report staleness when the entry's file was part of this
        # scan; linting a fixture directory must not flag the project
        # allowlist as stale.
        if any(relpath.endswith(allow.path) for relpath in scanned):
            result.unused.append(allow)
            result.findings.append(Finding(
                rule="allowlist", path=allow.path, line=0,
                message=(f"unused allowlist entry for rule "
                         f"{allow.rule!r} (snippet {allow.snippet!r} "
                         f"matched no finding); remove or update it")))
    return result


__all__ = ["Allow", "AllowlistResult", "DEFAULT_ALLOWLIST",
           "apply_allowlist"]
