"""Checkpoint layer: durable, resumable campaign state.

A :class:`CheckpointStore` owns everything about the JSON checkpoint
file: header validation (a resume refuses a file from a different
campaign identity), atomic replacement (a reader never observes a torn
file), and the **save-interval policy** -- completed chunks are
buffered and the full payload is rewritten only every
``save_interval`` completions plus one final flush.  The
write-after-every-chunk default (``save_interval=1``) rewrites the
whole growing payload per chunk, O(chunks^2) bytes over a campaign; at
interval ``k`` that drops by a factor of ``k``, and the worst case
lost to a hard crash is bounded by ``k`` chunks of work.

The file format (``CHECKPOINT_FORMAT`` 1) is a header of the campaign
identity plus a ``completed`` mapping of chunk index to serialized
counters.  Format
bump rules stay with the tasks -- a task field added to
``fingerprint()`` invalidates old checkpoints without a format bump.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, Optional

#: JSON checkpoint schema version.
CHECKPOINT_FORMAT = 1


def _fingerprint_fields(fingerprint: Any) -> Optional[Dict[str, str]]:
    """Parse a dataclass-repr task fingerprint into ``{field: value}``.

    Task fingerprints are dataclass reprs
    (``Task(width=32, codes=('a', 'b'), ...)``); splitting happens at
    top-level commas only (bracket/quote aware).  Returns ``None`` for
    anything that does not look like one -- custom tasks may fingerprint
    differently, and the caller then falls back to the generic message.
    """
    if not isinstance(fingerprint, str):
        return None
    start = fingerprint.find("(")
    if start <= 0 or not fingerprint.endswith(")"):
        return None
    body = fingerprint[start + 1:-1]
    fields: Dict[str, str] = {}
    depth = 0
    quote = None
    token_start = 0
    tokens = []
    for i, ch in enumerate(body):
        if quote is not None:
            if ch == quote and body[i - 1] != "\\":
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            tokens.append(body[token_start:i])
            token_start = i + 1
    tokens.append(body[token_start:])
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        name, eq, value = token.partition("=")
        if not eq or not name.isidentifier():
            return None
        fields[name] = value
    return fields


def _describe_task_mismatch(old: Any, new: Any) -> Optional[str]:
    """Name the task-fingerprint fields that differ between a stored
    checkpoint and the running campaign (``None`` when unparseable)."""
    old_fields = _fingerprint_fields(old)
    new_fields = _fingerprint_fields(new)
    if old_fields is None or new_fields is None:
        return None
    added = sorted(set(new_fields) - set(old_fields))
    removed = sorted(set(old_fields) - set(new_fields))
    changed = sorted(name for name in set(old_fields) & set(new_fields)
                     if old_fields[name] != new_fields[name])
    parts = []
    if added:
        parts.append(
            f"task field(s) new in this version: {', '.join(added)} "
            f"(the checkpoint predates them)")
    if removed:
        parts.append(
            f"task field(s) no longer present: {', '.join(removed)}")
    if changed:
        parts.append("task field(s) with different values: " + ", ".join(
            f"{name}: {old_fields[name]} -> {new_fields[name]}"
            for name in changed))
    return "; ".join(parts) if parts else None


class CheckpointStore:
    """Owns one campaign's checkpoint file (or none).

    Parameters
    ----------
    path:
        Checkpoint file path; ``None`` makes every method a no-op, so
        callers need no conditional plumbing.
    save_interval:
        Completed chunks buffered between payload rewrites.  ``1``
        reproduces the historical write-per-chunk behaviour;  larger
        intervals trade a bounded amount of re-run work after a hard
        crash for dramatically less IO on many-chunk campaigns.
        :meth:`flush` (called by the scheduler on normal completion *and*
        on the way out of a failed run) persists any partial interval,
        so an orderly interruption loses nothing.
    """

    def __init__(self, path: Optional[str], save_interval: int = 1):
        if save_interval < 1:
            raise ValueError("save_interval must be >= 1")
        self.path = path
        self.save_interval = save_interval
        self._header: Dict[str, Any] = {}
        self._completed: Dict[int, Any] = {}
        self._unsaved = 0

    # -- reading -------------------------------------------------------
    def load_payload(self) -> Optional[Dict[str, Any]]:
        """The raw JSON payload of an existing file, or ``None``."""
        if self.path is None or not os.path.exists(self.path):
            return None
        with open(self.path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @staticmethod
    def validate(payload: Dict[str, Any],
                 header: Dict[str, Any]) -> None:
        """Refuse a payload whose header fields disagree with ours.

        A ``task`` fingerprint mismatch is the common upgrade hazard (a
        task field added or removed between versions changes the
        fingerprint of every pre-existing checkpoint, and a checkpoint
        written before a field was dropped still carries it), so the
        error names the exact task fields that were added, removed or
        changed rather than just saying "task".
        """
        mismatched = [key for key, value in header.items()
                      if payload.get(key) != value]
        if mismatched:
            detail = ""
            if "task" in mismatched:
                described = _describe_task_mismatch(
                    payload.get("task"), header["task"])
                if described:
                    detail = f"; {described}"
            raise ValueError(
                f"does not match this campaign "
                f"(stale fields: {', '.join(sorted(mismatched))}"
                f"{detail}); delete the file to start over, or re-run "
                f"with the original campaign parameters")

    @staticmethod
    def restore_completed(payload: Dict[str, Any],
                          result_from_dict: Callable[[Dict[str, Any]], Any]
                          ) -> Dict[int, Any]:
        """Rebuild the completed-chunk results of a payload."""
        return {int(index): result_from_dict(result)
                for index, result in payload.get("completed", {}).items()}

    # -- writing -------------------------------------------------------
    def attach(self, header: Dict[str, Any],
               completed: Dict[int, Any]) -> None:
        """Adopt the campaign header and the live completed dict.

        The store keeps a reference to ``completed`` (the scheduler keeps
        appending to the same dict), so a flush always persists the
        freshest state.
        """
        self._header = dict(header)
        self._completed = completed
        self._unsaved = 0

    def record(self, index: int, result: Any) -> None:
        """Note one newly completed chunk; flush on a full interval."""
        self._completed[index] = result
        if self.path is None:
            return
        self._unsaved += 1
        if self._unsaved >= self.save_interval:
            self.flush()

    @property
    def unsaved_chunks(self) -> int:
        """Completed chunks not yet persisted (0 with no path)."""
        return self._unsaved

    def flush(self) -> None:
        """Atomically rewrite the payload if anything is unsaved."""
        if self.path is None or self._unsaved == 0:
            return
        self.write(self._header, self._completed)
        self._unsaved = 0

    def write(self, header: Dict[str, Any],
              completed: Dict[int, Any]) -> None:
        """Unconditionally write one payload (atomic replace)."""
        if self.path is None:
            return
        payload = dict(header)
        payload["completed"] = {str(index): result.to_dict()
                                for index, result in completed.items()}
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps runs the C encoder (dump streams through the
                # pure-Python one); the bytes are the same.
                handle.write(json.dumps(payload))
            os.replace(tmp_path, self.path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


__all__ = ["CHECKPOINT_FORMAT", "CheckpointStore"]
