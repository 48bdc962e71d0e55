"""The simd engine's workspace contract: same key + shape -> same
buffer, shape or dtype change -> fresh allocation.  It is what lets the
summary pipeline run a whole campaign on one set of arrays."""

import pytest

np = pytest.importorskip("numpy")

from repro.engines.simd import Workspace  # noqa: E402


def test_workspace_reuses_buffers_by_key_and_shape():
    workspace = Workspace()
    first = workspace.take("words", (4, 2), np.uint64)
    assert first.shape == (4, 2) and first.dtype == np.uint64
    # Same key and shape: the very same buffer comes back.
    assert workspace.take("words", (4, 2), np.uint64) is first
    # Another key never aliases.
    other = workspace.take("pre", (4, 2), np.uint64)
    assert other is not first
    # A shape or dtype change reallocates.
    assert workspace.take("words", (5, 2), np.uint64) is not first
    resized = workspace.take("words", (4, 2), np.int16)
    assert resized is not first and resized.dtype == np.int16
    workspace.clear()
    assert workspace.take("pre", (4, 2), np.uint64) is not other
