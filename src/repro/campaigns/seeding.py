"""Deterministic seed-splitting for sharded campaigns.

Large campaigns need one independent random stream per shard (and per
curve, per error count, ...).  Deriving those streams as ``seed +
offset`` is unsound: the offsets of two different consumers can
collide (e.g. curve 2 at offset 0 and curve 1 at offset 1), silently
correlating Monte-Carlo samples that the statistics assume are
independent.  NumPy solved this with ``SeedSequence.spawn``; this
module is the dependency-free equivalent.

A child seed is the leading 64 bits of a SHA-256 hash over the root
seed and a *path* of identifiers, each path element encoded with a type
tag and a length prefix so that distinct paths can never produce the
same byte string (``("ab", "c")`` vs ``("a", "bc")``, ``1`` vs
``"1"``).  Children are therefore:

* **deterministic** -- same root and path, same seed, on any platform
  (the derivation never consults global RNG state);
* **independent-by-construction** -- collisions between different
  paths are as likely as a SHA-256 collision;
* **hierarchical** -- a child seed can serve as the root of its own
  subtree (the scheduler derives per-chunk seeds from a campaign
  root that is itself a child of the user's seed).
"""

from __future__ import annotations

import hashlib
from typing import List, Union

PathElement = Union[int, str]

#: Child seeds are 64-bit: ``random.Random`` accepts arbitrary ints,
#: and 64 bits keeps them JSON/checkpoint friendly and collision-safe
#: for any realistic campaign size.
SEED_BITS = 64


def _encode_element(value: PathElement) -> bytes:
    """Unambiguous byte encoding of one path element."""
    if isinstance(value, bool):  # bool is an int subclass; reject it
        raise TypeError("path elements must be int or str, not bool")
    if isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                                 "big", signed=True)
        tag = b"i"
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        tag = b"s"
    else:
        raise TypeError(
            f"path elements must be int or str, got {type(value).__name__}")
    return tag + len(payload).to_bytes(4, "big") + payload


def child_seed(root: PathElement, *path: PathElement) -> int:
    """Derive one child seed from ``root`` along ``path``.

    ``root`` and every path element may be an int or a str.  Returns a
    uniform 64-bit integer.
    """
    digest = hashlib.sha256()
    digest.update(b"repro.campaigns.seeding/v1")
    digest.update(_encode_element(root))
    for element in path:
        digest.update(_encode_element(element))
    return int.from_bytes(digest.digest()[:SEED_BITS // 8], "big")


def spawn_seeds(root: PathElement, count: int,
                *path: PathElement) -> List[int]:
    """Derive ``count`` independent child seeds ``root/path/0..count-1``.

    This is the scheduler's per-chunk seed source: the chunk plan
    (and hence every chunk's seed) depends only on the campaign root
    seed and the chunk index, never on the worker count, which is what
    makes sharded results bit-identical for any parallelism.
    """
    if count < 0:
        raise ValueError("cannot spawn a negative number of seeds")
    return [child_seed(root, *path, index) for index in range(count)]


__all__ = ["child_seed", "spawn_seeds", "SEED_BITS"]
