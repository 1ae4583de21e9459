"""Deterministic seed derivation.

Every random draw in the package comes from a numpy PCG64 generator whose
seed is derived from a global seed plus a stable chain of tags (stage names,
grid coordinates, sample content hashes). Derivation uses sha256, never the
process-dependent builtin hash(), so identical inputs give identical streams
on every platform and under any execution schedule.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_hash(*parts) -> int:
    """Collapse a mixed tuple of tags into a 64-bit integer, reproducibly."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            data = b"b:" + part
        elif isinstance(part, (bool, int, np.integer)):
            data = f"i:{int(part)}".encode()
        elif isinstance(part, (float, np.floating)):
            # repr is the shortest round-trip form, so equal floats hash equal
            data = f"f:{float(part)!r}".encode()
        else:
            data = f"s:{part}".encode()
        digest.update(data)
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "little")


def derive_seed(seed: int, *tags) -> int:
    return stable_hash(int(seed), *tags)


def derive_rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *tags))
