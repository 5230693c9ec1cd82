"""Deterministic RNG streams derived from a single experiment seed.

Child streams are tagged by purpose ("shuffle", "noise", ...) so that adding
a new consumer never shifts the draws seen by existing ones.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_key(seed: int, *tags) -> list[int]:
    """Stable entropy list for numpy's SeedSequence from a seed and tag path."""
    key = [int(seed) & 0xFFFFFFFF]
    for t in tags:
        if isinstance(t, (int, np.integer)):
            key.append(int(t) & 0xFFFFFFFF)
        else:
            key.append(zlib.crc32(str(t).encode("utf-8")))
    return key


def derive_rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_key(seed, *tags))


def derive_int(seed: int, *tags) -> int:
    """A derived 32-bit seed, for APIs that want a plain integer."""
    return int(np.random.SeedSequence(derive_key(seed, *tags)).generate_state(1)[0])

