"""Deterministic derivation of per-task random generators.

Every source of randomness in the package flows from a master seed through
``derive_rng(master, *tags)``. Tags are small ints or short strings naming
the consumer (e.g. ``("train", fold)``); strings are mapped to ints with
CRC-32 so the derivation is stable across processes and platforms. Two
consumers with different tag tuples get statistically independent streams,
which is what makes parallel schedules reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np
# By name: numpy loads numpy.random on first attribute access, and every run
# draws from it, so it loads with the package rather than inside a run.
from numpy.random import Generator, SeedSequence, default_rng


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"seed tags must be int or str, got {type(tag).__name__}")


def derive_seed_sequence(master: int, *tags) -> SeedSequence:
    return SeedSequence([int(master) & 0xFFFFFFFFFFFFFFFF]
                        + [_tag_to_int(t) for t in tags])


def derive_rng(master: int, *tags) -> Generator:
    """Child generator keyed by (master, tags); independent per tag tuple."""
    return default_rng(derive_seed_sequence(master, *tags))
