"""Deterministic derivation of named RNG streams from one master seed.

Every stochastic routine takes a master seed plus a path of names/indices
and builds an independent ``numpy`` generator from them, so reruns are
bit-identical and sub-experiments can be reproduced in isolation.
"""

from __future__ import annotations

import zlib

import numpy as np


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf-8"))


def child_seed(master: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the child stream identified by ``path``."""
    if master < 0:
        raise ValueError("master seed must be non-negative")
    return np.random.SeedSequence(int(master), spawn_key=tuple(_token(p) for p in path))


def child_rng(master: int, *path) -> np.random.Generator:
    """Independent generator for the child stream identified by ``path``."""
    return np.random.default_rng(child_seed(master, *path))


def seed_int(master: int, *path) -> int:
    """32-bit integer master seed for the nested stage identified by ``path``."""
    return int(child_seed(master, *path).generate_state(1, np.uint32)[0])
