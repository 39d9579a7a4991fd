"""Deterministic derivation of named RNG streams from one master seed.

Every stochastic routine takes a master seed plus a path of names/indices
and builds an independent ``numpy`` generator from them, so reruns are
bit-identical and sub-experiments can be reproduced in isolation.
"""

from __future__ import annotations

import zlib

import numpy as np


MASK32 = 0xFFFFFFFF
POOL_SIZE = 4  # numpy's SeedSequence pool, in 32-bit words


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & MASK32
    return zlib.crc32(str(part).encode("utf-8"))


def child_seed(master: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the child stream identified by ``path``.

    Its pool, and so every word it generates, is that of
    ``SeedSequence(master, spawn_key=path tokens)``: it is given the entropy
    that one hashes, master's 32-bit words (least significant first,
    zero-padded to the pool size) and then the tokens, as one uint32 array,
    which numpy takes without converting each int.
    """
    if master < 0:
        raise ValueError("master seed must be non-negative")
    master = int(master)
    words = [master & MASK32]
    master >>= 32
    while master:
        words.append(master & MASK32)
        master >>= 32
    words += [0] * (POOL_SIZE - len(words))
    words += [_token(p) for p in path]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def child_rng(master: int, *path) -> np.random.Generator:
    """Independent generator for the child stream identified by ``path``."""
    return np.random.default_rng(child_seed(master, *path))


def seed_int(master: int, *path) -> int:
    """32-bit integer master seed for the nested stage identified by ``path``."""
    return int(child_seed(master, *path).generate_state(1, np.uint32)[0])
