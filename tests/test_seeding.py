import zlib

import numpy as np
import pytest

from grlstab import seeding


def reference_child_seed(master, *path):
    """The derivation as numpy's SeedSequence spells it: master as the
    entropy, the path's 32-bit tokens as the spawn key."""
    key = tuple(int(p) & 0xFFFFFFFF if isinstance(p, (int, np.integer))
                else zlib.crc32(str(p).encode("utf-8")) for p in path)
    return np.random.SeedSequence(int(master), spawn_key=key)


def random_path(rng):
    path = []
    for _ in range(int(rng.integers(0, 6))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            path.append(str(rng.choice(["indices", "srm-beta", "pert", "", "x" * 40])))
        elif kind == 1:
            path.append(int(rng.integers(-2**40, 2**40)))
        elif kind == 2:
            path.append(np.int64(rng.integers(-2**62, 2**62)))
        else:
            path.append(int(rng.integers(0, 2**32)))
    return path


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 3,
                                    np.int64(7), np.uint32(2**32 - 1)])
def test_child_seed_equals_seed_sequence_with_spawn_key(master):
    rng = np.random.default_rng(int(master) % 1000)
    paths = [[], ["indices"], [0], [np.int64(-1)]] + [random_path(rng) for _ in range(60)]
    for path in paths:
        got, expected = seeding.child_seed(master, *path), reference_child_seed(master, *path)
        assert got.generate_state(8).tobytes() == expected.generate_state(8).tobytes()
        assert (np.random.default_rng(got).bit_generator.state
                == np.random.default_rng(expected).bit_generator.state)
        assert seeding.seed_int(master, *path) == int(expected.generate_state(1)[0])
        assert (seeding.child_rng(master, *path).random(3).tobytes()
                == np.random.default_rng(expected).random(3).tobytes())


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        seeding.child_seed(-1, "indices")
    with pytest.raises(ValueError, match="non-negative"):
        seeding.seed_int(np.int64(-5))
