"""Deterministic random substreams.

Every random draw in the simulator is tied to a ``(seed, purpose, index...)``
tuple, so results never depend on execution order or on how trials are split
across workers.  Purposes are small integer tags; trial/block indices extend
the key.

:func:`substream` gives the generator of one key.  :func:`complex_normals`
draws one array per key for many keys at once, with the same bits as
:func:`complex_normal` on each key's :func:`substream`: it hashes every key's
seed state in one vectorised pass of numpy's ``SeedSequence`` mixing, then
seeds each key's ``PCG64`` with those words directly.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags for substream keys.
PATHS = 0
PILOTS = 1
FADING = 2
NOISE = 3
WARM_FADING = 4
WARM_NOISE = 5

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, *key) tuple.

    The same tuple always yields the same stream, regardless of which other
    streams were created before it.
    """
    parts = tuple(int(k) for k in key)
    if any(k < 0 for k in parts):
        raise ValueError(f"substream key must be non-negative, got {parts}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=parts)
    return np.random.default_rng(ss)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per complex entry."""
    z = rng.standard_normal(size=(*tuple(shape), 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


# SeedSequence's uint32 hash steps, on Python ints or uint32 arrays alike.

def _hash_consts(init: int, mult: int, n_steps: int) -> list[int]:
    """The hash constant before each of ``n_steps`` hash steps, and after the
    last: every step multiplies it by ``mult``."""
    consts = [init]
    for _ in range(n_steps):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hash(value, before, after):
    """One hash step, with the hash constant ``before`` and ``after`` it."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _seed_states(seed: int, keys) -> np.ndarray:
    """The (n_keys, 4) uint64 words that
    ``SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64)``
    gives for every key, computed in one pass over all keys.

    The keys share one width and each of their entries lies in [0, 2**32),
    so every key is one uint32 word per entry after the seed's words, and
    the hash constants advance alike for every key.  The pool is mixed from
    the seed's first words on Python ints, then from each later word, a key
    column as an array.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key_words = np.asarray(keys)   # raises ValueError on keys of mixed width
    if (key_words.ndim != 2 or not len(key_words) or key_words.dtype.kind not in "iu"
            or np.any((key_words < 0) | (key_words > _MASK32))):
        raise ValueError("substream keys must be one or more equal-width tuples "
                         "of integers in [0, 2**32)")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # A spawn key follows the seed's words padded out to the pool size.
    words += [0] * (_POOL_SIZE - len(words)) + list(key_words.T.astype(np.uint32))

    # 4 steps fill the pool, 12 mix it and 4 mix in each later word.
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * len(words))
    steps = iter(zip(consts, consts[1:]))

    def hashmix(value):
        return _hash(value, *next(steps))

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # Each later word mixes into the four pool words with four successive
    # hash constants: one array step per word, over pool words and keys.
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in words[_POOL_SIZE:]:
        before, after = np.array([next(steps) for _ in range(_POOL_SIZE)],
                                 dtype=np.uint32).T[..., None]
        pool = _mix(pool, _hash(word, before, after))

    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian into uint64.
    consts = np.array(_hash_consts(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
    state = _hash(pool[np.arange(8) % _POOL_SIZE], consts[:-1], consts[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Seeds a bit generator with words :func:`_seed_states` already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed state holds 4 uint64 words only")
        return self.words


def complex_normals(seed: int, keys, shape) -> np.ndarray:
    """``np.stack([complex_normal(substream(seed, *k), shape) for k in keys])``
    bit for bit, a (len(keys), *shape) array, for keys of one width."""
    shape = tuple(shape)
    states = _seed_states(seed, keys)
    buf = np.empty((len(states), *shape, 2))
    for row, words in zip(buf, states):
        np.random.Generator(np.random.PCG64(_SeedState(words))).standard_normal(out=row)
    z = buf.view(np.complex128)[..., 0]
    z /= np.sqrt(2.0)
    return z
