"""The batch substream path against the single-key one: seeding words equal
numpy's ``SeedSequence``, batched normals equal the per-key stack byte for
byte, and out-of-range seeds and keys are refused."""
import numpy as np
import pytest

from chest.experiments import _draw
from chest.streams import (FADING, NOISE, WARM_FADING, WARM_NOISE, _seed_states,
                           _SeedState, complex_normal, complex_normals, substream)

SEEDS = (0, 5, 2**32 - 1, 2**32, 2**70 + 3)
KEYS = {
    2: [(0, 0), (FADING, 2**32 - 1), (2**32 - 1, 0), (NOISE, 17), (2**32 - 1, 2**32 - 1)],
    3: [(0, 0, 0), (WARM_FADING, 3, 2**32 - 1), (WARM_NOISE, 2**32 - 1, 0),
        (2**32 - 1, 2**32 - 1, 2**32 - 1)],
}


def _per_key(seed, keys, shape):
    return np.stack([complex_normal(substream(seed, *key), shape) for key in keys])


@pytest.mark.parametrize("width", sorted(KEYS))
@pytest.mark.parametrize("seed", SEEDS)
def test_seed_states_equal_seed_sequence(seed, width):
    keys = KEYS[width]
    expected = np.stack([np.random.SeedSequence(entropy=seed, spawn_key=key)
                         .generate_state(4, np.uint64) for key in keys])
    got = _seed_states(seed, keys)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("width", sorted(KEYS))
@pytest.mark.parametrize("shape", [(16, 32), (64, 32), (25,)],
                         ids=["desk-noise", "reference-noise", "fading"])
@pytest.mark.parametrize("seed", [5, 2**70 + 3])
def test_complex_normals_match_per_key_stack(seed, shape, width):
    keys = KEYS[width]
    got = complex_normals(seed, keys, shape)
    expected = _per_key(seed, keys, shape)
    assert got.shape == expected.shape == (len(keys), *shape)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_draw_matches_per_key_substreams(desk_env, draw_fading):
    trials = range(40, 47)
    fading, noise = _draw(desk_env, [(FADING, t) for t in trials],
                          [(NOISE, t) for t in trials])
    shape = (desk_env.bundle.system.n_rx, len(desk_env.pilots))
    expected_fading = np.stack([draw_fading(desk_env.amplitude,
                                            substream(desk_env.seed, FADING, t))
                                for t in trials])
    expected_noise = _per_key(desk_env.seed, [(NOISE, t) for t in trials], shape)
    assert fading.tobytes() == expected_fading.tobytes()
    assert noise.tobytes() == (expected_noise / desk_env.pilots.symbols).tobytes()


@pytest.mark.parametrize("seed, keys", [
    (-1, [(1, 2)]),
    (-2**70, [(1, 2)]),
    (5, [(1, -1)]),
    (5, [(1, 2**32)]),
    (5, [(1, 2**64)]),
    (5, [(1, 2), (1, 2, 3)]),
    (5, [(1, 1.5)]),
    (5, []),
], ids=["negative-seed", "negative-wide-seed", "negative-key", "key-2**32",
        "key-2**64", "mixed-width", "float-key", "no-keys"])
def test_seed_states_refuse_bad_input(seed, keys):
    with pytest.raises(ValueError):
        _seed_states(seed, keys)


def test_seed_state_gives_only_four_uint64_words():
    state = _SeedState(_seed_states(5, [(1, 2)])[0])
    assert state.generate_state(4, np.uint64) is state.words
    with pytest.raises(ValueError):
        state.generate_state(8, np.uint64)
    with pytest.raises(ValueError):
        state.generate_state(4, np.uint32)
