"""The simulation engine's draws against their references in
``scalar_oracle.py``: the substream words of the ported per-index
SeedSequence step against numpy's own ``SeedSequence``, and the PCG64
numpy seeds from them against the substream's generator; and the
whole-array draw transform against the gather-based one it replaced.
All must match bit for bit."""

import numpy as np
import pytest
import scalar_oracle as oracle

from rmtlkit import scenarios, simulate
from rmtlkit.scenarios import CENSOR_TARGETS, SCENARIO_IDS, scenario

# 1 to 6 32-bit words, each side of every change in the word count that
# moves the hash constant (the pool holds 4, so 1-4 words hash alike)
SEEDS = [
    0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96 - 1, 2**96, 2**127 + 9,
    2**128 - 1, 2**128, 2**130 + 1, 2**160 + 3, 20261018,
]
INDICES = [*range(41), 65535, 2**31, 2**32 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_states_match_numpy(seed):
    seed_words = simulate._seed_words()
    for phase in range(3):
        words = simulate._substream_words(seed, phase, INDICES)
        assert words.dtype == np.uint64 and words.shape == (len(INDICES), 4)
        for i, row in zip(INDICES, words):
            ss = np.random.SeedSequence(seed, spawn_key=(phase, i))
            assert row.tobytes() == ss.generate_state(4, np.uint64).tobytes(), (seed, phase, i)
            generator = np.random.Generator(np.random.PCG64(seed_words(row)))
            ref = oracle.rng_for(seed, phase, i)
            assert generator.bit_generator.state == ref.bit_generator.state, (seed, phase, i)
            assert generator.random(5).tobytes() == ref.random(5).tobytes(), (seed, phase, i)
            assert generator.bit_generator.state == ref.bit_generator.state, (seed, phase, i)


def test_substream_index_out_of_range_raises():
    # an index of 2^32 or more is two spawn-key words: a different
    # substream layout, so it must not be seeded as if it were one
    for indices in ([2**32], [0, 2**32 + 5], [-1]):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate._substream_words(3, 0, indices)
    with pytest.raises(ValueError):
        simulate._substream_words(-1, 0, [0])
    with pytest.raises(ValueError):
        simulate._replicate_block(scenario("C", 5, 5), 3, [2**32])
    assert simulate._substream_words(3, 0, []).shape == (0, 4)


def test_warm_block_makes_one_seed_sequence(monkeypatch):
    spec = scenario("C", 30, 30, 30)
    # the first block also fills the calibration cache
    simulate._replicate_block(spec, 5, range(32))
    made = []

    class CountedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            made.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    block = simulate._replicate_block(spec, 5, range(32, 64))
    assert block["delta"].shape == (32,)
    # one for the seed and phase words the rows share, none per replicate
    assert len(made) == 1, made


def block_uniforms(n, planes, seed):
    """32 rows of ``planes`` x n uniforms, with 0.0, 0.5 and 1 - 2^-53 in
    every plane, row 0 all cause 1 and row 1 all cause 2."""
    u = np.random.default_rng(seed).random((planes, 32, n))
    u[:, :, :3] = [0.0, 0.5, 1.0 - 2.0**-53]
    u[0, 0] = 0.0
    u[0, 1] = 1.0 - 2.0**-53
    return u


def assert_same_bytes(got, want, label):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), label


@pytest.mark.parametrize("sid", SCENARIO_IDS)
def test_draw_transform_matches_the_gather_form(sid):
    for cr in CENSOR_TARGETS:
        spec = scenario(sid, 40, 40, cr)
        for group in (0, 1):
            bound = scenarios.calibrate_censoring(spec, cr, group)
            planes = 2 if bound is None else 3
            u = block_uniforms(57, planes, seed=ord(sid) * 100 + cr + group)
            label = (sid, cr, group)
            got = scenarios._observe(spec, group, u, bound)
            assert_same_bytes(got, oracle.observe(spec, group, u, bound), label)
            assert (got[1][0] != 2).all() and (got[1][1] != 1).all(), label
            # a block's arms are strided views of its rows' fills
            rows = np.empty((32, 2 * planes * 57))
            rows[:, : planes * 57] = u.transpose(1, 0, 2).reshape(32, -1)
            arm = rows[:, : planes * 57].reshape(32, planes, 57).transpose(1, 0, 2)
            assert_same_bytes(scenarios._observe(spec, group, arm, bound), got, label)
            cause = (u[0] >= scenarios._cause1_share(spec, group)).astype(np.int64) + 1
            assert_same_bytes(
                [scenarios._failure_times(spec, group, cause, u[1])],
                [oracle.failure_times(spec, group, cause, u[1])],
                label,
            )


@pytest.mark.parametrize("sid", sorted(scenarios._PIECES))
def test_hazard_inverse_matches_the_gather_form(sid):
    for pieces in scenarios._PIECES[sid]:
        v = -np.log1p(-block_uniforms(57, 1, seed=ord(sid))[0])
        # the first piece's top and its neighbours, then inf and NaN
        top = (pieces[0].upper / pieces[0].scale) ** pieces[0].shape
        edges = [0.0, top, np.nextafter(top, 0.0), np.nextafter(top, np.inf), np.inf, np.nan]
        v[2, : len(edges)] = edges
        got = scenarios._cum_hazard_inverse(pieces, v)
        assert_same_bytes([got], [oracle.cum_hazard_inverse(pieces, v)], sid)
        assert np.isinf(got[2, 4:6]).all()
