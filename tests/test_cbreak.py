import numpy as np
import pytest

from extlab import gf2
from extlab.bits import BitString, blocks, concat, slice_bits
from extlab.cbreak import (AdvGenParams, FlipFlopParams, adv_gen,
                           collision_bound, flip_flop, plan_adv_gen)
from extlab.nipm import ParamError
from extlab.nmx import desk_params
from extlab.pamp import _rand_bits
from extlab.sext import ext, sample_positions


def test_plan_adv_gen_micro_shape():
    p = plan_adv_gen(16, 8, 0.1)
    assert p.rs_block == 4 and p.code_n == 4
    assert p.positions == 2 and p.a0p == 2
    assert p.advice_len == 2 + 2 * 4
    assert p.sampler.family == "poly"


def test_plan_adv_gen_named_errors():
    with pytest.raises(ParamError) as e:
        plan_adv_gen(16, 4, 0.1)  # sampler seed would not fit in y
    assert e.value.name == "a0"


def test_advice_is_prefix_plus_sampled_symbols():
    p = plan_adv_gen(16, 8, 0.1)
    x = BitString(16, 0x9D3A)
    y = BitString(8, 0xC5)
    a = slice_bits(y, p.a0)
    r = ext(p.sampler, x, a)
    pos = sample_positions(r, p.positions, p.code_n)
    cw = gf2.rs_encode(blocks(y, p.rs_block), p.code_n, p.rs_block)
    want = concat(slice_bits(y, p.a0p),
                  *[BitString(p.rs_block, cw[i]) for i in pos])
    assert adv_gen(x, y, p) == want


def test_distinct_seeds_rarely_share_advice():
    p = plan_adv_gen(16, 8, 0.1)
    rng = np.random.Generator(np.random.Philox(41))
    coll = pairs = 0
    for _ in range(5):
        x = BitString(16, int(rng.integers(1 << 16)))
        advs = [adv_gen(x, BitString(8, y), p) for y in range(256)]
        for i in range(256):
            for j in range(i + 1, 256):
                pairs += 1
                coll += advs[i] == advs[j]
    assert coll / pairs <= collision_bound(p) + 0.05


def test_collision_bound_formula():
    p = plan_adv_gen(16, 8, 0.1)
    deg = -(-8 // 4) - 1
    assert collision_bound(p) == (deg / 4) ** 2 + p.sampler.claimed_eps


def test_flip_flop_params_validated():
    FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    with pytest.raises(ParamError):
        FlipFlopParams(n=16, d_y=4, w=8, m_out=4)  # token wider than y
    with pytest.raises(ParamError):
        FlipFlopParams(n=16, d_y=16, w=8, m_out=9)


def _two_phase_recipe(x, y, bit, p):
    e_x, e_y, e_tok, e_out = (p.scheme_x(), p.scheme_y(),
                              p.scheme_tok(), p.scheme_out())
    s1 = slice_bits(y, p.w)
    r1 = ext(e_x, x, s1)
    s2 = ext(e_y, y, r1)
    ytil = s2 if bit else s1
    s1p = ytil
    r1p = ext(e_x, x, s1p)
    s2p = ext(e_tok, ytil, r1p)
    key = s1p if bit else s2p
    return ext(e_out, x, slice_bits(key, p.m_out))


def test_flip_flop_matches_pinned_recipe():
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(100):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        for bit in (0, 1):
            assert flip_flop(x, y, bit, p) == _two_phase_recipe(x, y, bit, p)
    p = desk_params().ff
    for _ in range(20):
        x = BitString(p.n, _rand_bits(rng, p.n))
        y = BitString(p.d_y, _rand_bits(rng, p.d_y))
        for bit in (0, 1):
            assert flip_flop(x, y, bit, p) == _two_phase_recipe(x, y, bit, p)


def test_flip_flop_advice_bits_usually_disagree():
    # the whole point: opposite advice bits give unrelated outputs
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    rng = np.random.Generator(np.random.Philox(43))
    same = 0
    trials = 2000
    for _ in range(trials):
        x = BitString(16, int(rng.integers(1 << 16)))
        y = BitString(16, int(rng.integers(1 << 16)))
        same += flip_flop(x, y, 0, p) == flip_flop(x, y, 1, p)
    assert same / trials < 0.05


def test_flip_flop_rejects_bad_advice():
    p = FlipFlopParams(n=16, d_y=16, w=8, m_out=8)
    with pytest.raises(ValueError):
        flip_flop(BitString(16, 0), BitString(16, 0), 2, p)
