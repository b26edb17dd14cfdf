from fractions import Fraction

import numpy as np
import pytest

from extlab.bits import BitString, matrix
from extlab.msrc import (SyntheticGenerator, default_params,
                         exact_majority_prob_one, majority,
                         majority_bias_bound, make_generator, multi_ext,
                         reduce_bits)
from extlab.nipm import ParamError


def test_params_validation():
    default_params(11)
    # rows, row width and t are read off the weak-seed merger
    p = default_params(11, t=2)
    assert (p.L, p.m, p.t) == (4, 16, 2)
    with pytest.raises(ParamError):
        default_params(10)  # even arity
    with pytest.raises(ParamError):
        default_params(11, alpha=0.7)


def test_majority():
    assert majority([1, 1, 0]) == 1
    assert majority([0, 1, 0]) == 0
    with pytest.raises(ValueError):
        majority([0, 1])


def test_exact_majority_prob_one():
    assert exact_majority_prob_one(3, 0) == Fraction(1, 2)
    assert exact_majority_prob_one(3, 2) == 1  # majority already pinned
    # r=3, one pinned 1: need >= 1 of 2 free ones -> 3/4
    assert exact_majority_prob_one(3, 1) == Fraction(3, 4)
    assert exact_majority_prob_one(101, 101) == 1


def test_generator_is_deterministic_under_seed():
    p = default_params(5)
    gen = SyntheticGenerator(params=p, seed=7, bad_set=(2,))
    srcs = [BitString(16, v) for v in (0x1111, 0x2222, 0x3333)]
    a = gen.matrices(srcs)
    b = gen.matrices(srcs)
    assert a == b
    ones = BitString(p.m, (1 << p.m) - 1)
    assert a[2] == (ones,) * p.L  # bad index pinned to constant
    # different sources give different matrices
    c = gen.matrices([BitString(16, v) for v in (0x1111, 0x2222, 0x4444)])
    assert any(x != y for x, y in zip(a, c))


def _matrices_per_index(gen, sources):
    """The generator's matrices with one draw of L rows per good index."""
    p = gen.params
    mix = gen.seed
    for s in sources:
        mix = (mix * 0x9E3779B97F4A7C15 + s.val) & ((1 << 64) - 1)
    rng = np.random.Generator(np.random.Philox(mix))
    out = []
    for i in range(p.r):
        if i in gen.bad_set:
            out.append(matrix([BitString(p.m, (1 << p.m) - 1)] * p.L))
        else:
            out.append(matrix([BitString(p.m, int(v))
                               for v in rng.integers(1 << p.m, size=p.L)]))
    return out


@pytest.mark.parametrize("r, n_bad", [(r, n_bad) for r in (1, 11, 101)
                                      for n_bad in (0, 1, 10) if n_bad <= r])
def test_matrices_match_per_index_draws(r, n_bad):
    p = default_params(r)
    rng = np.random.Generator(np.random.Philox(62 + r))
    for seed in range(5):
        bad = tuple(sorted(int(i) for i in
                           rng.choice(r, size=n_bad, replace=False)))
        gen = SyntheticGenerator(params=p, seed=seed * 0x1F3D5B79,
                                 bad_set=bad)
        srcs = [BitString(16, int(v)) for v in rng.integers(1 << 16, size=3)]
        assert gen.matrices(srcs) == _matrices_per_index(gen, srcs)


def test_make_generator_caps_bad_set():
    # at most r^(1/2 - alpha) bad indices: 9^0.25 = 1.73 admits 1 and
    # 101^0.499 = 10.004 admits 10; 81^0.25 is exactly 3 and admits 3
    rng = np.random.Generator(np.random.Philox(61))
    for r, alpha, max_bad, bound in ((9, 0.25, 1, "1.73205"),
                                     (101, 0.001, 10, "10.0036"),
                                     (81, 0.25, 3, "3")):
        p = default_params(r, alpha=alpha)
        gen = make_generator(rng, p, n_bad=max_bad)
        assert len(gen.bad_set) == max_bad
        with pytest.raises(ParamError) as e:
            make_generator(rng, p, n_bad=max_bad + 1)
        assert str(e.value) == \
            f"bad_set: {max_bad + 1} > r^(1/2-alpha) = {bound}"


def test_reduce_and_multi_ext_roundtrip():
    rng = np.random.Generator(np.random.Philox(62))
    p = default_params(5)
    gen = make_generator(rng, p, n_bad=0)
    srcs = [BitString(16, int(rng.integers(1 << 16))) for _ in range(3)]
    weak = BitString(16, int(rng.integers(1 << 16)))
    bits = reduce_bits(gen.matrices(srcs), weak, p)
    assert len(bits) == 5 and set(bits) <= {0, 1}
    assert multi_ext(gen, srcs, weak) == majority(bits)


def test_good_bits_are_roughly_fair():
    rng = np.random.Generator(np.random.Philox(63))
    p = default_params(5)
    gen = make_generator(rng, p, n_bad=0)
    total = ones = 0
    for _ in range(400):
        srcs = [BitString(16, int(rng.integers(1 << 16)))
                for _ in range(3)]
        weak = BitString(16, int(rng.integers(1 << 16)))
        bits = reduce_bits(gen.matrices(srcs), weak, p)
        ones += sum(bits)
        total += len(bits)
    assert abs(ones / total - 0.5) < 0.05


def test_bias_bound_shrinks_with_arity():
    assert majority_bias_bound(default_params(101)) < \
        majority_bias_bound(default_params(11))
