import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.prob import (N_MAX, Dist, bit_error, flat, from_counts,
                         from_weights, min_entropy, point_mass,
                         sample_flat_source, stat_distance,
                         stat_distance_maps, uniform, xor_bit_dists)

HALF = Fraction(1, 2)


def test_weights_validated():
    with pytest.raises(ValueError):
        from_weights(1, (HALF, HALF, HALF))
    with pytest.raises(ValueError):
        from_weights(1, (Fraction(3, 4), HALF))
    with pytest.raises(ValueError):
        from_weights(1, (Fraction(3, 2), -HALF))


def test_from_weights_keeps_the_distribution():
    w = (Fraction(1, 6), 0, Fraction(1, 2), Fraction(1, 3))
    d = from_weights(2, w)
    assert d.points == (0, 2, 3) and d.weights == (1, 3, 2) and d.den == 6
    assert [d.p(x) for x in range(4)] == list(w)


@pytest.mark.parametrize("n, points, weights, den", [
    (2, (1, 1), (1, 1), 2),          # duplicate point
    (2, (2, 1), (1, 1), 2),          # not ascending
    (2, (0, 4), (1, 1), 2),          # point out of range
    (2, (-1, 0), (1, 1), 2),         # negative point
    (2, (0, 1), (1, 0), 1),          # zero weight
    (2, (0, 1), (2, -1), 1),         # negative weight
    (2, (0, 1), (1, 1), 3),          # weights do not sum to den
    (2, (0, 1), (1,), 1),            # one weight per point
    (2, (), (), 0),                  # empty support
    (N_MAX + 1, (0,), (1,), 1),      # arity over N_MAX
])
def test_dist_rejects_malformed_support(n, points, weights, den):
    with pytest.raises(ValueError):
        Dist(n, points, weights, den)


def test_stat_distance_known_values():
    assert stat_distance(uniform(1), uniform(1)) == 0
    assert stat_distance(point_mass(1, 0), point_mass(1, 1)) == 1
    assert stat_distance(point_mass(2, 0), uniform(2)) == Fraction(3, 4)


def test_stat_distance_maps_matches_dense():
    p = from_counts(2, [1, 2, 3, 4])
    q = uniform(2)
    pm = {x: p.p(x) for x in range(4)}
    qm = {x: q.p(x) for x in range(4)}
    assert stat_distance_maps(pm, qm) == stat_distance(p, q)


def test_equal_distributions_compare_equal():
    assert from_counts(2, [2, 2, 2, 2]) == uniform(2)
    assert from_weights(2, [0, 0, HALF, HALF]) == flat(2, [3, 2])
    assert from_counts(1, [3, 0]) == point_mass(1, 0)


def test_min_entropy_of_flat_source():
    assert min_entropy(flat(4, range(4))) == 2.0
    assert min_entropy(uniform(5)) == 5.0


def test_xor_bias_product_is_exact():
    # Pr[0] - Pr[1] multiplies across independent bits
    a = from_weights(1, (Fraction(3, 4), Fraction(1, 4)))
    b = from_weights(1, (Fraction(5, 8), Fraction(3, 8)))
    out = xor_bit_dists([a, b])
    assert bit_error(out) == bit_error(a) * bit_error(b) * 2
    # equivalently 2^(l-1) * prod eps_i with l = 2
    assert bit_error(out) == (Fraction(1, 4) * Fraction(1, 8)) * 2


def test_sample_flat_source_support_size():
    rng = np.random.Generator(np.random.Philox(1))
    d = sample_flat_source(rng, 8, 3)
    assert len(d.support()) == 8
    assert min_entropy(d) == 3.0


def test_sample_flat_source_is_the_seeded_draw():
    # the support is exactly the rng.choice draw, in ascending order
    want = np.random.Generator(np.random.Philox(9)).choice(
        1 << 12, size=1 << 6, replace=False)
    d = sample_flat_source(np.random.Generator(np.random.Philox(9)), 12, 6)
    assert d.support() == sorted(int(x) for x in want)
    assert d.weights == (1,) * 64 and d.den == 64


# ------------------------------------------- dense Fraction cross-checks

def _dense(counts) -> list[Fraction]:
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


def _counts(n: int):
    """Weight vectors over {0,1}^n with at least one positive entry."""
    return st.lists(st.integers(0, 5), min_size=1 << n,
                    max_size=1 << n).filter(any)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), _counts(n), _counts(n))))
def test_stat_distance_and_min_entropy_match_dense(args):
    n, cp, cq = args
    p, q = from_counts(n, cp), from_counts(n, cq)
    wp, wq = _dense(cp), _dense(cq)
    assert [p.p(x) for x in range(1 << n)] == wp
    assert p.support() == [x for x, w in enumerate(wp) if w]
    assert stat_distance(p, q) == sum(abs(a - b) for a, b in zip(wp, wq)) / 2
    top = max(wp)
    assert min_entropy(p) == -(math.log2(top.numerator)
                               - math.log2(top.denominator))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))
                .filter(any), min_size=0, max_size=6))
def test_xor_bit_dists_matches_dense(pairs):
    dists = [from_counts(1, list(c)) for c in pairs]
    bias = Fraction(1)
    for c in pairs:
        w = _dense(c)
        bias *= w[0] - w[1]
    p0 = (1 + bias) / 2
    out = xor_bit_dists(dists)
    assert [out.p(0), out.p(1)] == [p0, 1 - p0]
    assert bit_error(out) == abs(p0 - HALF)
