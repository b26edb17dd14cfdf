from fractions import Fraction

import numpy as np
import pytest

from extlab.prob import (Dist, bit_error, flat, from_counts, min_entropy,
                         point_mass, pushforward, sample_flat_source,
                         stat_distance, stat_distance_maps, uniform,
                         xor_bit_dists)

HALF = Fraction(1, 2)


def test_weights_validated():
    with pytest.raises(ValueError):
        Dist(1, (HALF, HALF, HALF))
    with pytest.raises(ValueError):
        Dist(1, (Fraction(3, 4), HALF))


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


def test_min_entropy_of_flat_source():
    assert min_entropy(flat(4, range(4))) == 2.0
    assert min_entropy(uniform(5)) == 5.0


def test_pushforward_conserves_mass():
    d = pushforward(uniform(3), lambda x: x & 1, 1)
    assert d.w == (HALF, HALF)


def test_xor_bias_product_is_exact():
    # Pr[0] - Pr[1] multiplies across independent bits
    a = Dist(1, (Fraction(3, 4), Fraction(1, 4)))
    b = Dist(1, (Fraction(5, 8), Fraction(3, 8)))
    out = xor_bit_dists([a, b])
    assert bit_error(out) == bit_error(a) * bit_error(b) * 2
    # equivalently 2^(l-1) * prod eps_i with l = 2
    assert bit_error(out) == (Fraction(1, 4) * Fraction(1, 8)) * 2


def test_sample_flat_source_support_size():
    rng = np.random.Generator(np.random.Philox(1))
    d = sample_flat_source(rng, 8, 3)
    assert len(d.support()) == 8
    assert min_entropy(d) == 3.0
