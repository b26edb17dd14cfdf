"""Exact finite probability distributions over bit strings.

Everything here is exact: weights are Fractions, statistical distance
and entropies are computed from them without floating-point error (the
entropy values themselves are returned as floats of an exact rational).
Distributions are capped at N_MAX bits of ambient arity so exhaustive
oracles stay tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

N_MAX = 20

ONE = Fraction(1)
ZERO = Fraction(0)


def _log2_fraction(p: Fraction) -> float:
    if p <= 0:
        raise ValueError("log of non-positive weight")
    # exact split avoids float overflow on huge numerators
    return math.log2(p.numerator) - math.log2(p.denominator)


@dataclass(frozen=True)
class Dist:
    """Distribution over {0,1}^n, dense weight vector of length 2^n."""

    n: int
    w: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > N_MAX:
            raise ValueError(f"arity {self.n} out of range (N_MAX={N_MAX})")
        if len(self.w) != 1 << self.n:
            raise ValueError("weight vector has wrong length")
        if sum(self.w) != ONE:
            raise ValueError("weights do not sum to 1")
        if any(x < 0 for x in self.w):
            raise ValueError("negative weight")

    def p(self, x: int) -> Fraction:
        return self.w[x]

    def support(self) -> list[int]:
        return [x for x, p in enumerate(self.w) if p > 0]


def uniform(n: int) -> Dist:
    q = Fraction(1, 1 << n)
    return Dist(n, tuple([q] * (1 << n)))


def point_mass(n: int, x: int) -> Dist:
    w = [ZERO] * (1 << n)
    w[x] = ONE
    return Dist(n, tuple(w))


def from_counts(n: int, counts: Sequence[int]) -> Dist:
    total = sum(counts)
    if total <= 0:
        raise ValueError("empty counts")
    return Dist(n, tuple(Fraction(c, total) for c in counts))


def flat(n: int, support: Iterable[int]) -> Dist:
    """Flat (uniform-on-support) source; min-entropy = log2(|support|)."""
    sup = sorted(set(support))
    if not sup:
        raise ValueError("empty support")
    q = Fraction(1, len(sup))
    w = [ZERO] * (1 << n)
    for x in sup:
        w[x] = q
    return Dist(n, tuple(w))


def stat_distance(p: Dist, q: Dist) -> Fraction:
    if p.n != q.n:
        raise ValueError("arity mismatch")
    return sum((abs(a - b) for a, b in zip(p.w, q.w)), ZERO) / 2


def stat_distance_maps(p: dict, q: dict) -> Fraction:
    """TV distance of two sparse weight maps (missing keys weigh 0)."""
    keys = set(p) | set(q)
    return sum((abs(p.get(k, ZERO) - q.get(k, ZERO)) for k in keys), ZERO) / 2


def min_entropy(p: Dist) -> float:
    top = max(p.w)
    return -_log2_fraction(top)


def pushforward(src: Dist, f: Callable[[int], int], n_out: int) -> Dist:
    w = [ZERO] * (1 << n_out)
    for x, p in enumerate(src.w):
        if p > 0:
            w[f(x)] += p
    return Dist(n_out, tuple(w))


def xor_bit_dists(dists: Sequence[Dist]) -> Dist:
    """Distribution of the XOR of independent 1-bit distributions."""
    # bias representation: Pr[0] - Pr[1]
    bias = ONE
    for d in dists:
        if d.n != 1:
            raise ValueError("xor law applies to 1-bit distributions")
        bias *= d.w[0] - d.w[1]
    p0 = (ONE + bias) / 2
    return Dist(1, (p0, ONE - p0))


def bit_error(d: Dist) -> Fraction:
    """Distance of a 1-bit distribution from uniform: |Pr[0] - 1/2|."""
    if d.n != 1:
        raise ValueError("1-bit distribution required")
    return abs(d.w[0] - Fraction(1, 2))


def sample_flat_source(rng, n: int, k: int) -> Dist:
    """Random flat (n, k) source: uniform over 2^k sampled distinct points."""
    size = 1 << k
    if size > (1 << n):
        raise ValueError("k exceeds n")
    sup = rng.choice(1 << n, size=size, replace=False)
    return flat(n, (int(x) for x in sup))

