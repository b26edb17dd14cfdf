"""Exact finite probability distributions over bit strings.

A distribution is stored as its support: ascending points x, each with a
positive integer weight c, over one integer denominator den, so that
Pr[x] = c / den.  A flat source has c = 1 everywhere and den = |support|.
Statistical distance, min-entropy and the XOR bias law are computed on
those integers and return exact Fractions (min-entropy is returned as
the float of an exact rational).  Distributions are capped at N_MAX bits
of ambient arity so exhaustive oracles stay tractable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import ge
from typing import Iterable, Sequence

N_MAX = 20


@dataclass(frozen=True)
class Dist:
    """Distribution over {0,1}^n: Pr[points[i]] = weights[i] / den."""

    n: int
    points: tuple[int, ...]
    weights: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.n > N_MAX:
            raise ValueError(f"arity {self.n} out of range (N_MAX={N_MAX})")
        xs = self.points
        if not xs or len(self.weights) != len(xs):
            raise ValueError("need one weight per point, and some points")
        if xs[0] < 0 or xs[-1] >> self.n or any(map(ge, xs, xs[1:])):
            raise ValueError("points must be distinct, ascending, in range")
        if min(self.weights) <= 0:
            raise ValueError("non-positive weight")
        if sum(self.weights) != self.den:
            raise ValueError("weights do not sum to den")

    def weight(self, x: int) -> int:
        """Integer weight of x; 0 off the support."""
        i = bisect_left(self.points, x)
        found = i < len(self.points) and self.points[i] == x
        return self.weights[i] if found else 0

    def p(self, x: int) -> Fraction:
        return Fraction(self.weight(x), self.den)

    def support(self) -> list[int]:
        return list(self.points)


def uniform(n: int) -> Dist:
    return flat(n, range(1 << n))


def point_mass(n: int, x: int) -> Dist:
    return Dist(n, (x,), (1,), 1)


def from_counts(n: int, counts: Sequence[int]) -> Dist:
    """Pr[x] = counts[x] / sum(counts), for 2^n non-negative counts."""
    if len(counts) != 1 << n:
        raise ValueError("weight vector has wrong length")
    if any(c < 0 for c in counts):
        raise ValueError("negative weight")
    sup = [(x, c) for x, c in enumerate(counts) if c]
    if not sup:
        raise ValueError("empty counts")
    xs, cs = zip(*sup)
    g = math.gcd(*cs)  # lowest terms, so equal distributions compare equal
    return Dist(n, xs, tuple(c // g for c in cs), sum(cs) // g)


def from_weights(n: int, w: Sequence[Fraction]) -> Dist:
    """Distribution from a dense vector of 2^n rational weights summing
    to 1, converted once to integers over the lcm of their denominators."""
    den = math.lcm(*(p.denominator for p in w))
    d = from_counts(n, [p.numerator * (den // p.denominator) for p in w])
    if d.den != den:
        raise ValueError("weights do not sum to 1")
    return d


def flat(n: int, support: Iterable[int]) -> Dist:
    """Flat (uniform-on-support) source; min-entropy = log2(|support|)."""
    sup = tuple(sorted(set(support)))
    if not sup:
        raise ValueError("empty support")
    return Dist(n, sup, (1,) * len(sup), len(sup))


def stat_distance(p: Dist, q: Dist) -> Fraction:
    if p.n != q.n:
        raise ValueError("arity mismatch")
    acc = sum(abs(p.weight(x) * q.den - q.weight(x) * p.den)
              for x in set(p.points) | set(q.points))
    return Fraction(acc, 2 * p.den * q.den)


def stat_distance_maps(p: dict, q: dict) -> Fraction:
    """TV distance of two sparse weight maps (missing keys weigh 0)."""
    keys = set(p) | set(q)
    return sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / Fraction(2)


def min_entropy(p: Dist) -> float:
    top = Fraction(max(p.weights), p.den)
    # exact split avoids float overflow on huge numerators
    return -(math.log2(top.numerator) - math.log2(top.denominator))


def _bit(d: Dist) -> tuple[int, int]:
    """(c0 - c1, den) of a 1-bit distribution: its bias Pr[0] - Pr[1]."""
    if d.n != 1:
        raise ValueError("1-bit distribution required")
    return d.weight(0) - d.weight(1), d.den


def xor_bit_dists(dists: Sequence[Dist]) -> Dist:
    """Distribution of the XOR of independent 1-bit distributions."""
    # biases multiply: num / den = prod (Pr[0] - Pr[1])
    num = den = 1
    for d in dists:
        b, bd = _bit(d)
        num, den = num * b, den * bd
    return from_counts(1, [den + num, den - num])


def bit_error(d: Dist) -> Fraction:
    """Distance of a 1-bit distribution from uniform: |Pr[0] - 1/2|."""
    b, den = _bit(d)
    return Fraction(abs(b), 2 * den)


def sample_flat_source(rng, n: int, k: int) -> Dist:
    """Random flat (n, k) source: uniform over 2^k sampled distinct points."""
    size = 1 << k
    if size > (1 << n):
        raise ValueError("k exceeds n")
    sup = rng.choice(1 << n, size=size, replace=False)
    sup.sort()  # a draw without replacement is already distinct
    return Dist(n, tuple(sup.tolist()), (1,) * size, size)
