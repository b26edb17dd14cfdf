"""Multi-source extraction: reduce correlated matrices to one bit each
and take majority.

The generator contract is what matters here, not its internals: given C
sources it emits r row matrices such that, outside a small bad set, each
matrix carries a planted witness row making the reduce step near-fair.
``synthetic_generator`` is a deterministic-under-seed test double that
realizes the contract directly, planting uniform good matrices and
constant bad ones, so the majority pipeline can be checked against an
exact binomial oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import BitString, RowMatrix, matrix
from .ipm import IpmParams, ipm_weak, micro_ipm
from .nipm import LevelPlan, ParamError, hand_plan


@dataclass(frozen=True)
class MultiParams:
    r: int          # number of matrices / majority arity (odd)
    L: int          # rows per matrix
    m: int          # row width
    t: int          # independence order of the generator contract
    alpha: float    # bad-set exponent: at most r^(1/2 - alpha) bad indices
    gamma: float    # almost-t-wise slack of the good bits
    c: float        # outer constant of the majority bias bound
    ipm: IpmParams

    def __post_init__(self) -> None:
        if self.r % 2 == 0:
            raise ParamError("r", "majority arity must be odd")
        if not 0 < self.alpha <= 0.5:
            raise ParamError("alpha", "alpha must lie in (0, 1/2]")


def majority_bias_bound(p: MultiParams) -> float:
    """c * (log t / t + r^-alpha + gamma * r^t)."""
    t = max(p.t, 2)
    return p.c * (math.log2(t) / t + p.r ** (-p.alpha)
                  + p.gamma * p.r ** t)


@dataclass(frozen=True)
class SyntheticGenerator:
    """Deterministic-under-seed realization of the generator contract.

    bad_set indices emit a constant all-ones matrix (their reduced bit is
    pinned); good indices emit fresh uniform matrices from the recorded
    seed, independent across indices up to the generator's PRG."""

    params: MultiParams
    seed: int
    bad_set: tuple[int, ...]

    def matrices(self, sources: Sequence[BitString]) -> list[RowMatrix]:
        import numpy as np

        p = self.params
        mix = self.seed
        for s in sources:
            mix = (mix * 0x9E3779B97F4A7C15 + s.val) & ((1 << 64) - 1)
        rng = np.random.Generator(np.random.Philox(mix))
        out = []
        ones = BitString(p.m, (1 << p.m) - 1)
        for i in range(p.r):
            if i in self.bad_set:
                out.append(matrix([ones] * p.L))
            else:
                rows = [BitString(p.m, int(v))
                        for v in rng.integers(1 << p.m, size=p.L)]
                out.append(matrix(rows))
        return out


def make_generator(rng, p: MultiParams, n_bad: int | None = None
                   ) -> SyntheticGenerator:
    max_bad = math.ceil(p.r ** (0.5 - p.alpha))
    if n_bad is None:
        n_bad = max_bad
    if n_bad > max_bad:
        raise ParamError("bad_set", f"more than r^(1/2-alpha) = {max_bad}")
    bad = tuple(sorted(int(i) for i in
                       rng.choice(p.r, size=n_bad, replace=False)))
    return SyntheticGenerator(params=p, seed=int(rng.integers(1 << 63)),
                              bad_set=bad)


def reduce_bits(mats: Sequence[RowMatrix], weak: BitString,
                p: MultiParams) -> list[int]:
    """Bit i is the first bit of the weak-seed merger on matrix i."""
    return [ipm_weak(mat, weak, p.ipm).bit(0) for mat in mats]


def majority(bits: Sequence[int]) -> int:
    if len(bits) % 2 == 0:
        raise ValueError("majority needs odd arity")
    return 1 if sum(bits) * 2 > len(bits) else 0


def multi_ext(gen: SyntheticGenerator, sources: Sequence[BitString],
              weak: BitString) -> int:
    mats = gen.matrices(sources)
    return majority(reduce_bits(mats, weak, gen.params))


def default_params(r: int, t: int = 1, alpha: float = 0.5,
                   gamma: float = 0.0, c: float = 1.0) -> MultiParams:
    """r matrices of four 16-bit rows reduced through a micro weak-seed
    merger; the synthetic generator's good bits are exactly independent,
    so gamma defaults to zero."""
    levels = (LevelPlan(ell=2, m_in=8, w=4, m_out=4, d_slice=8),
              LevelPlan(ell=2, m_in=4, w=2, m_out=2, d_slice=12))
    ipm = micro_ipm(L=4, t=t, m=16, n_y=16, k_y=12, d_z=12,
                    nipm=hand_plan(4, t, levels))
    return MultiParams(r=r, L=4, m=16, t=t, alpha=alpha, gamma=gamma,
                       c=c, ipm=ipm)


def exact_majority_prob_one(r: int, pinned_ones: int) -> Fraction:
    """Pr[majority = 1] when pinned_ones coordinates are constant 1 and
    the remaining r - pinned_ones are independent fair bits; exact
    binomial tail."""
    free = r - pinned_ones
    need = r // 2 + 1 - pinned_ones  # free ones needed for majority
    total = Fraction(0)
    for j in range(max(need, 0), free + 1):
        total += Fraction(math.comb(free, j), 1 << free)
    return total
