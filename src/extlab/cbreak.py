"""Correlation breakers: advice generation and the flip-flop primitive.

``adv_gen`` fingerprints the seed so that any tampered seed almost
surely receives different advice: a short raw prefix of y is
concatenated with Reed-Solomon symbols of y sampled at positions chosen
by an extraction from x (seeded by another slice of y).

``flip_flop`` uses one advice bit to break the correlation between a
row derived from (x, y) and its tampered twin: phase one runs a
two-step look-ahead between x and y and selects its first or second
token according to the advice bit, phase two repeats the dance from
(x, selected token), and the output is a wide extraction of x keyed by
the opposite selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gf2
from .bits import BitString, blocks, concat, slice_bits
from .nipm import ParamError
from .sext import (ExtScheme, affine_scheme, ext, poly_scheme,
                   sample_positions)


@dataclass(frozen=True)
class AdvGenParams:
    n: int           # x length
    d: int           # y length
    a0: int          # slice of y used as the sampler seed
    a0p: int         # raw prefix of y copied into the advice
    positions: int   # number of sampled Reed-Solomon symbols
    rs_block: int    # Reed-Solomon symbol size (bits)
    sampler: ExtScheme

    def __post_init__(self) -> None:
        if self.a0 > self.d or self.a0p > self.d:
            raise ParamError("a0", "advice slices exceed seed length")
        if self.sampler.d_seed != self.a0:
            raise ParamError("a0", "sampler seed width mismatch")
        if self.code_n > (1 << self.rs_block):
            raise ParamError("rs_block", "code longer than field")

    @property
    def code_n(self) -> int:
        """Rate-1/2 evaluation domain: twice the message length."""
        return 2 * -(-self.d // self.rs_block)

    @property
    def advice_len(self) -> int:
        return self.a0p + self.positions * self.rs_block


def plan_adv_gen(n: int, d: int, eps: float, positions: int = 2,
                 rs_block: int | None = None) -> AdvGenParams:
    if rs_block is None:
        rs_block = max(4, math.ceil(math.log2(max(d, 4))))
    code_n = 2 * -(-d // rs_block)
    w = max(1, (code_n - 1).bit_length())
    m_r = positions * w
    b = max(m_r, 4)
    a0 = 2 * b
    if a0 > d:
        raise ParamError("a0", f"seed too short for the sampler ({a0} > {d})")
    sampler = poly_scheme(n, m_r, block=b)
    p = AdvGenParams(n=n, d=d, a0=a0, a0p=min(2, d), positions=positions,
                     rs_block=rs_block, sampler=sampler)
    if p.advice_len < 8:
        raise ParamError("L", "advice shorter than 8 bits")
    return p


def adv_gen(x: BitString, y: BitString, p: AdvGenParams) -> BitString:
    if x.n != p.n or y.n != p.d:
        raise ValueError("input width mismatch")
    a = slice_bits(y, p.a0)
    r = ext(p.sampler, x, a)
    pos = sample_positions(r, p.positions, p.code_n)
    msg = blocks(y, p.rs_block)
    parts = [slice_bits(y, p.a0p)]
    # only the sampled codeword symbols are needed, so evaluate the
    # message polynomial at just those points
    parts += [BitString(p.rs_block, gf2.poly_eval(msg, i, p.rs_block))
              for i in pos]
    return concat(*parts)


def collision_bound(p: AdvGenParams) -> float:
    """Analytic bound on Pr[adv(x,y) = adv(x,y')] for y != y' (over a
    uniform sampler output): distinct seeds either differ in the raw
    prefix or their codewords agree on at most deg positions, so every
    sampled symbol of a shared-position pair collides with probability
    at most deg/code_n; add the sampler's claimed error once."""
    deg = -(-p.d // p.rs_block) - 1
    agree = deg / p.code_n
    return agree ** p.positions + p.sampler.claimed_eps


@dataclass(frozen=True)
class FlipFlopParams:
    n: int        # x length
    d_y: int      # y length
    w: int        # chain token width
    m_out: int    # output width

    def __post_init__(self) -> None:
        if self.w > self.d_y:
            raise ParamError("d_ff", "token wider than the seed source")
        if self.m_out > self.w:
            raise ParamError("m_ff", "output wider than the chain token")

    def scheme_x(self) -> ExtScheme:
        return affine_scheme(self.n, self.w)

    def scheme_y(self) -> ExtScheme:
        return affine_scheme(self.d_y, self.w)

    def scheme_tok(self) -> ExtScheme:
        return affine_scheme(self.w, self.w)

    def scheme_out(self) -> ExtScheme:
        return affine_scheme(self.n, self.m_out)


def flip_flop(x: BitString, y: BitString, advice_bit: int,
              p: FlipFlopParams) -> BitString:
    if advice_bit not in (0, 1):
        raise ValueError("advice bit must be 0 or 1")
    if x.n != p.n or y.n != p.d_y:
        raise ValueError("input width mismatch")
    # the two-phase recipe with its dead steps dropped: for bit 1 the key
    # is phase one's s2 = Ext_y(y, r1); for bit 0 phase two restarts from
    # s1, so its look-ahead reuses r1 and the key is Ext_tok(s1, r1)
    s1 = slice_bits(y, p.w)
    r1 = ext(p.scheme_x(), x, s1)
    key = (ext(p.scheme_y(), y, r1) if advice_bit
           else ext(p.scheme_tok(), s1, r1))
    return ext(p.scheme_out(), x, slice_bits(key, p.m_out))
