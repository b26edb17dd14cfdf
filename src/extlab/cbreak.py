"""Correlation breakers: advice generation and the flip-flop primitive.

``adv_gen`` fingerprints the seed so that any tampered seed almost
surely receives different advice: a short raw prefix of y is
concatenated with Reed-Solomon symbols of y sampled at positions chosen
by an extraction from x (seeded by another slice of y).  A symbol is
GF(2)-linear in y, so each of its bits is the parity of y under a mask
(``rs_masks``, built once per code position).

``flip_flop`` uses one advice bit to break the correlation between a
row derived from (x, y) and its tampered twin: phase one runs a
two-step look-ahead between x and y and selects its first or second
token according to the advice bit, phase two repeats the dance from
(x, selected token), and the output is a wide extraction of x keyed by
the opposite selection.  ``flip_flop_vals`` builds the outputs of
several advice bits from one shared first extraction, on ints; the
non-malleable extractor (``nmx.nm_ext``) calls it.

``adv_gen`` and ``flip_flop`` check their widths, run their int bodies
and wrap the result in a ``BitString``; the bodies pass plain ints
between their steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Iterable

from . import gf2
from .bits import BitString
from .nipm import ParamError
from .sext import ExtScheme, affine_scheme, ext_val, lhl_bound, poly_scheme


@dataclass(frozen=True)
class AdvGenParams:
    """Advice of a 2-bit raw prefix of y and two Reed-Solomon symbols of
    y, of max(4, ceil(log2 d)) bits each, at positions sampled from x.
    n and d are the only choices; every other width follows from them
    at construction."""
    n: int           # x length
    d: int           # y length
    a0p: ClassVar[int] = 2         # raw prefix of y copied into the advice
    positions: ClassVar[int] = 2   # number of sampled Reed-Solomon symbols
    # derived: the Reed-Solomon symbol bits, the rate-1/2 evaluation
    # domain (twice the message length) and the sampler of positions
    rs_block: int = field(init=False, repr=False, compare=False)
    code_n: int = field(init=False, repr=False, compare=False)
    sampler: ExtScheme = field(init=False, repr=False, compare=False)
    # adv_gen_val's constants (derived): the shifts of y's sampler seed,
    # y's raw prefix and each sampled position in the sampler output, the
    # position mask and code_n
    _shifts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rs_block = max(4, math.ceil(math.log2(max(self.d, 4))))
        code_n = 2 * -(-self.d // rs_block)
        # positions: w-bit chunks of the sampler output (code_n >= 2)
        w = (code_n - 1).bit_length()
        m = self.positions * w
        b = max(m, 4)
        if 2 * b > self.d:
            raise ParamError("a0", f"seed too short for the sampler "
                                   f"({2 * b} > {self.d})")
        object.__setattr__(self, "rs_block", rs_block)
        object.__setattr__(self, "code_n", code_n)
        object.__setattr__(self, "sampler", poly_scheme(self.n, m, block=b))
        object.__setattr__(self, "_shifts", (
            self.d - self.a0, self.d - self.a0p,
            tuple(m - (i + 1) * w for i in range(self.positions)),
            (1 << w) - 1, code_n))

    @property
    def a0(self) -> int:
        """Slice of y used as the sampler seed."""
        return self.sampler.d_seed

    @property
    def advice_len(self) -> int:
        return self.a0p + self.positions * self.rs_block


@lru_cache(maxsize=None)
def rs_masks(d: int, b: int, a: int) -> tuple[int, ...]:
    """The parity masks of position a of the Reed-Solomon code of d-bit
    messages in b-bit blocks: bit b - 1 - j of y's symbol at a is the
    parity of y & masks[j].  Built on first use of a position, so a plan
    pays only for the positions its advice samples.

    The symbol at a is sum_i c_i * a^i over GF(2^b), c_i the i-th block
    from the right of y padded right to k = ceil(d / b) blocks (Horner
    order of ``gf2.poly_eval``, a^0 = 1 at a = 0 too).  Bit t of c_i adds
    2^t * a^i, so bit r of the symbol is the parity of the bits (i, t)
    whose 2^t * a^i has bit r set.  All k blocks are worked at once in
    one int, s, holding 2^t * a^i in block i: doubling s shifts every
    block left and reduces the blocks whose top bit fell out."""
    k = -(-d // b)
    ones = sum(1 << (b * i) for i in range(k))    # bit 0 of every block
    low = ones * ((1 << (b - 1)) - 1)             # all but each top bit
    reduce = gf2.IRREDUCIBLE[b] ^ (1 << b)
    s, power = 0, 1
    for i in range(k):
        s |= power << (b * i)
        power = gf2.mul(power, a, b)
    cols = []
    for _ in range(b):
        cols.append(s)
        s = ((s & low) << 1) ^ ((s >> (b - 1)) & ones) * reduce
    masks = []
    for r in range(b - 1, -1, -1):
        m = 0
        for t, col in enumerate(cols):
            m |= ((col >> r) & ones) << t
        masks.append(m >> (k * b - d))
    return tuple(masks)


def plan_adv_gen(n: int, d: int, eps: float) -> AdvGenParams:
    """The advice plan of an n-bit x and a d-bit y: ``AdvGenParams(n,
    d)``.  eps is not read; the advice widths depend on n and d only."""
    return AdvGenParams(n, d)


def adv_gen(x: BitString, y: BitString, p: AdvGenParams) -> BitString:
    if x.n != p.n or y.n != p.d:
        raise ValueError("input width mismatch")
    return BitString(p.advice_len, adv_gen_val(x.val, y.val, p))


def adv_gen_val(x: int, y: int, p: AdvGenParams) -> int:
    """``adv_gen`` on ints: x holds p.n bits and y p.d bits."""
    seed_sh, prefix_sh, pos_shs, pos_mask, code_n = p._shifts
    r = ext_val(p.sampler, x, y >> seed_sh)
    adv = y >> prefix_sh
    d, b = p.d, p.rs_block
    # only the sampled codeword symbols are needed: one parity per bit
    for sh in pos_shs:
        for mask in rs_masks(d, b, ((r >> sh) & pos_mask) % code_n):
            adv = (adv << 1) | ((y & mask).bit_count() & 1)
    return adv


def collision_bound(p: AdvGenParams) -> float:
    """Analytic bound on Pr[adv(x,y) = adv(x,y')] for y != y' (over a
    uniform sampler output): distinct seeds either differ in the raw
    prefix or their codewords agree on at most deg positions, so every
    sampled symbol of a shared-position pair collides with probability
    at most deg/code_n; add the sampler's leftover-hash error at a full
    n-bit source once."""
    deg = -(-p.d // p.rs_block) - 1
    agree = deg / p.code_n
    return agree ** p.positions + float(lhl_bound(p.sampler, p.n))


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
    if x.n != p.n or y.n != p.d_y:
        raise ValueError("input width mismatch")
    s1 = y.val >> (p.d_y - p.w)
    r1 = ext_val(p.scheme_x(), x.val, s1)
    return BitString(p.m_out,
                     _flip_flop_row(x.val, y.val, s1, r1, advice_bit, p))


def flip_flop_vals(x: int, y: int, advice_bits: Iterable[int],
                   p: FlipFlopParams) -> dict[int, int]:
    """The flip-flop output for each advice bit in ``advice_bits``, on
    ints: x holds p.n bits and y p.d_y bits.  The bits share phase one's
    r1, which does not depend on the bit."""
    s1 = y >> (p.d_y - p.w)
    r1 = ext_val(p.scheme_x(), x, s1)
    return {bit: _flip_flop_row(x, y, s1, r1, bit, p) for bit in advice_bits}


def _flip_flop_row(x: int, y: int, s1: int, r1: int, bit: int,
                   p: FlipFlopParams) -> int:
    # the two-phase recipe with its dead steps dropped: for bit 1 the key
    # is phase one's s2 = Ext_y(y, r1); for bit 0 phase two restarts from
    # s1, so its look-ahead reuses r1 and the key is Ext_tok(s1, r1)
    if bit not in (0, 1):
        raise ValueError("advice bit must be 0 or 1")
    key = (ext_val(p.scheme_y(), y, r1) if bit
           else ext_val(p.scheme_tok(), s1, r1))
    return ext_val(p.scheme_out(), x, key >> (p.w - p.m_out))
