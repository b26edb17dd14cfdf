"""Seeded strong extractors behind a swappable scheme interface.

Two hash families are provided:

* ``poly``: split the source into b-bit blocks, read them as coefficients
  of a polynomial over GF(2^b), evaluate at the seed's first field
  element, multiply by the seed's second field element, truncate to
  m_out bits.  Seed is exactly two field elements (d_seed = 2b).  The
  family is almost-universal, so the leftover hash lemma gives the
  analytic error bound below.  Linear in the source for a fixed seed;
  the all-zero source maps to the all-zero output under every seed.

* ``affine``: XOR-fold the source into 2*m_out bits, split the two
  halves into blocks (u_i, v_i) and output u_i*s_i + v_i per block with
  independent seed blocks s_i.  Seed length equals the output length, so
  it composes into constant-width alternating chains.  The family is
  only 2^-block almost-universal: the leftover-hash bound is vacuous for
  outputs wider than one block, and its strength is established by the
  exhaustive micro oracles and Monte-Carlo suites instead.

Every scheme is a plain description; ``ext_val`` does the work on ints
and ``ext`` checks the widths and wraps its result in a ``BitString``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import gf2
from .bits import BitString, int_blocks

FAMILIES = ("poly", "affine")


@dataclass(frozen=True)
class ExtScheme:
    n_in: int
    m_out: int
    family: str
    block: int
    # seed width: two field elements (poly), or m_out (affine) (derived)
    d_seed: int = field(init=False, repr=False, compare=False)
    # poly Horner constants (derived): x's right pad to whole blocks, the
    # top block's shift, the block mask and the output shift
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.block < 1 or self.block > gf2.MAX_DEGREE:
            raise ValueError("block size out of range")
        if self.m_out < 1:
            raise ValueError("empty output")
        if self.family == "poly":
            if self.m_out > self.block:
                raise ValueError("poly family: m_out exceeds block size")
        elif self.block != min(self.m_out & -self.m_out, 16):
            raise ValueError("affine family: block must be "
                             "min(m_out & -m_out, 16)")
        object.__setattr__(self, "d_seed", 2 * self.block
                           if self.family == "poly" else self.m_out)
        b, pad = self.block, -self.n_in % self.block
        object.__setattr__(self, "_horner", (
            pad, self.n_in + pad - b, (1 << b) - 1, b - self.m_out))


@lru_cache(maxsize=None)
def poly_scheme(n_in: int, m_out: int, block: int | None = None
                ) -> ExtScheme:
    if block is None:
        block = max(m_out, 8)
    return ExtScheme(n_in, m_out, "poly", block)


@lru_cache(maxsize=None)
def affine_scheme(n_in: int, m_out: int) -> ExtScheme:
    """Block: the largest power of two <= 16 that divides m_out."""
    return ExtScheme(n_in, m_out, "affine", min(m_out & -m_out, 16))


def ext(scheme: ExtScheme, x: BitString, seed: BitString) -> BitString:
    if x.n != scheme.n_in:
        raise ValueError(f"source width {x.n} != {scheme.n_in}")
    if seed.n != scheme.d_seed:
        raise ValueError(f"seed width {seed.n} != {scheme.d_seed}")
    return BitString(scheme.m_out, ext_val(scheme, x.val, seed.val))


def ext_val(scheme: ExtScheme, x: int, s: int) -> int:
    """``ext`` on ints: x holds n_in bits and s d_seed bits, and the
    result m_out bits.  The widths are not checked: callers pass values
    their parameters sized."""
    if scheme.family == "poly":
        b = scheme.block
        pad, top, mask, out = scheme._horner
        if b > 16:
            acc = gf2.poly_eval(int_blocks(x, scheme.n_in, b), s >> b, b)
            return gf2.mul(acc, s & mask, b) >> out
        # up to 16 bits: Horner off x's padded int, top block first
        log, exp = gf2._tables(b)
        lx, v = log[s >> b], x << pad
        acc = v >> top
        for sh in range(top - b, -1, -b):
            acc = exp[log[acc] + lx] ^ ((v >> sh) & mask)
        return exp[log[acc] + log[s & mask]] >> out
    m = scheme.m_out
    return affine_int(m, fold(x, scheme.n_in, 2 * m), s)


def fold(x: int, n: int, width: int) -> int:
    """XOR of consecutive ``width``-bit segments of the n-bit int x (last
    padded right)."""
    if n <= width:
        return x << (width - n)
    v = x << ((-n) % width)
    mask = (1 << width) - 1
    acc = 0
    while v:
        acc ^= v & mask
        v >>= width
    return acc


def affine_int(m: int, z: int, s: int) -> int:
    """The affine law on ints: z is the source folded to 2m bits and s the
    m-bit seed; the output is u*s + v blockwise over GF(2^b), where u and
    v are z's halves and b is ``affine_scheme``'s block.  Up to 8 bits
    the products are one lookup in ``_product_table(m)``; wider outputs
    multiply block by block through the zero-sentinel GF(2^b) log/exp
    tables, in a pure-Python loop at every block (at block 16 the scalar
    reference that ``nmx.affine16``, the symbol path's kernel, is tested
    against)."""
    u, v = z >> m, z & ((1 << m) - 1)
    if m <= 8:
        return _product_table(m)[(u << m) | s] ^ v
    b = m & -m if m & 15 else 16
    mask = (1 << b) - 1
    log, exp = gf2._tables(b)
    out = 0
    for sh in range(m - b, -1, -b):
        out = (out << b) | exp[log[(u >> sh) & mask] + log[(s >> sh) & mask]]
    return out ^ v


@lru_cache(maxsize=None)
def _product_table(m: int) -> bytes:
    """T[(u << m) | s] = the blockwise GF(2^b) product of the m-bit ints u
    and s, b = m & -m, for m <= 8: 2^(2m) bytes, at most 64 KB.  Built
    with bytes operations only, so the build allocates little beyond the
    table and touches no numpy code."""
    b, size = m & -m, 1 << m
    if b == 1:
        return bytes(u & s for u in range(size) for s in range(size))
    order = (1 << b) - 1
    log, exp = gf2._tables(b)
    # row a of the GF(2^b) product table: exp from log[a] on, read at the
    # logs of every c, with c = 0 sent to index ``order``, a zero byte
    logs = bytes([order] + log[1:])
    prods = [bytes(1 << b)] + [
        logs.translate(bytes(exp[la:la + order]).ljust(256, b"\0"))
        for la in log[1:]]
    if m == b:
        return b"".join(prods)
    # several blocks (m = 6): row u is the OR over the blocks of the
    # block's product row, read at that block's digit of every s
    mask, shifts = (1 << b) - 1, range(0, m, b)
    digits = [bytes((s >> sh) & mask for s in range(size)) for sh in shifts]
    rows = []
    for u in range(size):
        row = 0
        for digit, sh in zip(digits, shifts):
            prod = bytes(c << sh for c in prods[(u >> sh) & mask])
            row |= int.from_bytes(digit.translate(prod.ljust(256, b"\0")),
                                  "big")
        rows.append(row.to_bytes(size, "big"))
    return b"".join(rows)


def lhl_bound(scheme: ExtScheme, k: int) -> Fraction:
    """Leftover-hash error bound for a (n, k) source, as an exact
    Fraction capped at 1: half the square root of 2^(m-k) plus the
    family's almost-universality excess."""
    m, b = scheme.m_out, scheme.block
    if scheme.family == "poly":
        n_blocks = -(-scheme.n_in // b)
        excess = Fraction(n_blocks - 1, 1 << b) * (1 << m)
    else:
        # one differing block suffices to collide: 2^-b almost-universal
        excess = Fraction(1 << m, 1 << b) - 1  # b divides m
    inside = Fraction(1 << m, 1 << k) + excess
    val = _sqrt_fraction_upper(inside) / 2
    return min(val, Fraction(1))


def avg_case_bound(scheme: ExtScheme, k_avg: float) -> Fraction:
    """Error against sources with *average* conditional min-entropy
    k_avg: optimize the worst-case/average-case tradeoff, i.e. the min
    over g of lhl_bound(k_avg - g) + 2^-g."""
    best = Fraction(1)
    kf = math.floor(k_avg)
    for g in range(kf + 1):
        best = min(best, lhl_bound(scheme, kf - g) + Fraction(1, 1 << g))
    return best


def _sqrt_fraction_upper(x: Fraction) -> Fraction:
    """Upper bound on sqrt(x) exact to ~2^-48 relative error."""
    scale = 1 << 96
    num = math.isqrt(x.numerator * scale // x.denominator) + 1
    return Fraction(num, 1 << 48)


def ext_all_seeds_poly(scheme: ExtScheme, xs: list[int]):
    """Poly-family outputs over every seed, tallied for the exact
    strong-distance oracle.  The xs are a source's points, so they are
    below 2^N_MAX.  Returns the output-major int64 count table
    ``counts[z, (s2 << b) | s1]``, the number of xs with ext(x, s) = z
    for the seed s = (s1 << b) | s2.  Requires block <= 8 so the seed
    space is enumerable.

    The output prefix_m(acc(x, s1) * s2) sees x only through the Horner
    value acc(x, s1), so the xs are first tallied into hist[s1, a], the
    number of xs with acc(x, s1) = a, and hist is then contracted with
    the 0/1 table O[a, (z, s2)] = [prefix_m(a * s2) = z] in one float64
    matmul, O^T hist^T.  That product is exact: every entry and every
    partial sum is a non-negative integer at most len(xs) <= 2^20, far
    below float64's 2^53, so any summation order gives the same
    integers."""
    import numpy as np

    b, m = scheme.block, scheme.m_out
    if b > 8:
        raise ValueError("seed space too large to enumerate")
    field = 1 << b
    mul = gf2.np_mul_table(b)
    # blocks(x, b) for every x at once: left to right, the last one
    # right-padded with zeros
    pad, top = scheme._horner[:2]
    v = np.asarray(xs, dtype=np.int64)[:, None] << pad
    xb = (v >> np.arange(top, -1, -b, dtype=np.int64)) & (field - 1)
    # Horner on idx[s1, x] = s1 * 2^b + acc(x, s1) from the first block, one
    # take from the flat product table per block; the bincount is hist[s1, a]
    row = np.arange(field, dtype=np.int64)[:, None] << b
    idx = row | xb[:, 0]
    for j in range(1, xb.shape[1]):
        idx = row | (mul.take(idx) ^ xb[:, j])
    hist = np.bincount(idx.ravel(), minlength=field * field)
    hist = hist.reshape(field, field).astype(np.float64)
    counts = _prefix_table(b, m).T @ hist.T  # row (z, s2), column s1
    return counts.astype(np.int64).reshape(1 << m, field * field)


@lru_cache(maxsize=None)
def _prefix_table(b: int, m: int):
    """O[a, (z << b) | s2] = 1 exactly when prefix_m(a * s2) = z in
    GF(2^b), as float64 for the count contraction."""
    import numpy as np

    field = 1 << b
    table = np.zeros((field, field << m), dtype=np.float64)
    cols = ((gf2.np_mul_table(b) >> (b - m)) << b) | np.arange(field)
    np.put_along_axis(table, cols, 1.0, axis=1)
    table.setflags(write=False)  # cached and shared by every call
    return table
