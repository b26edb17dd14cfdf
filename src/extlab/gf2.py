"""Binary field arithmetic GF(2^b) used by the hashing extractors, the
Reed-Solomon advice code and the polynomial MAC.

Elements are plain Python ints holding the coefficient vector of a
polynomial over GF(2), reduced modulo the lexicographically least
irreducible polynomial of the requested degree.  Degrees up to 16 get
zero-sentinel log/antilog tables on first use (the hot path), for which
``exp[log[a] + log[c]]`` is a * c at zero too: lists up to degree 8,
contiguous ``array`` buffers above it, which ``np_tables`` wraps for the
array kernels without a copy.  Above degree 16, ``poly_eval`` reads
4-bit window tables of its fixed multiplier, built once per call, and
``mul`` the first of them; ``mul_slow`` is the shift-and-add reference.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

# Lexicographically least irreducible polynomial of each degree over GF(2),
# encoded with the leading coefficient included (0x11B = x^8+x^4+x^3+x+1).
IRREDUCIBLE: dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x20000004B,
    34: 0x40000001B,
    35: 0x800000005,
    36: 0x1000000035,
    37: 0x200000003F,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000027,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000071,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x4000000000007D,
    55: 0x80000000000047,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000000063,
    59: 0x80000000000007B,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000000000069,
    63: 0x8000000000000003,
    64: 0x1000000000000001B,
}

MAX_DEGREE = 64
_TABLE_DEGREE_LIMIT = 16


def mul_slow(a: int, b: int, b_bits: int) -> int:
    """Shift-and-add product in GF(2^b_bits)."""
    f = IRREDUCIBLE[b_bits]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> b_bits) & 1:
            a ^= f
    return r


@lru_cache(maxsize=None)
def _tables(b_bits: int) -> tuple[list[int] | array, list[int] | array]:
    """Zero-sentinel (log, exp) tables over a generator of GF(2^b_bits)^*:
    ``exp[log[a] + log[c]] == a * c`` for every a and c, zero included.
    log[0] is the sentinel 2 * order (order = 2^b_bits - 1); exp is the
    exp table doubled, then zero-padded to 4 * order + 1 entries, so any
    sum with a sentinel lands in the zeros.  Up to b_bits = 8 the tables
    are lists (their entries are cached small ints); above it they are
    contiguous ``array`` buffers, log of 'q' and exp of 'H', filled in
    place, so GF(2^16) takes 1 MB."""
    order = (1 << b_bits) - 1
    # the group is cyclic of order 2^b - 1: g generates it iff g^(order/p)
    # != 1 for every prime p | order (b_bits = 1: the group is {1})
    gen = next((g for g in range(2, 1 << b_bits) if all(
        pow_(g, order // p, b_bits) != 1 for p in _prime_factors(order))), 1)
    if b_bits <= 8:
        log, exp = [0] * (1 << b_bits), [0] * (4 * order + 1)
    else:
        log, exp = array("q", [0]) * (1 << b_bits), array("H", [0]) * (
            4 * order + 1)
    # x -> x * gen is linear: one lookup for the low byte, one for the rest
    low = [mul_slow(c, gen, b_bits) for c in range(1 << min(b_bits, 8))]
    high = [mul_slow(c << 8, gen, b_bits)
            for c in range(1 << max(b_bits - 8, 0))]
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = high[x >> 8] ^ low[x & 255]
    exp[order:2 * order] = exp[:order]
    log[0] = 2 * order
    return log, exp


def _prime_factors(n: int) -> list[int]:
    f, d = [], 2
    while d * d <= n:
        if n % d == 0:
            f.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        f.append(n)
    return f


def pow_(a: int, e: int, b_bits: int) -> int:
    """a^e in GF(2^b_bits) by square-and-multiply."""
    r = 1
    while e:
        if e & 1:
            r = mul_slow(r, a, b_bits)
        a = mul_slow(a, a, b_bits)
        e >>= 1
    return r


@lru_cache(maxsize=None)
def np_tables(b_bits: int) -> tuple["numpy.ndarray", "numpy.ndarray"]:
    """``_tables(b_bits)`` as read-only numpy arrays, for b_bits <= 16, so
    array callers need no masks: log is intp, the index type, so a sum of
    logs indexes exp without a cast, and exp is uint16.  Above b_bits = 8
    they are views of the ``array`` buffers, not copies."""
    import numpy as np

    log, exp = _tables(b_bits)
    log, exp = np.asarray(log, dtype=np.intp), np.asarray(exp, np.uint16)
    for table in (log, exp):
        table.setflags(write=False)  # cached and shared by every call
    return log, exp


@lru_cache(maxsize=None)
def np_mul_table(b_bits: int):
    """The full (2^b_bits, 2^b_bits) product table as an int64 numpy
    array, for the small fields whose every product is looked up at
    once."""
    import numpy as np

    log, exp = np_tables(b_bits)
    table = exp[log[:, None] + log[None, :]].astype(np.int64)
    table.setflags(write=False)  # cached and shared by every call
    return table


def mul(a: int, b: int, b_bits: int) -> int:
    """Product in GF(2^b_bits): one table lookup up to degree 16; above
    it, Horner over a's nibbles, top first, with b's first window."""
    if b_bits <= _TABLE_DEGREE_LIMIT:
        log, exp = _tables(b_bits)
        return exp[log[a] + log[b]]
    t, carries = _window(b, b_bits), _carries(b_bits)
    mask, top, r = (1 << b_bits) - 1, b_bits - 4, 0
    for sh in range((b_bits - 1) & ~3, -1, -4):
        r = ((r << 4) & mask) ^ carries[r >> top] ^ t[(a >> sh) & 15]
    return r


@lru_cache(maxsize=None)
def _carries(b_bits: int) -> list[int]:
    """carries[h] = h * 2^b_bits in GF(2^b_bits), for the 4-bit carry h
    out of a shift by 4."""
    return [mul_slow(h << (b_bits - 4), 16, b_bits) for h in range(16)]


def _window(x: int, b_bits: int) -> list[int]:
    """The 4-bit window table of x: ``[nib * x for nib in range(16)]``,
    one list display over the basis products x, 2x, 4x and 8x."""
    f, top = IRREDUCIBLE[b_bits], b_bits - 1
    x1 = (x << 1) ^ (f & -(x >> top))
    x2 = (x1 << 1) ^ (f & -(x1 >> top))
    x3 = (x2 << 1) ^ (f & -(x2 >> top))
    a, b, c = x ^ x1, x ^ x2, x1 ^ x2
    d = a ^ x2
    return [0, x, x1, a, x2, b, c, d,
            x3, x3 ^ x, x3 ^ x1, x3 ^ a, x3 ^ x2, x3 ^ b, x3 ^ c, x3 ^ d]


def _windows(x: int, b_bits: int) -> list[list[int]]:
    """Every 4-bit window table of x, low nibble first: ``windows[j][nib]``
    is (nib * 2^(4j)) * x."""
    carries, mask, top = _carries(b_bits), (1 << b_bits) - 1, b_bits - 4
    windows = []
    for _ in range(0, b_bits, 4):
        windows.append(_window(x, b_bits))
        x = ((x << 4) & mask) ^ carries[x >> top]
    return windows


def poly_eval(coeffs: list[int], x: int, b_bits: int) -> int:
    """Horner evaluation of sum(coeffs[i] * x^(deg-i)) in GF(2^b_bits).

    The multiplier x is fixed for the whole call, so its tables are read
    once: log[x] up to degree 16, 4-bit window tables of x above it."""
    acc = 0
    if b_bits <= _TABLE_DEGREE_LIMIT:
        log, exp = _tables(b_bits)
        lx = log[x]
        for c in coeffs:
            acc = exp[log[acc] + lx] ^ c
        return acc
    windows = _windows(x, b_bits)
    for c in coeffs:
        r = c
        for t in windows:
            r ^= t[acc & 15]
            acc >>= 4
        acc = r
    return acc
