"""Binary field arithmetic GF(2^b) used by the hashing extractors, the
Reed-Solomon advice code and the polynomial MAC.

Elements are plain Python ints holding the coefficient vector of a
polynomial over GF(2), reduced modulo the lexicographically least
irreducible polynomial of the requested degree.  Degrees up to 16 get
log/antilog tables on first use (the hot path); ``mul`` falls back to
shift-and-add multiplication for larger degrees, while ``poly_eval``
builds 4-bit window tables of its fixed multiplier once per call.
"""

from __future__ import annotations

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
def _tables(b_bits: int) -> tuple[list[int], list[int]]:
    """(log, exp) tables over a generator of GF(2^b_bits)^*."""
    order = (1 << b_bits) - 1
    # Find a generator: try small elements; the group is cyclic of order 2^b-1.
    for g in range(2, 1 << b_bits):
        ok = True
        # quick check: g generates iff g^(order/p) != 1 for prime p | order
        for p in _prime_factors(order):
            if pow_(g, order // p, b_bits) == 1:
                ok = False
                break
        if ok:
            gen = g
            break
    else:  # pragma: no cover - b_bits=1 handled by caller
        gen = 1
    exp = [1] * (2 * order)
    log = [0] * (1 << b_bits)
    x = 1
    for i in range(order):
        exp[i] = x
        log[x] = i
        x = mul_slow(x, gen, b_bits)
    for i in range(order, 2 * order):
        exp[i] = exp[i - order]
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
def np_tables(b_bits: int):
    """Zero-sentinel (log, exp) tables as numpy arrays, for b_bits <= 16:
    ``exp[log[a] + log[c]] == a * c`` for every a and c, zero included,
    so array callers need no masks.  log[0] is the sentinel 2 * order
    (order = 2^b_bits - 1); exp is uint16, the exp table doubled and
    then zero-padded to 4 * order + 1 entries, so any sum with a
    sentinel lands in the zeros.  log is intp, the index type, so a sum
    of logs indexes exp without a cast."""
    import numpy as np

    order = (1 << b_bits) - 1
    log, exp = _tables(b_bits)
    log_np = np.asarray(log, dtype=np.intp)
    log_np[0] = 2 * order
    exp_np = np.zeros(4 * order + 1, dtype=np.uint16)
    exp_np[:2 * order] = exp
    for table in (log_np, exp_np):
        table.setflags(write=False)  # cached and shared by every call
    return log_np, exp_np


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
    """Product in GF(2^b_bits)."""
    if b_bits == 1:
        return a & b
    if a == 0 or b == 0:
        return 0
    if b_bits <= _TABLE_DEGREE_LIMIT:
        log, exp = _tables(b_bits)
        return exp[log[a] + log[b]]
    return mul_slow(a, b, b_bits)


def poly_eval(coeffs: list[int], x: int, b_bits: int) -> int:
    """Horner evaluation of sum(coeffs[i] * x^(deg-i)) in GF(2^b_bits).

    The multiplier x is fixed for the whole call, so its tables are built
    once: log[x] up to degree 16, 4-bit window tables of x above it."""
    acc = 0
    if b_bits == 1 or x == 0:
        for c in coeffs:
            acc = mul(acc, x, b_bits) ^ c
        return acc
    if b_bits <= _TABLE_DEGREE_LIMIT:
        log, exp = _tables(b_bits)
        lx = log[x]
        for c in coeffs:
            acc = (exp[log[acc] + lx] if acc else 0) ^ c
        return acc
    # windows[j][nib] = (nib * 2^(4j)) * x, from the shift-reduce steps x*2^i
    f, windows = IRREDUCIBLE[b_bits], []
    for _ in range(0, b_bits, 4):
        t = [0]
        for _ in range(4):
            t += [e ^ x for e in t]
            x <<= 1
            if x >> b_bits:
                x ^= f
        windows.append(t)
    for c in coeffs:
        r = c
        for t in windows:
            r ^= t[acc & 15]
            acc >>= 4
        acc = r
    return acc
