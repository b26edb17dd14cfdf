"""Fixed-width bit strings and row matrices.

A BitString is an immutable (length, value) pair.  Bit 0 is the leftmost
bit, i.e. the most significant bit of ``val``.  ``slice_bits`` takes the
prefix, matching the convention that Slice(y, w) reads the first w bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

MAX_LEN = 1 << 24  # sanity guard; real instances stay far below this
# struct format codes of the byte-aligned block widths
_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@dataclass(frozen=True, init=False)
class BitString:
    __slots__ = ("n", "val")
    n: int
    val: int

    def __init__(self, n: int, val: int) -> None:
        if n < 0 or n > MAX_LEN:
            raise ValueError(f"bad width {n}")
        if val < 0 or val >> n:
            raise ValueError(f"value does not fit in {n} bits")
        _set_n(self, n)
        _set_val(self, val)

    def __reduce__(self):
        return BitString, (self.n, self.val)

    def bit(self, i: int) -> int:
        """Bit i, counting from the left (i = 0 is leftmost)."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.val >> (self.n - 1 - i)) & 1

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return format(self.val, f"0{self.n}b") if self.n else ""

    def __xor__(self, other: "BitString") -> "BitString":
        if self.n != other.n:
            raise ValueError("xor width mismatch")
        return BitString(self.n, self.val ^ other.val)


def slice_bits(x: BitString, w: int) -> BitString:
    """Prefix of width w (the first w bits)."""
    if not 0 <= w <= x.n:
        raise ValueError(f"slice width {w} out of range for {x.n} bits")
    return BitString(w, x.val >> (x.n - w))


def concat(*parts: BitString) -> BitString:
    n, val = 0, 0
    for p in parts:
        n += p.n
        val = (val << p.n) | p.val
    return BitString(n, val)


def blocks(x: BitString, b: int) -> list[int]:
    """Split into ceil(n/b) blocks of b bits, left to right, the last one
    right-padded with zeros.  Returned as ints."""
    return int_blocks(x.val, x.n, b)


def int_blocks(val: int, n: int, b: int) -> list[int]:
    """``blocks`` of the n-bit int val."""
    if b <= 0:
        raise ValueError("block size must be positive")
    k = -(-n // b)
    v = val << (k * b - n)
    if b in _STRUCT_CODES:
        # byte-aligned blocks: one unpack of the padded int's bytes
        return list(struct.unpack(f">{k}{_STRUCT_CODES[b]}",
                                  v.to_bytes(k * b // 8, "big")))
    mask = (1 << b) - 1
    out = [0] * k
    # peel blocks off the low end, so each shift works on a shorter int
    for i in range(k - 1, -1, -1):
        out[i] = v & mask
        v >>= b
    return out


@dataclass(frozen=True, init=False)
class RowMatrix:
    """L rows of m bits each."""

    __slots__ = ("m", "rows")
    m: int
    rows: tuple[BitString, ...]

    def __init__(self, m: int, rows: tuple[BitString, ...]) -> None:
        if any(r.n != m for r in rows):
            raise ValueError("row width mismatch")
        _set_m(self, m)
        _set_rows(self, rows)

    def __reduce__(self):
        return RowMatrix, (self.m, self.rows)

    @property
    def L(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> BitString:
        return self.rows[i]


# the slots' own setters, which a slotted frozen dataclass's __init__ needs
_set_n, _set_val = BitString.n.__set__, BitString.val.__set__
_set_m, _set_rows = RowMatrix.m.__set__, RowMatrix.rows.__set__


def matrix(rows: list[BitString]) -> RowMatrix:
    if not rows:
        raise ValueError("empty matrix")
    return RowMatrix(rows[0].n, tuple(rows))
