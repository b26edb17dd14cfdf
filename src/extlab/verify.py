"""Exhaustive micro-scale verification oracles.

Everything in this module computes exact rational quantities by
enumerating supports: strong extractor distance, non-malleability
distance against explicit tamper tables, and merger distance on planted
instances.  All three are one quantity, the distance of (Z, side
information) from (uniform, side information), which
``distance_given_rest`` computes from integer counts.  Instances are
described by their latent free bits, so a matrix whose rows are all
functions of one shared block enumerates over the block, not over the
ambient row space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bits import BitString
from .prob import Dist
from .sext import ExtScheme, ext


# ---------------------------------------------------------------- tampering

@dataclass(frozen=True)
class TamperFn:
    """Fixed-point-free function table on d-bit strings."""

    d: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != 1 << self.d:
            raise ValueError("table size mismatch")
        for x, y in enumerate(self.table):
            if x == y:
                raise ValueError(f"tamper table has fixed point at {x}")
            if not 0 <= y < (1 << self.d):
                raise ValueError("table value out of range")

    def __call__(self, x: int) -> int:
        return self.table[x]


def enumerate_tampers(d: int) -> Iterable[TamperFn]:
    """All fixed-point-free tables on d bits; (2^d - 1)^(2^d) of them.
    Only d <= 3 is allowed (d = 2 gives the 81-table battery)."""
    if d > 3:
        raise ValueError("full enumeration limited to d <= 3; sample instead")
    n = 1 << d
    choices = [[y for y in range(n) if y != x] for x in range(n)]
    for combo in itertools.product(*choices):
        yield TamperFn(d, tuple(combo))


def sample_tamper(rng, d: int) -> TamperFn:
    n = 1 << d
    table = []
    for x in range(n):
        y = int(rng.integers(n - 1))
        table.append(y + 1 if y >= x else y)
    return TamperFn(d, tuple(table))


def flip_low_bit_tamper(d: int) -> TamperFn:
    return TamperFn(d, tuple(x ^ 1 for x in range(1 << d)))


# ------------------------------------------------------------ the kernel

def distance_given_rest(counts: dict, m_out: int, total: int) -> Fraction:
    """Exact distance of (Z, R) from (U, R), U uniform on m_out bits and
    independent of R: the average over the side information R of Z's
    distance from uniform.  ``counts`` maps (z, r) to an integer weight;
    the weights sum to ``total``.  The sum is over integers, and one
    Fraction is made at the end."""
    size = 1 << m_out
    side_total: dict = {}
    side_seen: dict = {}
    for (z, side), c in counts.items():
        if not 0 <= z < size:
            raise ValueError(f"output {z} does not fit in {m_out} bits")
        side_total[side] = side_total.get(side, 0) + c
        side_seen[side] = side_seen.get(side, 0) + 1
    # sum over seen cells of |c/total - c_side/(2^m total)|, plus
    # c_side/(2^m total) for each of the 2^m - seen unseen cells
    acc = sum(abs(c * size - side_total[side])
              for (_, side), c in counts.items())
    acc += sum(c_side * (size - side_seen[side])
               for side, c_side in side_total.items())
    return Fraction(acc, 2 * size * total)


# ------------------------------------------------------- extractor oracles

ExtFn = Callable[[int, int], int]  # (x, seed) -> output, plain ints


def ext_fn_of(scheme: ExtScheme) -> ExtFn:
    def f(x: int, s: int) -> int:
        return ext(scheme, BitString(scheme.n_in, x),
                   BitString(scheme.d_seed, s)).val
    return f


def strong_distance(f: ExtFn, source: Dist, d_seed: int, m_out: int
                    ) -> Fraction:
    """Exact distance of (Ext(X, S), S) from (U_m, S) with S uniform."""
    sup = list(zip(source.points, source.weights))
    counts: dict = {}
    for s in range(1 << d_seed):
        for x, c in sup:
            key = (f(x, s), s)
            counts[key] = counts.get(key, 0) + c
    return distance_given_rest(counts, m_out, source.den << d_seed)


def strong_distance_poly_fast(scheme: ExtScheme, source: Dist) -> Fraction:
    """Exact strong distance for poly schemes over flat sources, from the
    seed-by-output count table of ``ext_all_seeds_poly``.  With N points
    and every cell weighing 1/(N 2^d), the distance is the sum over the
    (s, z) cells of |c 2^m - N| / (2 N 2^(d+m)).  Each term is at most
    N 2^m and the terms of one seed sum to at most 2 N 2^m, so the whole
    sum is at most 2^(d+m+1) N <= 2^45 and int64 holds it exactly.
    Non-flat sources go to the scalar ``strong_distance``."""
    import numpy as np

    from .sext import ext_all_seeds_poly

    if len(set(source.weights)) > 1:  # not flat
        return strong_distance(ext_fn_of(scheme), source,
                               scheme.d_seed, scheme.m_out)
    counts = ext_all_seeds_poly(scheme, source.points)  # (2^d, 2^m)
    n, size = len(source.points), counts.shape[1]
    big = int(np.abs(counts * size - n).sum())
    return Fraction(big, 2 * n * counts.size)


def nm_distance(f: ExtFn, source: Dist, d_seed: int, m_out: int,
                tamper: TamperFn) -> Fraction:
    """Exact distance of (E(X,Y), E(X,A(Y)), Y) from (U, E(X,A(Y)), Y)
    with Y uniform on d_seed bits."""
    if tamper.d != d_seed:
        raise ValueError("tamper arity mismatch")
    # f once per (x, seed): out[y][i] = f(points[i], y)
    out = [[f(x, y) for x in source.points] for y in range(1 << d_seed)]
    counts: dict = {}
    for y in range(1 << d_seed):
        for z, za, c in zip(out[y], out[tamper(y)], source.weights):
            key = (z, (za, y))
            counts[key] = counts.get(key, 0) + c
    return distance_given_rest(counts, m_out, source.den << d_seed)


# --------------------------------------------------------- merger oracles

MergerFn = Callable[[tuple[int, ...], int], int]  # (rows, y) -> output


@dataclass(frozen=True)
class MergerInstance:
    """A planted matrix/seed joint with t tampered copies, described by
    latent free bits: lat_x generates the row matrix through row_maps,
    the tampered matrices are deterministic functions of the rows, and
    the tampered seeds are fixed-point-free tables over y."""

    L: int
    m: int
    d: int
    t: int
    witness: int
    lat_x_bits: int
    rows_of: Callable[[int], tuple[int, ...]] = field(compare=False)
    tamper_rows: tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...] = \
        field(compare=False)
    tamper_y: tuple[TamperFn, ...] = field(compare=False)

    def __post_init__(self) -> None:
        if self.lat_x_bits + self.d > 24:
            raise ValueError("latent space too large to enumerate")
        if len(self.tamper_rows) != self.t or len(self.tamper_y) != self.t:
            raise ValueError("need one tamper pair per copy")


def merger_distance(merge: MergerFn, inst: MergerInstance, m_out: int
                    ) -> Fraction:
    """Exact distance of (M, M^1..M^t, Y, Y^1..Y^t) from the same tuple
    with M replaced by an independent uniform string."""
    n_lat = 1 << inst.lat_x_bits
    n_y = 1 << inst.d
    counts: dict = {}
    cache: dict = {}
    for lat in range(n_lat):
        rows = inst.rows_of(lat)
        tampered = [tf(rows) for tf in inst.tamper_rows]
        for y in range(n_y):
            ck = (rows, y)
            mv = cache.get(ck)
            if mv is None:
                mv = merge(rows, y)
                cache[ck] = mv
            rest = [y]      # side information: (y, M^g, Y^g for each g)
            for g in range(inst.t):
                yg = inst.tamper_y[g](y)
                ck = (tampered[g], yg)
                mg = cache.get(ck)
                if mg is None:
                    mg = merge(tampered[g], yg)
                    cache[ck] = mg
                rest += (mg, yg)
            key = (mv, tuple(rest))
            counts[key] = counts.get(key, 0) + 1
    return distance_given_rest(counts, m_out, n_lat * n_y)


def rot(v: int, m: int, sh: int) -> int:
    sh %= m
    return ((v << sh) | (v >> (m - sh))) & ((1 << m) - 1)


def build_instance(rng, L: int, m: int, d: int, t: int, witness: int
                   ) -> MergerInstance:
    """Plant a valid instance: every row exactly uniform, tampered
    matrices copy the non-witness rows and pin the witness row to a
    constant, tampered seeds are random fixed-point-free tables.

    All rows are rotations/masks of one m-bit block, keeping the latent
    space at m + d bits."""
    if not 0 <= witness < L:
        raise ValueError("witness out of range")
    masks = [int(rng.integers(1 << m)) for _ in range(L)]

    def rows_of(lat: int) -> tuple[int, ...]:
        return tuple(rot(lat, m, i) ^ masks[i] for i in range(L))

    consts = [int(rng.integers(1 << m)) for _ in range(t)]

    def make_tamper(g: int):
        def tf(rows: tuple[int, ...]) -> tuple[int, ...]:
            out = list(rows)
            out[witness] = consts[g]
            return tuple(out)
        return tf

    return MergerInstance(
        L=L, m=m, d=d, t=t, witness=witness, lat_x_bits=m,
        rows_of=rows_of,
        tamper_rows=tuple(make_tamper(g) for g in range(t)),
        tamper_y=tuple(sample_tamper(rng, d) for _ in range(t)))


def adversarial_xor_instance(rng, L: int, m: int, d: int) -> MergerInstance:
    """Instance that defeats the XOR-of-rows strawman: the tampered
    matrix is a cyclic row rotation, so the XOR of the rows is preserved
    while a witness row stays independent of its tampered copy."""
    if L < 2:
        raise ValueError("need at least two rows")

    def rows_of(lat: int) -> tuple[int, ...]:
        return tuple(((lat >> (i * m)) & ((1 << m) - 1)) for i in range(L))

    def tf(rows: tuple[int, ...]) -> tuple[int, ...]:
        return rows[1:] + rows[:1]

    return MergerInstance(
        L=L, m=m, d=d, t=1, witness=0, lat_x_bits=L * m,
        rows_of=rows_of, tamper_rows=(tf,),
        tamper_y=(sample_tamper(rng, d),))


def xor_strawman(rows: tuple[int, ...], y: int) -> int:
    out = 0
    for r in rows:
        out ^= r
    return out
