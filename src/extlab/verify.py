"""Exhaustive micro-scale verification oracles.

Everything in this module computes exact rational quantities by
enumerating supports: strong extractor distance, non-malleability
distance against explicit tamper tables, and merger distance on planted
instances.  All three are one quantity, the distance of (Z, side
information) from (uniform, side information), which
``distance_of_counts`` computes from the count array ``count_table``
builds.  Instances are described by their latent free bits, so a matrix
whose rows are all functions of one shared block enumerates over the
block, not over the ambient row space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .bits import BitString
from .prob import Dist
from .sext import ExtScheme, ext, ext_all_seeds_poly


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

def _count_dtype(m_out: int, total: int):
    """int64 if total 2^(m_out+1) fits (it bounds the kernel's values)."""
    import numpy as np
    return np.int64 if total << (m_out + 1) < 1 << 63 else object


def count_table(z, side, weights, m_out: int, total: int):
    """C[z, j]: the summed weight of the cells with output z and the j-th
    distinct side value, from arrays of outputs, weights summing to
    ``total`` and side fields (one int64 array each), all broadcast."""
    import numpy as np
    dtype = _count_dtype(m_out, total)
    try:
        z = np.asarray(z, dtype=np.int64)
        wide = z.min() < 0 or z.max() >> m_out
    except OverflowError:
        wide = True
    if wide:
        raise ValueError(f"an output does not fit in {m_out} bits")
    z, weights, *side = np.broadcast_arrays(
        z, np.asarray(weights, dtype=dtype),
        *(np.asarray(f, dtype=np.int64) for f in side))
    j = np.zeros(z.size, dtype=np.int64)
    for f in side:  # j ranks the side values seen so far, field by field
        codes, jf = np.unique(f, return_inverse=True)
        _, j = np.unique(j * len(codes) + jf.ravel(), return_inverse=True)
    C = np.zeros((1 << m_out, int(j.max()) + 1), dtype=dtype)
    np.add.at(C, (z.ravel(), j.ravel()), weights.ravel())
    return C


def distance_of_counts(C, m_out: int, total: int) -> Fraction:
    """Exact distance of (Z, R) from (U, R), U uniform on m_out bits and
    independent of R, from C[z, r], the integer weight on output z and
    side value r (2^m_out rows, columns in any order, summing to total):
    1 - sum over cells of min(C, C_r / 2^m) / total, C_r = sum_z C."""
    import numpy as np
    size = 1 << m_out
    C = C.astype(_count_dtype(m_out, total), copy=False)
    shared = int(np.minimum(C * size, C.sum(axis=0)).sum())
    return Fraction(size * total - shared, size * total)


# ------------------------------------------------------- extractor oracles

ExtFn = Callable[[int, int], int]  # (x, seed) -> output, plain ints


def ext_fn_of(scheme: ExtScheme) -> ExtFn:
    def f(x: int, s: int) -> int:
        return ext(scheme, BitString(scheme.n_in, x),
                   BitString(scheme.d_seed, s)).val
    return f


def _seeded_distance(f: ExtFn, source: Dist, d_seed: int, m_out: int,
                     tamper: TamperFn | None) -> Fraction:
    """Distance of (f(X, Y), R) from (U, R), Y uniform on d_seed bits and
    R = Y, or (f(X, A(Y)), Y) under a tamper A; one f call per (x, y)."""
    out = [[f(x, y) for x in source.points]
           for y in range(1 << d_seed)]  # out[y][i]
    side = [[[y] for y in range(1 << d_seed)]]
    if tamper is not None:
        side.append([out[a] for a in tamper.table])
    total = source.den << d_seed
    C = count_table(out, side, source.weights, m_out, total)
    return distance_of_counts(C, m_out, total)


def strong_distance(f: ExtFn, source: Dist, d_seed: int, m_out: int
                    ) -> Fraction:
    """Exact distance of (Ext(X, S), S) from (U_m, S) with S uniform."""
    return _seeded_distance(f, source, d_seed, m_out, None)


def strong_distance_poly_fast(scheme: ExtScheme, source: Dist) -> Fraction:
    """Exact strong distance for poly schemes over flat sources, from the
    output-by-seed count table of ``ext_all_seeds_poly``.  Non-flat
    sources go to the scalar ``strong_distance``.  Both refuse a source
    wider than the scheme, as ``ext_fn_of`` does."""
    if source.points[-1] >> scheme.n_in:
        raise ValueError(f"value does not fit in {scheme.n_in} bits")
    if len(set(source.weights)) > 1:  # not flat
        return strong_distance(ext_fn_of(scheme), source,
                               scheme.d_seed, scheme.m_out)
    total = len(source.points) << scheme.d_seed
    return distance_of_counts(ext_all_seeds_poly(scheme, source.points),
                              scheme.m_out, total)


def nm_distance(f: ExtFn, source: Dist, d_seed: int, m_out: int,
                tamper: TamperFn) -> Fraction:
    """Exact distance of (E(X,Y), E(X,A(Y)), Y) from (U, E(X,A(Y)), Y)
    with Y uniform on d_seed bits."""
    if tamper.d != d_seed:
        raise ValueError("tamper arity mismatch")
    return _seeded_distance(f, source, d_seed, m_out, tamper)


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
    with M replaced by an independent uniform string; ``merge`` runs
    once per distinct (rows, y) cell that the tuple reads."""
    import numpy as np
    n_lat, n_y = 1 << inst.lat_x_bits, 1 << inst.d
    lats = [inst.rows_of(lat) for lat in range(n_lat)]
    copies = [lats] + [[tf(rows) for rows in lats] for tf in inst.tamper_rows]
    index: dict[tuple[int, ...], int] = {}  # distinct rows -> matrix id
    mats = np.array([[index.setdefault(rows, len(index)) for rows in c]
                     for c in copies], dtype=np.int64)[:, :, None]
    ys = np.array([list(range(n_y))] + [ty.table for ty in inst.tamper_y],
                  dtype=np.int64)[:, None, :]
    need = np.zeros((len(index), n_y), dtype=bool)
    need[mats, ys] = True
    out = np.zeros(need.shape, dtype=np.int64)
    distinct, (mi, yi) = list(index), np.nonzero(need)
    out[mi, yi] = [merge(distinct[i], y)
                   for i, y in zip(mi.tolist(), yi.tolist())]
    outs = out[mats, ys]  # outs[g, lat, y] = merge(M^g, Y^g(y)), g = 0: M
    # side fields (Y, Y^1..Y^t, M^1..M^t), in an order no distance sees
    C = count_table(outs[0], [*ys, *outs[1:]], 1, m_out, n_lat * n_y)
    return distance_of_counts(C, m_out, n_lat * n_y)


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
