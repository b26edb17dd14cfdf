"""Alternating extraction and the look-ahead extractor.

Two sources take turns seeding extractions of each other: S_1 is a slice
of the first source, R_i extracts from the second source with seed S_i,
and S_{i+1} extracts from the next row with seed R_i.  With the affine
scheme family every intermediate token keeps one common width, so the
chain neither grows nor shrinks.

``look_ahead`` is the row-matrix variant used by the mergers: step i
draws S_{i+1} from row i+1, and the final step applies a wide extractor
to the last row.  With a single row it degenerates to one wide
extraction keyed by a slice of the seed source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, slice_bits
from .sext import ExtScheme, affine_scheme, ext


@dataclass(frozen=True)
class ChainParams:
    """Widths for one alternating chain.

    w: common intermediate token width (the d1 of the construction);
    m_in: row width; n_seed_src: width of the shared seed source;
    m_out: width of the final wide extraction.
    """

    w: int
    m_in: int
    n_seed_src: int
    m_out: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("chain width must be positive")
        if self.w > self.m_in:
            raise ValueError("chain width exceeds row width")
        if self.m_out > self.m_in:
            raise ValueError("output exceeds row width")
        if self.m_out > self.w:
            # the final seed is a slice of an intermediate token
            raise ValueError("m_out exceeds chain width")

    def scheme_seed_src(self) -> ExtScheme:
        return affine_scheme(self.n_seed_src, self.w)

    def scheme_row(self) -> ExtScheme:
        return affine_scheme(self.m_in, self.w)

    def scheme_final(self) -> ExtScheme:
        return affine_scheme(self.m_in, self.m_out)


def look_ahead(rows: tuple[BitString, ...], w_src: BitString,
               p: ChainParams) -> BitString:
    """ell-row look-ahead: returns the final token S_ell of width m_out."""
    ell = len(rows)
    if ell < 1:
        raise ValueError("no rows")
    for row in rows:
        if row.n != p.m_in:
            raise ValueError("row width mismatch")
    if w_src.n != p.n_seed_src:
        raise ValueError("seed source width mismatch")
    e_final = p.scheme_final()
    if ell == 1:
        return ext(e_final, rows[0], slice_bits(w_src, p.m_out))
    e_w, e_q = p.scheme_seed_src(), p.scheme_row()
    s = slice_bits(rows[0], p.w)
    for j in range(1, ell):
        r = ext(e_w, w_src, s)
        if j == ell - 1:
            return ext(e_final, rows[j], slice_bits(r, p.m_out))
        s = ext(e_q, rows[j], r)
    raise AssertionError("unreachable")
