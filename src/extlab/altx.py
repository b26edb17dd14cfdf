"""Alternating extraction and the look-ahead extractor.

Two sources take turns seeding extractions of each other: S_1 is a slice
of the first source, R_i extracts from the second source with seed S_i,
and S_{i+1} extracts from the next row with seed R_i.  With the affine
scheme family every intermediate token keeps one common width, so the
chain neither grows nor shrinks.

``look_ahead`` is the row-matrix variant used by the mergers: step i
draws S_{i+1} from row i+1, and the final step applies a wide extractor
to the last row.  With a single row it degenerates to one wide
extraction keyed by a slice of the seed source.  It is the reference
that ``nipm.lt_nipm`` and the int level body ``nipm._merge_level`` are
tested against; no pipeline module imports it.
"""

from __future__ import annotations

from .bits import BitString, slice_bits
from .nipm import LevelPlan
from .sext import ext


def look_ahead(rows: tuple[BitString, ...], w_src: BitString,
               p: LevelPlan) -> BitString:
    """ell-row look-ahead: returns the final token S_ell of width m_out."""
    ell = len(rows)
    if ell < 1:
        raise ValueError("no rows")
    for row in rows:
        if row.n != p.m_in:
            raise ValueError("row width mismatch")
    if w_src.n != p.d_slice:
        raise ValueError("seed source width mismatch")
    e_final = p.scheme_final()
    if ell == 1:
        return ext(e_final, rows[0], slice_bits(w_src, p.m_out))
    e_w, e_q = p.scheme_seed_src(), p.scheme_row()
    s = slice_bits(rows[0], p.w)
    for row in rows[1:-1]:
        s = ext(e_q, row, ext(e_w, w_src, s))
    r = ext(e_w, w_src, s)
    return ext(e_final, rows[-1], slice_bits(r, p.m_out))
