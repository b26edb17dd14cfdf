"""Independence-preserving merging with a weak seed.

The seed Y is only guaranteed min-entropy, not uniformity, so the
merger first bootstraps: a slice of the first row seeds an extraction
from Y, giving a near-uniform string z; a slice of z re-extracts every
row; the refreshed rows are merged by the recursive merger seeded with
z itself.  A single Y is shared by all tampered copies.

``merge_rows`` is the one bootstrap-and-merge body.  ``ipm_weak`` checks
widths and calls it; the non-malleable extractor (``nmx.nm_ext``) calls
it directly on its flip-flop rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bits import BitString, RowMatrix, matrix, slice_bits
from .nipm import NipmParams, ParamError, plan_nipm, recursive_nipm
from .sext import ExtScheme, affine_scheme, ext


@dataclass(frozen=True)
class IpmParams:
    n_y: int        # weak seed length
    k_y: int        # weak seed min-entropy floor
    m: int          # row width
    d_z: int        # width of the bootstrap extraction z (0.8 * k_y capped)
    m_v: int        # refreshed row width, and the slice of z refreshing them
    nipm: NipmParams

    def __post_init__(self) -> None:
        if self.d_z > self.m:
            raise ParamError("d_z", "bootstrap slice exceeds row width")
        if self.m_v > self.d_z:
            raise ParamError("m_v", "refresh slice exceeds z")
        if self.m_v > self.m:
            raise ParamError("m_v", "refreshed rows wider than rows")

    def scheme_boot(self) -> ExtScheme:
        return affine_scheme(self.n_y, self.d_z, claimed_k=self.k_y)


def plan_ipm(L: int, t: int, m: int, n_y: int, k_y: int, eps: float,
             m_target: int | None = None) -> IpmParams:
    d_z = min((8 * k_y) // 10, m)
    if d_z < 8:
        raise ParamError("k", "weak seed entropy too low for bootstrap")
    m_v = min(max(m // 2, 8), d_z)
    nipm = plan_nipm(L, t, m_v, d_z, eps, m_target=m_target)
    return IpmParams(n_y=n_y, k_y=k_y, m=m, d_z=d_z, m_v=m_v, nipm=nipm)


def micro_ipm(L: int, t: int, m: int, n_y: int, k_y: int, d_z: int,
              nipm: NipmParams) -> IpmParams:
    """Oracle-scale parameters without the 8-bit planner floors."""
    return IpmParams(n_y=n_y, k_y=k_y, m=m, d_z=d_z,
                     m_v=nipm.levels[0].m_in, nipm=nipm)


def ipm_weak(mat: RowMatrix, y: BitString, p: IpmParams) -> BitString:
    if mat.m != p.m:
        raise ValueError("row width mismatch")
    if y.n != p.n_y:
        raise ValueError("seed width mismatch")
    return merge_rows(mat.rows, y, p)


def merge_rows(rows: Sequence[BitString], y: BitString, p: IpmParams
               ) -> BitString:
    """Bootstrap z from y keyed by the first row, refresh every row keyed
    by a slice of z, and merge the refreshed rows seeded by z.  Equal
    rows refresh to equal rows, so each distinct row is refreshed once."""
    z = ext(p.scheme_boot(), y, slice_bits(rows[0], p.d_z))
    v = slice_bits(z, p.m_v)
    refresh = affine_scheme(p.m, p.m_v)
    fresh = {r: ext(refresh, r, v) for r in dict.fromkeys(rows)}
    return recursive_nipm(matrix([fresh[r] for r in rows]), z, p.nipm)
