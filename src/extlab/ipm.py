"""Independence-preserving merging with a weak seed.

The seed Y is only guaranteed min-entropy, not uniformity, so the
merger first bootstraps: a slice of the first row seeds an extraction
from Y, giving a near-uniform string z; a slice of z re-extracts every
row; the refreshed rows are merged by the recursive merger seeded with
z itself.  A single Y is shared by all tampered copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString, RowMatrix, matrix, slice_bits
from .nipm import NipmParams, ParamError, plan_nipm, recursive_nipm
from .sext import ExtScheme, affine_scheme, ext


@dataclass(frozen=True)
class IpmParams:
    n_y: int        # weak seed length
    k_y: int        # weak seed min-entropy floor
    m: int          # row width
    d_z: int        # width of the bootstrap extraction z (0.8 * k_y capped)
    d_prime: int    # slice of z used to refresh the rows
    m_v: int        # refreshed row width
    nipm: NipmParams

    def __post_init__(self) -> None:
        if self.d_z > self.m:
            raise ParamError("d1", "bootstrap slice exceeds row width")
        if self.d_prime > self.d_z:
            raise ParamError("d_prime", "refresh slice exceeds z")
        if self.d_prime != self.m_v:
            raise ParamError("d_prime",
                             "refresh slice must match the affine seed law")
        if self.m_v > self.m:
            raise ParamError("m_v", "refreshed rows wider than rows")

    def scheme_boot(self) -> ExtScheme:
        return affine_scheme(self.n_y, self.d_z, claimed_k=self.k_y)

    def scheme_refresh(self) -> ExtScheme:
        return affine_scheme(self.m, self.m_v)


def plan_ipm(L: int, t: int, m: int, n_y: int, k_y: int, eps: float,
             m_target: int | None = None) -> IpmParams:
    d_z = min((8 * k_y) // 10, m)
    if d_z < 8:
        raise ParamError("k", "weak seed entropy too low for bootstrap")
    m_v = min(max(m // 2, 8), d_z)
    d_prime = m_v
    nipm = plan_nipm(L, t, m_v, d_z, eps, m_target=m_target)
    return IpmParams(n_y=n_y, k_y=k_y, m=m, d_z=d_z, d_prime=d_prime,
                     m_v=m_v, nipm=nipm)


def micro_ipm(L: int, t: int, m: int, n_y: int, k_y: int, d_z: int,
              nipm: NipmParams) -> IpmParams:
    """Oracle-scale parameters without the 8-bit planner floors."""
    m_v = nipm.levels[0].m_in
    return IpmParams(n_y=n_y, k_y=k_y, m=m, d_z=d_z,
                     d_prime=m_v, m_v=m_v, nipm=nipm)


def ipm_weak(mat: RowMatrix, y: BitString, p: IpmParams) -> BitString:
    if mat.m != p.m:
        raise ValueError("row width mismatch")
    if y.n != p.n_y:
        raise ValueError("seed width mismatch")
    w = slice_bits(mat[0], p.d_z)
    z = ext(p.scheme_boot(), y, w)
    v = slice_bits(z, p.d_prime)
    refresh = p.scheme_refresh()
    vbar = [slice_bits(ext(refresh, row, _fit(v, refresh.d_seed)), p.m_v)
            for row in mat.rows]
    return recursive_nipm(matrix(vbar), z, p.nipm)


def _fit(v: BitString, width: int) -> BitString:
    if v.n == width:
        return v
    if v.n > width:
        return slice_bits(v, width)
    raise ValueError("refresh slice narrower than scheme seed")

