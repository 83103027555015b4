"""Identities of T-duality local cocycle data, checked exactly at every site.

The cocycle model (`NerveModel`, `TDCocycle`, `validate`, `random_cocycle`,
`act` and the numerator builder) lives in `tdcocycle`, and its public names
are re-exported here.  This module holds the identities from the
correspondence picture (bundle-gerbe cocycles on both legs, the
correspondence cochain, and the transformation identities for the flip,
GL, rotation and so-shift actions), each verified exactly at every site
of the nerve, on the numerators of `TDCocycle.nums`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import lcm
from operator import add
from typing import Iterator

from .groups import embed_gl, embed_so, flip_element, rotation_n1
from .intlinalg import IntMat, strict_lower_split, unimodular_inverse
from .tdcocycle import (  # noqa: F401  (the model's names, re-exported)
    NerveModel,
    TDCocycle,
    _cover_gathers,
    _dot,
    _failing_triples,
    _require_cover,
    act,
    cocycle_numerators,
    default_nerve,
    first_violation,
    random_cocycle,
    validate,
)
from .twogroup import section

__all__ = [
    "NerveModel",
    "TDCocycle",
    "cocycle_numerators",
    "validate",
    "first_violation",
    "random_cocycle",
    "default_nerve",
    "act",
    "check_gerbe_cocycle",
    "check_corr_delta",
    "check_poincare",
    "check_flip_identities",
    "check_gl_identities",
    "check_rotation_identities",
    "check_so_shift_data",
    "check_so_shift_gerbes",
    "check_eps_cech",
    "eps_cech_defect",
    "check_so_shift_identities",
]

IntVec = tuple[int, ...]


# -- exhaustive identity kernels -----------------------------------------
#
# Before reduction mod 1 each identity below is affine in every fiber
# variable (a, ahat, v) and every lattice shift (m2, mhat2, m3, mhat3), so
# it holds for all real fibers and integer shifts exactly when every
# coefficient of a real variable is 0 and the rest is integral.  A kernel
# checks this at every site (points in nerve order, index tuples in
# product order) on the numerators of `TDCocycle.nums`, and yields each
# failing (point, indices, term); `_first` makes the first a record.  The
# data checks of the actions cover every key (global m, mhat with point
# None).  The seven public checks that a frozen acceptance test calls
# with `samples` and `seed` keep both and ignore them; the others take
# neither.


def _first(check: str, failures: Iterator[tuple]) -> dict | None:
    """The first (point, indices, term) of `failures` as a record, or None."""
    for point, indices, term in failures:
        return {"check": check, "point": point, "indices": indices, "term": term}
    return None


def _joint_view(c: TDCocycle, c2: TDCocycle, p: str) -> tuple:
    """(D, B, B/D, B/D^2, A, H, T, A2, H2, T2): the views of c and c2 at p over one D, B."""
    v, v2 = c.nums[p], c2.nums[p]
    if v[:2] == v2[:2]:
        return (*v, *v2[4:])
    d = lcm(v[0], v2[0])
    big = lcm(v[1], v2[1], d * d)
    out = [d, big, big // d, big // (d * d)]
    for d0, big0, _, _, an, hn, tn in (v, v2):
        out += [{k: tuple([d // d0 * x for x in u]) for k, u in nums.items()} for nums in (an, hn)]
        out.append({k: big // big0 * x for k, x in tn.items()})
    return tuple(out)


def _gerbe_cocycle_failures(c: TDCocycle) -> Iterator[tuple]:
    m, mhat, view = c.m, c.mhat, c.nums
    for p in c.nerve.points:
        idx, (_, big, wd, w, an, hn, tn) = c.nerve.cover[p], view[p]
        triples = list(product(idx, repeat=3))
        u = {s: tn[s] - w * _dot(an[s[:2]], hn[s[1:]]) for s in triples}
        r = {s: tn[s] + wd * _dot(m[s], hn[s[::2]]) for s in triples}
        legs = (("delta-mhat", "left", mhat, an, u), ("delta-m", "right", m, hn, r))
        for i, j, k, l in product(idx, repeat=4):
            jkl, ikl, ijl, ijk = (j, k, l), (i, k, l), (i, j, l), (i, j, k)
            for coeff, term, mm, nums, cochain in legs:
                if tuple(map(add, mm[jkl], mm[ijl])) != tuple(map(add, mm[ikl], mm[ijk])):
                    yield p, (i, j, k, l), coeff
                delta = cochain[jkl] - cochain[ikl] + cochain[ijl] - cochain[ijk]
                if (delta + wd * _dot(nums[(i, j)], mm[jkl])) % big:
                    yield p, (i, j, k, l), term


def check_gerbe_cocycle(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """Both legs satisfy the groupoid Cech 2-cocycle condition at every quadruple.

    The fiber coefficients delta mhat (left) and delta m (right) vanish, and
    with u_ijk = t_ijk - a_ij . ahat_jk and r_ijk = t_ijk + m_ijk . ahat_ik
    the constants delta u + a_ij . mhat_jkl and delta r + m_jkl . ahat_ij
    are integers.
    """
    return _first("gerbe-cocycle", _gerbe_cocycle_failures(c)) is None


def _corr_delta_failures(c: TDCocycle) -> Iterator[tuple]:
    # condition 2 at every triple, as `first_violation` checks it
    for p in c.nerve.points:
        idx, (d, _, _, _, _, hn, _) = c.nerve.cover[p], c.nums[p]
        triples, pairs, at = _cover_gathers(idx)
        for q in _failing_triples(d, list(zip(*pairs(hn))), list(zip(*at(c.mhat))), len(idx)):
            yield p, triples[q], "a"


def check_corr_delta(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """The correspondence identity: hat-leg minus leg equals the cochain coboundary.

    Evaluated on fiber-product coordinates (a, ahat, m2, mhat2, m3, mhat3);
    the middle chart carries the shifted coordinates and integer offsets
    m3 - m2 + m_ijk, mhat3 - mhat2 + mhat_ijk.  The ahat and m2 coefficients
    cancel and mhat2, mhat3 do not enter; the a-coefficient
    ahat_ik - ahat_jk - ahat_ij - mhat_ijk (condition 2) vanishes at every
    triple, which makes the m3-coefficient and the constant integral.
    """
    return _first("corr-delta", _corr_delta_failures(c)) is None


def _poincare_failures(c: TDCocycle) -> Iterator[tuple]:
    view = c.nums
    for p in c.nerve.points:
        _, big, _, _, an, hn, tn = view[p]
        for i in c.nerve.cover[p]:
            terms = (an[(i, i)], hn[(i, i)], (tn[(i, i, i)] % big,), c.mhat[(i, i, i)], c.m[(i, i, i)])
            for term, v in zip(("a", "ahat", "t", "mhat", "m"), terms):
                if any(v):
                    yield p, (i,), term


def check_poincare(c: TDCocycle, samples: int = 20, seed: int = 0) -> bool:
    """Single-chart restriction: gerbe cocycles vanish and xi reduces to -m2 . ahat.

    At every chart i of every point, a_ii, ahat_ii, t_iii and the fiber
    coefficients mhat_iii (left) and m_iii (right) vanish, and then so do
    all other terms.  Meaningful for index-normalized cocycles (vanishing
    repeated-index data), which the generator produces.
    """
    return _first("poincare", _poincare_failures(c)) is None


# -- transformation identities ------------------------------------------


def _swap_failures(c: TDCocycle, c2: TDCocycle, s: int) -> Iterator[tuple]:
    m, mhat = c.m, c.mhat
    for ijk, mv in m.items():
        if c2.m[ijk] != tuple([s * x for x in mhat[ijk]]) or c2.mhat[ijk] != mv:
            yield None, ijk, "lattice"
    for p in c.nerve.points:
        d, big, wd, w, an, hn, tn, an2, hn2, tn2 = _joint_view(c, c2, p)
        for ij, u in an.items():
            if an2[ij] != tuple([s * x for x in hn[ij]]) or hn2[ij] != u:
                yield p, ij, "pair"
        for ijk in product(c.nerve.cover[p], repeat=3):
            ij, jk, ik, t, t2 = ijk[:2], ijk[1:], ijk[::2], tn[ijk], tn2[ijk]
            if (t2 - s * (t - wd * _dot(mhat[ijk], an[ik]) - w * _dot(hn[jk], an[ij]))) % big:
                yield p, ijk, "t"
            cross = _dot(an[ij], hn[ij]) + _dot(an[jk], hn[jk]) - _dot(an[ik], hn[ik])
            left = w * _dot(an2[ij], hn2[jk]) + s * (t + wd * _dot(m[ijk], hn[ik]) + w * cross)
            if (left - t2) % big:
                yield p, ijk, "left"
            if (s * (t - w * _dot(an[ij], hn[jk])) - t2 - wd * _dot(c2.m[ijk], hn2[ik])) % big:
                yield p, ijk, "right"


def check_flip_identities(
    c: TDCocycle, samples: int = 50, seed: int = 0, transformed: TDCocycle | None = None
) -> bool:
    """The leg-flip action swaps all data and shifts gerbe cocycles by a coboundary.

    At every pair and triple, c2 has (a, ahat, m, mhat) = (ahat, a, mhat, m)
    and t2 = t - mhat_ijk . a_ik - ahat_jk . a_ij.  Then gerbe_left(c2, x) =
    gerbe_right(c, x) - cross terms and gerbe_right(c2, x) = gerbe_left(c, x)
    have vanishing fiber coefficients, and their constants are integral.
    """
    c2 = act(section(flip_element(c.n)), c) if transformed is None else transformed
    return _first("flip", _swap_failures(c, c2, 1)) is None


def _gl_failures(c: TDCocycle, c2: TDCocycle, g: IntMat, gi_t: IntMat) -> Iterator[tuple]:
    m, mhat = c.m, c.mhat
    for ijk, mv in m.items():
        if c2.m[ijk] != g.mul_vec(mv) or c2.mhat[ijk] != gi_t.mul_vec(mhat[ijk]):
            yield None, ijk, "lattice"
    for p in c.nerve.points:
        d, big, wd, w, an, hn, tn, an2, hn2, tn2 = _joint_view(c, c2, p)
        for ij, u in an.items():
            if an2[ij] != g.mul_vec(u) or hn2[ij] != gi_t.mul_vec(hn[ij]):
                yield p, ij, "pair"
        for ijk in product(c.nerve.cover[p], repeat=3):
            ij, jk, ik, dt = ijk[:2], ijk[1:], ijk[::2], tn[ijk] - tn2[ijk]
            if dt % big:
                yield p, ijk, "t"
            if (dt + w * (_dot(an2[ij], hn2[jk]) - _dot(an[ij], hn[jk]))) % big:
                yield p, ijk, "left"
            if (dt + wd * (_dot(m[ijk], hn[ik]) - _dot(c2.m[ijk], hn2[ik]))) % big:
                yield p, ijk, "right"


def check_gl_identities(c: TDCocycle, g: IntMat, samples: int = 50, seed: int = 0) -> bool:
    """The GL(n,Z) action extends both legs: data maps by g and g^{-T}, t is fixed.

    At every pair and triple, c2 has (g a, g^{-T} ahat, g m, g^{-T} mhat, t).
    Then the fiber coefficients of gerbe_left(c2, a) = gerbe_left(c, g^{-1} a)
    and gerbe_right(c2, ahat) = gerbe_right(c, g^T ahat) vanish, and the
    constants are integral.
    """
    if g.rows != c.n or g.cols != c.n:
        raise ValueError("GL element has wrong size")
    c2 = act(section(embed_gl(g)), c)
    return _first("gl", _gl_failures(c, c2, g, unimodular_inverse(g).transpose())) is None


def check_rotation_identities(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """The order-4 rotation at n=1 dualizes legs: data and gerbe identities.

    At every pair and triple, c2 has (-ahat, a, -mhat, m) and
    t2 = -t + mhat_ijk . a_ik + ahat_jk . a_ij.  Then gerbe_left(c2, x) =
    -gerbe_right(c, -x) + cross terms and gerbe_right(c2, x) =
    -gerbe_left(c, x) have vanishing fiber coefficients, and their
    constants are integral.
    """
    if c.n != 1:
        raise ValueError("rotation identities are defined for n == 1 only")
    c2 = act(section(rotation_n1()), c)
    return _first("rotation", _swap_failures(c, c2, -1)) is None


def _so_eps(c: TDCocycle, b_low: IntMat, p: str, i: int, j: int, k: int) -> int:
    """eps_ijk = <a_ik|B|m_ijk> + <a_ij|B|a_jk> in lower-split brackets, times D_p^2."""
    d, _, _, _, an, _, _ = c.nums[p]
    return d * _dot(an[(i, k)], b_low.mul_vec(c.m[(i, j, k)])) + _dot(
        an[(i, j)], b_low.mul_vec(an[(j, k)])
    )


def _delta_eps(eps, i: int, j: int, k: int, l: int) -> int:
    """delta eps_ijkl times D_p^2; `eps` is the caller's per-point memo of `_so_eps`."""
    return eps(j, k, l) - eps(i, k, l) + eps(i, j, l) - eps(i, j, k)


def _check_so_skew(c: TDCocycle, b: IntMat) -> IntMat:
    if b.rows != c.n or b != -b.transpose():
        raise ValueError("so shift requires a skew n x n matrix")
    return strict_lower_split(b)


def _so_shifted(c: TDCocycle, b: IntMat, transformed: TDCocycle | None) -> tuple:
    """(b_low, c2): the lower split of b, and c acted on by e^b unless given."""
    b_low = _check_so_skew(c, b)
    return b_low, act(section(embed_so(b)), c) if transformed is None else transformed


def _so_data_failures(c: TDCocycle, c2: TDCocycle, b: IntMat, b_low: IntMat) -> Iterator[tuple]:
    m, mhat = c.m, c.mhat
    for ijk, mv in m.items():
        if c2.m[ijk] != mv or c2.mhat[ijk] != tuple(map(add, b.mul_vec(mv), mhat[ijk])):
            yield None, ijk, "lattice"
    for p in c.nerve.points:
        d, big, wd, w, an, hn, tn, an2, hn2, tn2 = _joint_view(c, c2, p)
        bl = {ij: b_low.mul_vec(u) for ij, u in an.items()}
        for ij, u in an.items():
            if an2[ij] != u or hn2[ij] != tuple(map(add, b.mul_vec(u), hn[ij])):
                yield p, ij, "pair"
        for ijk in product(c.nerve.cover[p], repeat=3):
            low = wd * _dot(m[ijk], bl[ijk[::2]]) + w * _dot(an[ijk[1:]], bl[ijk[:2]])
            if (tn2[ijk] - tn[ijk] + low) % big:
                yield p, ijk, "t"


def _so_gerbe_failures(c: TDCocycle, c2: TDCocycle, b: IntMat, b_low: IntMat) -> Iterator[tuple]:
    for p in c.nerve.points:
        d, big, wd, w, an, hn, tn, an2, hn2, tn2 = _joint_view(c, c2, p)
        bl = {ij: b_low.mul_vec(u) for ij, u in an.items()}
        for ijk in product(c.nerve.cover[p], repeat=3):
            ij, jk, ik, mv, t, t2 = ijk[:2], ijk[1:], ijk[::2], c.m[ijk], tn[ijk], tn2[ijk]
            if c2.m[ijk] != mv or c2.mhat[ijk] != tuple(map(add, b.mul_vec(mv), c.mhat[ijk])):
                yield p, ijk, "lattice"
            left = w * (_dot(an2[ij], hn2[jk]) - _dot(an[ij], hn[jk]) - _dot(an[ij], bl[jk]))
            if (left + t - t2 - wd * _dot(mv, bl[ik])) % big:
                yield p, ijk, "left"
            right = _dot(mv, hn[ik]) - _dot(c2.m[ijk], hn2[ik]) - _dot(an[ik], b_low.mul_vec(mv))
            if (wd * right + t - t2 - w * _dot(an[jk], bl[ij])) % big:
                yield p, ijk, "right"
            if an[ik] != tuple([d * x + y + z for x, y, z in zip(mv, an[jk], an[ij])]):
                yield p, ijk, "v"
            if _dot(an[jk], bl[ij]) - _dot(an[ij], bl[jk]) != _dot(an[jk], b.mul_vec(an[ij])):
                yield p, ijk, "decomposition"


def check_so_shift_data(c: TDCocycle, b: IntMat, transformed: TDCocycle | None = None) -> bool:
    """Transformed data: a and m fixed, ahat and mhat shifted by B, t corrected.

    At every pair and triple, c2 (`transformed`, by default c acted on by
    e^b) has (a, B a + ahat, m, B m + mhat) and
    t2 = t - <m_ijk|B|a_ik> - <a_jk|B|a_ij>, in lower-split brackets.
    """
    b_low, c2 = _so_shifted(c, b, transformed)
    return _first("so-shift-data", _so_data_failures(c, c2, b, b_low)) is None


def check_so_shift_gerbes(
    c: TDCocycle, b: IntMat, samples: int = 50, seed: int = 0, transformed: TDCocycle | None = None
) -> bool:
    """Left-leg three-term correction, and the right-leg discrepancy gamma:
    gerbe values against the closed form, and the closed form against its
    decomposition into a shifted coboundary of a_ij . v plus eps.

    At every triple the fiber coefficients mhat2 - mhat - B m (left) and
    m2 - m (right) vanish and both constants are integral.  The
    decomposition holds over Q: its v-coefficient a_ik - a_ij - a_jk - m_ijk
    vanishes and its constant a_jk . (B_low - B_low^T - B) a_ij is 0.
    """
    b_low, c2 = _so_shifted(c, b, transformed)
    return _first("so-shift-gerbes", _so_gerbe_failures(c, c2, b, b_low)) is None


def check_eps_cech(c: TDCocycle, b: IntMat) -> bool:
    """Whether eps satisfies the plain Cech 3-cocycle identity exactly over Q.

    This encodes a claimed identity that is FALSE for generic valid
    cocycles with nonvanishing left-leg lattice classes: the honest
    coboundary is delta eps == a_kl . (B m_ijk) mod Z (see
    `eps_cech_defect` for the exact statement).  It does hold when all
    m_ijk vanish, and trivially for b == 0.  At each point, eps is taken
    on the numerators of `c.nums`, times D_p^2.
    """
    b_low = _check_so_skew(c, b)
    for p in c.nerve.points:
        eps = cache(partial(_so_eps, c, b_low, p))
        if any(_delta_eps(eps, *ijkl) for ijkl in product(c.nerve.cover[p], repeat=4)):
            return False
    return True


def eps_cech_defect(
    c: TDCocycle, b: IntMat, point: str, ijkl: tuple[int, int, int, int]
) -> tuple[Fraction, Fraction]:
    """(delta eps, its exact closed form) at one quadruple.

    The true coboundary of eps is

        delta eps_ijkl = a_kl . (B m_ijk) + m_ikl . (B m_ijk)
                         + <m_ijl|B|m_ijl> - <m_ijl|B|m_ikl>
                         - <m_ijl|B|m_ijk> + <m_ijk|B|m_ikl>,

    integer except for the first term; hence delta eps == a_kl . (B m_ijk)
    mod Z.  The plain cocycle identity fails whenever that term is not an
    integer.
    """
    b_low = _check_so_skew(c, b)
    i, j, k, l = ijkl
    _require_cover(c, point, ijkl)
    d, _, _, _, an, _, _ = c.nums[point]
    delta = _delta_eps(cache(partial(_so_eps, c, b_low, point)), i, j, k, l)
    p_, q_, r_ = c.m[(i, j, k)], c.m[(i, k, l)], c.m[(i, j, l)]

    def brak(u: IntVec, mat: IntMat, v: IntVec) -> int:
        return _dot(u, mat.mul_vec(v))

    integral = (
        brak(q_, b, p_)
        + brak(r_, b_low, r_)
        - brak(r_, b_low, q_)
        - brak(r_, b_low, p_)
        + brak(p_, b_low, q_)
    )
    closed = Fraction(_dot(an[(k, l)], b.mul_vec(p_)), d) + integral
    return Fraction(delta, d * d), closed


def check_so_shift_identities(c: TDCocycle, b: IntMat) -> bool:
    """All so-shift checks: transformed data, gerbe corrections and the
    gamma decomposition, plus the plain eps Cech-cocycle identity.

    The last clause fails for generic cocycles; see `check_eps_cech`.
    The first three are theorems and are exercised separately by
    `check_so_shift_data` and `check_so_shift_gerbes`.
    """
    c2 = _so_shifted(c, b, None)[1]
    data = check_so_shift_data(c, b, transformed=c2)
    return data and check_so_shift_gerbes(c, b, transformed=c2) and check_eps_cech(c, b)
