"""T-duality local cocycle data on a discrete nerve, and the 2-group action on it.

A cocycle consists of rational transition data a, ahat per (point, i, j),
global integer vectors m, mhat per index triple, and phases t per
(point, i, j, k), subject to five pointwise conditions.  The rational data
is stored once, as integer numerators over one denominator per point
(`TDCocycle.nums`), which `cocycle_numerators` builds from (num, den)
pairs; Fractions appear only in the public constructor and in the
read-only maps `a`, `ahat` and `t`.  Identities from the correspondence
picture (bundle-gerbe cocycles on both legs, the correspondence cochain,
and the transformation identities for the flip, GL, rotation and so-shift
actions) are verified exactly at every site of the nerve, on those
numerators.

Random valid cocycles are built generatively: free rational lifts per
(point, chart) plus antisymmetric integer offsets produce a and ahat and
determine m, mhat; t is a coboundary of an antisymmetric rational
1-cochain plus the particular twist t_ijk -= m_ijk . lift_hat_k, which
solves the fifth condition identically mod 1.  The generated a, ahat, m,
mhat (and the 1-cochain) are fully index-antisymmetric with vanishing
repeated indices; t vanishes on repeated indices and is antisymmetric in
its first index pair.  Full S3-antisymmetry of t is *not* imposed: for
generic data it is incompatible with the fifth condition holding at all
ordered index tuples, which `validate` checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Mapping, Sequence

from .groups import embed_gl, embed_so, flip_element, rotation_n1
from .intlinalg import (
    IntMat, Phase, RatVec, Record, strict_lower_split, unimodular_inverse
)
from .rng import XorShift64Star
from .twogroup import Obj, section

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
PairKey = tuple[str, int, int]
TripleKey = tuple[int, int, int]
TKey = tuple[str, int, int, int]


class NerveModel(Record):
    """Finite point set with, per point, the set of cover indices containing it."""

    __slots__ = ("points", "cover")
    points: tuple[str, ...]
    cover: Mapping[str, tuple[int, ...]]

    def _check(self):
        if not self.points:
            raise ValueError("nerve needs at least one point")
        for p in self.points:
            idx = self.cover.get(p, ())
            if not idx:
                raise ValueError(f"point {p!r} is not covered")
            if len(set(idx)) != len(idx):
                raise ValueError(f"duplicate cover indices at point {p!r}")

    def indices(self) -> tuple[int, ...]:
        out: set[int] = set()
        for p in self.points:
            out.update(self.cover[p])
        return tuple(sorted(out))


class _Entries(Mapping):
    """Read-only a (slot 0), ahat (1) or t (2) of `TDCocycle.nums`; values are built per lookup."""

    __slots__ = ("_nums", "_slot")

    def __init__(self, nums: dict, slot: int):
        self._nums, self._slot = nums, slot

    def __getitem__(self, key):
        d, big, _, _, *tables = self._nums[key[0]]
        num = tables[self._slot][key[1:]]
        if self._slot == 2:
            return Phase._new(Fraction(num, big))
        return RatVec._new(tuple([Fraction(x, d) for x in num]))

    def __iter__(self):
        for p, row in self._nums.items():
            for k in row[4 + self._slot]:
                yield (p, *k)

    def __len__(self) -> int:
        return sum(len(row[4 + self._slot]) for row in self._nums.values())


_FIELDS = ("nerve", "n", "m", "mhat", "nums")


def _over_least_denominator(pairs: list, base: int) -> tuple[int, list[int]]:
    """(D, [x D / y, ...]) for the least multiple D of `base` with every x/y of `pairs` in Z/D;
    over B = lcm(base, y, ...) with numerators N, that is lcm(base, B / gcd(B, N, ...))."""
    b = lcm(base, *{y for _, y in pairs})
    nums = [x * (b // y) for x, y in pairs]
    d = lcm(base, b // gcd(b, *nums))
    if d != b:
        nums = [x // (b // d) for x in nums]
    return d, nums


def cocycle_numerators(
    nerve: NerveModel, n: int, a: Mapping, ahat: Mapping, m: Mapping, mhat: Mapping, t: Mapping
) -> tuple:
    """The stored form (nerve, n, m, mhat, nums) of a cocycle with its rationals as (num, den).

    The one place where rationals become numerators.  It checks each fact
    once, in this order: every a, ahat, m and mhat entry has length n and
    every denominator is positive; a and ahat share their keys, as m and
    mhat do; every site (p, i, j) and (p, i, j, k) of the nerve has its a
    and t entry; every t entry, also off the cover, has a entries at
    (p, i, j) and (p, j, k) (tested only if t has entries off the cover,
    as the site walk covers the rest) and lies in [0, 1); every t entry
    has the m entry at (i, j, k) that `act` reads.  Then one pass per point
    takes its pairs to their least common denominator D and its phases to
    the least multiple B of D^2, so [2, 4] stores as [1, 2].
    """
    m, mhat = dict(m), dict(mhat)
    for name, table in (("a", a), ("ahat", ahat), ("m", m), ("mhat", mhat)):
        for key, v in table.items():
            if len(v) != n:
                raise ValueError(f"{name} entry at {key} must have length {n}")
            if name[0] == "a" and any(y <= 0 for _, y in v):
                raise ValueError(f"{name} entry at {key} must have positive denominators")
    for name, x, xhat in (("a", a, ahat), ("m", m, mhat)):
        if x.keys() != xhat.keys():
            key = next(k for k in [*x, *xhat] if k not in x or k not in xhat)
            raise ValueError(f"{name} and {name}hat must have the same keys; {key} is in one only")
    sites = 0
    for p in nerve.points:
        idx = nerve.cover[p]
        sites += len(idx) ** 3
        for i in idx:
            for j in idx:
                if (p, i, j) not in a:
                    raise ValueError(f"missing transition data at {(p, i, j)}")
                for k in idx:
                    if (p, i, j, k) not in t:
                        raise ValueError(f"missing phase data at {(p, i, j, k)}")
    # per point: the (i, j) keys, their a and ahat pairs, the (i, j, k) keys and their t pairs
    rows: dict[str, tuple[list, list, list, list]] = {}
    for key, v in a.items():
        row = rows.get(key[0]) or rows.setdefault(key[0], ([], [], [], []))
        row[0].append(key[1:])
        row[1].extend(v)
        row[1].extend(ahat[key])
    off_cover = len(t) > sites
    for key, v in t.items():
        p, i, j, k = key
        if off_cover and ((p, i, j) not in a or (p, j, k) not in a):
            raise ValueError(f"phase data at {key} lacks its a entries")
        num, den = v
        if not 0 <= num < den:
            raise ValueError(f"phase at {key} must be reduced into [0,1)")
        row = rows[p]
        row[2].append(key[1:])
        row[3].append(v)
    if not all(all(map(m.__contains__, row[2])) for row in rows.values()):
        key = next(k for k in t if k[1:] not in m)
        raise ValueError(f"phase data at {key} lacks its m entry")
    nums = {}
    for p, (pair_keys, pairs, phase_keys, phases) in rows.items():
        d, flat = _over_least_denominator(pairs, 1)
        big, tn = _over_least_denominator(phases, d * d)
        vecs = list(zip(*[iter(flat)] * n))
        an, hn = dict(zip(pair_keys, vecs[::2])), dict(zip(pair_keys, vecs[1::2]))
        nums[p] = (d, big, big // d, big // (d * d), an, hn, dict(zip(phase_keys, tn)))
    return nerve, n, m, mhat, nums


class TDCocycle(Record):
    """Local T-duality data (a, ahat, m, mhat, t) over a nerve model.

    The rational data is stored once, in `nums`: per point p the tuple
    (D, B, B/D, B/D^2, A, H, T).  A and H map each (i, j) to the numerators
    of a_ij and ahat_ij over D; T maps each (i, j, k) to the numerator of
    t_ijk over B, in [0, B), with D^2 dividing B.  Keys off the cover are
    stored too.  `a`, `ahat` and `t` are read-only maps built from `nums`.

    The public constructor hands the (numerator, denominator) pairs of its
    RatVec and Phase values to `cocycle_numerators`, as `jsonio` hands the
    pairs it reads.  `_new` trusts numerators computed in this module.
    Equality compares values, so cocycles over other denominators can be equal.
    """

    __slots__ = _FIELDS

    def __init__(
        self,
        nerve: NerveModel,
        n: int,
        a: Mapping[PairKey, RatVec],
        ahat: Mapping[PairKey, RatVec],
        m: Mapping[TripleKey, IntVec],
        mhat: Mapping[TripleKey, IntVec],
        t: Mapping[TKey, Phase],
    ):
        a, ahat = [
            {k: [f.as_integer_ratio() for f in v.entries] for k, v in x.items()} for x in (a, ahat)
        ]
        t = {k: ph.frac.as_integer_ratio() for k, ph in t.items()}
        self._write(cocycle_numerators(nerve, n, a, ahat, m, mhat, t))

    a = property(lambda self: _Entries(self.nums, 0), doc="(p, i, j) -> RatVec, read-only")
    ahat = property(lambda self: _Entries(self.nums, 1), doc="(p, i, j) -> RatVec, read-only")
    t = property(lambda self: _Entries(self.nums, 2), doc="(p, i, j, k) -> Phase, read-only")

    def __eq__(self, other) -> bool:
        return isinstance(other, TDCocycle) and all(
            getattr(self, f) == getattr(other, f) for f in _FIELDS[:4] + ("a", "ahat", "t")
        )

    __hash__ = None


def first_violation(c: TDCocycle) -> dict | None:
    """The first failing cocycle condition with its location, or None.

    Per point in nerve order: conditions 1 and 2 at every index triple,
    then 5 at the quadruples (i0, j, k, l) with i0 = cover[p][0], on the
    numerators of `c.nums`: 1 and 2 over D_p, and 5 modulo B_p.

    Conditions 3 and 4 are implied and not checked.  Where 1 and 2 hold
    at p, m_ijk = a_ik - a_jk - a_ij, so m_ikl + m_ijk and m_ijl + m_jkl
    both equal a_il - a_ij - a_jk - a_kl at every quadruple of p's cover;
    mhat likewise with ahat.  1 and 2 are checked at all of p's triples
    before any of its quadruples, so 3 or 4 is never the first violation.

    Condition 5 at the i0-quadruples implies it at all quadruples.  Let
    s_ijkl = t_ikl + t_ijk - t_ijl - t_jkl - m_ijk . ahat_kl, so that 5
    says s = 0 mod 1 and s = -(delta t + c) with c_ijkl = m_ijk . ahat_kl.
    Condition 1 at the four faces gives delta m = 0, so
    delta c (i, j, k, l, q) = m_ijk . (ahat_lq - ahat_kq + ahat_kl), which
    by condition 2 is -m_ijk . mhat_klq, an integer; with delta delta t = 0,
    delta s = 0 mod 1.  The cone identity delta s (i0, i, j, k, l) = 0
    mod 1 gives s_ijkl = s_i0jkl - s_i0ikl + s_i0ijl - s_i0ijk mod 1, so
    if s vanishes at every i0-quadruple it vanishes everywhere.  The
    i0-quadruples come first in `product` order, so the first failing
    quadruple of all is the first failing i0-quadruple.
    """
    m, mhat, view = c.m, c.mhat, c.nums
    for p in c.nerve.points:
        idx = c.nerve.cover[p]
        d, big, wd, _, an, hn, tn = view[p]
        for i, j in product(idx, repeat=2):
            a_ij, h_ij = an[(i, j)], hn[(i, j)]
            for k in idx:
                ijk = (i, j, k)
                if an[(i, k)] != tuple([d * x + y + z for x, y, z in zip(m[ijk], an[(j, k)], a_ij)]):
                    return {"condition": 1, "point": p, "indices": ijk}
                if hn[(i, k)] != tuple([d * x + y + z for x, y, z in zip(mhat[ijk], hn[(j, k)], h_ij)]):
                    return {"condition": 2, "point": p, "indices": ijk}
        i = idx[0]
        for j, k in product(idx, repeat=2):
            m_ijk, t_ijk = m[(i, j, k)], tn[(i, j, k)]
            for l in idx:
                twist = wd * sum(map(mul, m_ijk, hn[(k, l)]))
                if (tn[(i, k, l)] + t_ijk - twist - tn[(i, j, l)] - tn[(j, k, l)]) % big:
                    return {"condition": 5, "point": p, "indices": (i, j, k, l)}
    return None


def validate(c: TDCocycle) -> bool:
    """All five cocycle conditions at every point and ordered index tuple."""
    return first_violation(c) is None


def default_nerve() -> NerveModel:
    """Small test nerve with triple overlaps and a singleton-covered point."""
    return NerveModel(
        points=("p0", "p1", "p2", "p3"),
        cover={"p0": (0, 1, 2, 3), "p1": (0, 1, 2), "p2": (1, 2, 3), "p3": (2,)},
    )


def random_cocycle(nerve: NerveModel, n: int, seed: int) -> TDCocycle:
    """Seeded valid cocycle, antisymmetric as described in the module docstring.

    Each rational is drawn as `XorShift64Star.fraction(4, 6)` draws it, with
    a denominator in 1..6, and written directly as its numerator over
    D = lcm(1..6) = 60; t is stored over D^2.
    """
    rng = XorShift64Star(seed)
    indices, d = nerve.indices(), 60

    def draw() -> int:
        num = rng.int_in(-4, 4)
        return num * (d // rng.int_in(1, 6))

    def asym_int_table() -> dict[tuple[int, int], IntVec]:
        table: dict[tuple[int, int], IntVec] = {}
        for i in indices:
            table[(i, i)] = (0,) * n
            for j in indices:
                if i < j:
                    v = tuple(rng.int_in(-2, 2) for _ in range(n))
                    table[(i, j)] = v
                    table[(j, i)] = tuple(-x for x in v)
        return table

    off = asym_int_table()
    off_hat = asym_int_table()

    lift: dict[tuple[str, int], list[int]] = {}
    lift_hat: dict[tuple[str, int], list[int]] = {}
    for p in nerve.points:
        for i in nerve.cover[p]:
            lift[(p, i)] = [draw() for _ in range(n)]
            lift_hat[(p, i)] = [draw() for _ in range(n)]

    s: dict[PairKey, int] = {}
    for p in nerve.points:
        idx = nerve.cover[p]
        for i in idx:
            s[(p, i, i)] = 0
            for j in idx:
                if i < j:
                    v = draw()
                    s[(p, i, j)] = v
                    s[(p, j, i)] = -v

    def m_of(i: int, j: int, k: int, table) -> IntVec:
        return tuple(
            x - y - z for x, y, z in zip(table[(i, k)], table[(j, k)], table[(i, j)])
        )

    m = {ijk: m_of(*ijk, off) for ijk in product(indices, repeat=3)}
    mhat = {ijk: m_of(*ijk, off_hat) for ijk in product(indices, repeat=3)}

    def pair(lifts, offsets, p: str, i: int, j: int) -> IntVec:
        rows = zip(lifts[(p, i)], lifts[(p, j)], offsets[(i, j)])
        return tuple([y - x + d * o for x, y, o in rows])

    nums = {}
    for p in nerve.points:
        idx = nerve.cover[p]
        an, hn, tn = {}, {}, {}
        for i, j in product(idx, repeat=2):
            an[(i, j)] = pair(lift, off, p, i, j)
            hn[(i, j)] = pair(lift_hat, off_hat, p, i, j)
        for i, j, k in product(idx, repeat=3):
            coboundary = s[(p, j, k)] - s[(p, i, k)] + s[(p, i, j)]
            twist = _dot(m[(i, j, k)], lift_hat[(p, k)])
            tn[(i, j, k)] = d * (coboundary - twist) % (d * d)
        nums[p] = (d, d * d, d, 1, an, hn, tn)
    return TDCocycle._new(nerve, n, m, mhat, nums)


# -- the action of automorphism objects --------------------------------


def act(o: Obj, c: TDCocycle) -> TDCocycle:
    """Transform a cocycle by an automorphism object (A, X).

    The pair data and integer data transform linearly by A; the phase
    data picks up two bilinear corrections from X:

        t' = iso(A) t - eta(m + mhat, u) - eta(v_jk, v_ij),

    with u the concatenated (a_jk + a_ij, ahat_jk + ahat_ij) and v_pq the
    concatenated transition vectors.  Acting by the unit object is the
    identity, and act(o1 * o2, c) == act(o1, act(o2, c)) exactly.

    The v_pq and t at p are numerators over D_p and B_p (`c.nums`).  A v_pq
    and X v_pq are computed once per pair at each point, and m + mhat once
    per triple, for every point and for the new m and mhat.  The correction
    times D_p^2 is D_p (m + mhat) . (X v_jk + X v_ij) + v_jk . X v_ij.  The
    result is stored over the same D_p and B_p.
    """
    if o.n != c.n:
        raise ValueError("rank mismatch")
    amat, x, iso, n = o.g.mat, o.x, o.g.iso, c.n
    mm = {ijk: u + c.mhat[ijk] for ijk, u in c.m.items()}
    nums = {}
    for p, (d, big, wd, w, an, hn, tn) in c.nums.items():
        v = {ij: an[ij] + hn[ij] for ij in an}
        xv = {ij: x.mul_vec(u) for ij, u in v.items()}
        an2, hn2, tn2 = {}, {}, {}
        for ij, u in v.items():
            both = amat.mul_vec(u)
            an2[ij], hn2[ij] = both[:n], both[n:]
        for ijk, tv in tn.items():
            i, j, k = ijk
            xv_ij = xv[(i, j)]
            corr = d * sum(map(mul, mm[ijk], map(add, xv[(j, k)], xv_ij)))
            corr += sum(map(mul, v[(j, k)], xv_ij))
            tn2[ijk] = (iso * tv - w * corr) % big
        nums[p] = (d, big, wd, w, an2, hn2, tn2)
    new_m, new_mhat = {}, {}
    for ijk, u in mm.items():
        both = amat.mul_vec(u)
        new_m[ijk], new_mhat[ijk] = both[:n], both[n:]
    return TDCocycle._new(c.nerve, n, new_m, new_mhat, nums)


def _require_cover(c: TDCocycle, point: str, indices: Sequence[int]) -> None:
    cov = c.nerve.cover.get(point)
    if cov is None:
        raise ValueError(f"unknown point {point!r}")
    if any(i not in cov for i in indices):
        raise ValueError(f"indices {tuple(indices)} do not cover point {point!r}")


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


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


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
    mhat, view = c.mhat, c.nums
    for p in c.nerve.points:
        d, _, _, _, _, hn, _ = view[p]
        for i, j, k in product(c.nerve.cover[p], repeat=3):
            rhs = zip(mhat[(i, j, k)], hn[(j, k)], hn[(i, j)])
            if hn[(i, k)] != tuple([d * x + y + z for x, y, z in rhs]):
                yield p, (i, j, k), "a"


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
