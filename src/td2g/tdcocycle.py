"""T-duality local cocycle data on a discrete nerve, and the 2-group action on it.

A cocycle consists of rational transition data a, ahat per (point, i, j),
global integer vectors m, mhat per index triple, and phases t per
(point, i, j, k), subject to five pointwise conditions.  The rational data
is stored once, as integer numerators over one denominator per point
(`TDCocycle.nums`), which `cocycle_numerators` builds from (num, den)
pairs; Fractions appear only in the public constructor and in the
read-only maps `a`, `ahat` and `t`.  A point's common denominators D_p
and B_p may have at most `MAX_DENOMINATOR_BITS` bits each.  The identities
from the correspondence picture that this data satisfies are checked in
`tdcorr`.

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
from itertools import product
from math import gcd, lcm
from operator import add, mul
from typing import Mapping, Sequence

from .intlinalg import Phase, RatVec, Record
from .rng import XorShift64Star
from .twogroup import Obj

__all__ = [
    "MAX_DENOMINATOR_BITS",
    "NerveModel",
    "TDCocycle",
    "cocycle_numerators",
    "validate",
    "first_violation",
    "random_cocycle",
    "default_nerve",
    "act",
]

# The bound on each point's common denominators D_p and B_p.  D_p is the
# lcm of up to 2 048 entry denominators and B_p is at least D_p^2, so
# without it entries within `jsonio.MAX_ENTRY_BITS` could make `validate`
# and `act` work on integers of hundreds of thousands of bits.  As
# B_p >= D_p^2, a D_p of more than 2 048 bits is refused through its B_p.
MAX_DENOMINATOR_BITS = 4096

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


def _lcm_within(base: int, dens: set[int]) -> int | None:
    """lcm(base, *dens), or None once a partial lcm has more than `MAX_DENOMINATOR_BITS` bits."""
    for y in dens:
        base = lcm(base, y)
        if base.bit_length() > MAX_DENOMINATOR_BITS:
            return None
    return base


def _over_least_denominator(pairs: list, base: int, what: str) -> tuple[int, list[int]]:
    """(D, [x D / y, ...]) for the least multiple D of `base` with every x/y of `pairs` in Z/D;
    over B = lcm(base, y, ...) with numerators N, that is lcm(base, B / gcd(B, N, ...)).

    D divides B, so a B within `MAX_DENOMINATOR_BITS` needs no more.  Over
    it, D is the lcm of `base` and the reduced denominators, and a D over
    the bound raises ValueError naming `what`.  Each lcm stops at the
    bound, so no integer grows far past it.
    """
    b = _lcm_within(base, {y for _, y in pairs})
    if b is None:
        pairs = [(x // g, y // g) for x, y in pairs for g in (gcd(x, y),)]
        b = _lcm_within(base, {y for _, y in pairs})
        if b is None:
            raise ValueError(f"{what} has more than {MAX_DENOMINATOR_BITS} bits")
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
    the least multiple B of D^2, so [2, 4] stores as [1, 2], and refuses a
    D or B of more than `MAX_DENOMINATOR_BITS` bits.
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
        d, flat = _over_least_denominator(pairs, 1, f"the common denominator of a and ahat at {p!r}")
        big, tn = _over_least_denominator(phases, d * d, f"the common denominator of t at {p!r}")
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


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))
