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

`act` and `validate` work on coordinate columns: each point's vectors
are read once and transposed (`zip(*...)`), so that a matrix row or a
cocycle condition is a few C-level `map`s over whole columns, not a loop
over entries.  They read every table by key, never by position, because
its stored order follows its source: the order of a JSON file, or of the
code that built it.

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
from functools import cache
from itertools import compress, count, product, repeat
from math import gcd, lcm
from operator import add, mod, mul, ne, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .intlinalg import Phase, RatVec, Record, _gather, _row_nonzeros
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


@cache
def _cover_gathers(idx: tuple[int, ...]) -> tuple:
    """(triples, pairs, at): the index triples of a cover in product order, and the
    gathers of a table's entries at its pair and triple keys in product order."""
    triples = list(product(idx, repeat=3))
    return triples, _gather(list(product(idx, repeat=2))), _gather(triples)


@cache
def _site_gathers(w: int) -> tuple:
    """(xz, yz, xy): each s -> (s[u w + v] for (x, y, z) in product(range(w), repeat=3)),
    with (u, v) the pair the name gives; one entry per cover width."""
    r = range(w)
    return (
        _gather([x * w + z for x in r for _ in r for z in r]),
        _gather([y * w + z for _ in r for y in r for z in r]),
        _gather([x * w + y for x in r for y in r for _ in r]),
    )


def _unequal_at(cols: Iterable, cols2: Iterable) -> list[int]:
    """The sorted positions where some tuple of `cols` differs from its partner in `cols2`."""
    bad: set[int] = set()
    for x, y in zip(cols, cols2):
        if x != y:
            bad.update(compress(count(), map(ne, x, y)))
    return sorted(bad)


def _failing_triples(d: int, cols: list, mcols: list, w: int) -> list[int]:
    """The product-order positions of the triples (i, j, k) of a width-w cover where
    x_ik != d m_ijk + x_jk + x_ij, from the columns of x over its pairs and of m over its
    triples, both in product order: condition 1 for (a, m), 2 for (ahat, mhat)."""
    xz, yz, xy = _site_gathers(w)
    rhs = (
        tuple(map(add, map(mul, mx, repeat(d)), map(add, yz(x), xy(x))))
        for x, mx in zip(cols, mcols)
    )
    return _unequal_at(map(xz, cols), rhs)


def first_violation(c: TDCocycle) -> dict | None:
    """The first failing cocycle condition with its location, or None.

    Per point in nerve order: conditions 1 and 2 at every index triple,
    then 5 at the quadruples (i0, j, k, l) with i0 = cover[p][0], on the
    numerators of `c.nums`: 1 and 2 over D_p, and 5 modulo B_p.  The
    first failure is the one a loop over the sites in that order finds:
    the first failing triple, and 1 before 2 at the same triple.

    Each table of p is read once, by key, in product order over p's cover
    (pairs, then triples), as coordinate columns.  With w the cover width,
    the triple (x, y, z) then sits at x w^2 + y w + z and the pair (x, z)
    at x w + z, so the gathers `_site_gathers(w)` pick each triple's
    (i, k), (j, k) and (i, j) pairs.  On the tables, the same gathers pick
    for the i0-quadruple (i0, x, y, z) its phases at (i0, y, z),
    (i0, x, y) and (i0, x, z), its m at (i0, x, y) and its ahat at (y, z).

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
    for p in c.nerve.points:
        idx = c.nerve.cover[p]
        w, (triples, pairs, at) = len(idx), _cover_gathers(idx)
        d, big, wd, _, an, hn, tn = c.nums[p]
        m, h = list(zip(*at(c.m))), list(zip(*pairs(hn)))
        bad_a = _failing_triples(d, list(zip(*pairs(an))), m, w)
        bad_h = _failing_triples(d, h, list(zip(*at(c.mhat))), w)
        first = [(bad[0], cond) for cond, bad in ((1, bad_a), (2, bad_h)) if bad]
        if first:
            q, cond = min(first)
            return {"condition": cond, "point": p, "indices": triples[q]}
        xz, yz, xy = _site_gathers(w)
        t, twist = at(tn), repeat(0)
        for mx, hx in zip(m, h):
            twist = map(add, twist, map(mul, xy(mx), yz(hx)))
        lhs = map(sub, map(add, yz(t), xy(t)), map(mul, twist, repeat(wd)))
        s = map(mod, map(sub, lhs, map(add, xz(t), t)), repeat(big))
        q = next(compress(count(), s), None)
        if q is not None:
            return {"condition": 5, "point": p, "indices": (idx[0], *triples[q])}
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
            twist = sum(map(mul, m[(i, j, k)], lift_hat[(p, k)]))
            tn[(i, j, k)] = d * (coboundary - twist) % (d * d)
        nums[p] = (d, d * d, d, 1, an, hn, tn)
    return TDCocycle._new(nerve, n, m, mhat, nums)


# -- the action of automorphism objects --------------------------------


def _weighted(terms: Iterable) -> Iterator[int]:
    """The entrywise sum of x seq over the (seq, x) of `terms`, as a lazy C-level `map` chain."""
    (seq, x), *rest = terms
    acc = seq if x == 1 else map(mul, seq, repeat(x))
    for seq, x in rest:
        acc = map(add, acc, seq if x == 1 else map(mul, seq, repeat(x)))
    return acc


def _combine(terms: list, cols: list) -> tuple[int, ...]:
    """The column sum of x cols[k] over the (k, x) of `terms`, the nonzero entries of one row."""
    return tuple(_weighted([(cols[k], x) for k, x in terms]))


def act(o: Obj, c: TDCocycle) -> TDCocycle:
    """Transform a cocycle by an automorphism object (A, X).

    The pair data and integer data transform linearly by A; the phase
    data picks up two bilinear corrections from X:

        t' = iso(A) t - eta(m + mhat, u) - eta(v_jk, v_ij),

    with u the concatenated (a_jk + a_ij, ahat_jk + ahat_ij) and v_pq the
    concatenated transition vectors.  Acting by the unit object is the
    identity, and act(o1 * o2, c) == act(o1, act(o2, c)) exactly.

    The v_pq and t at p are numerators over D_p and B_p (`c.nums`).  The
    2n columns of v over p's pair keys, and of m + mhat over the triple
    keys, are taken once; a row of A v or X v sums the columns that the
    row's nonzero entries pick, as A and X are sparse.  The correction
    times D_p^2 is D_p (m + mhat) . (X v_jk + X v_ij) + v_jk . X v_ij.  A
    zero row of X adds nothing to it, so only the nonzero rows of X are
    gathered along the t keys, at their (j, k) and (i, j) pairs and
    their m entry.  hn, mhat and these gathers go by key, so no table
    needs the stored order of another; each output table keeps its
    input's order.  The result is stored over the same D_p and B_p.
    """
    if o.n != c.n:
        raise ValueError("rank mismatch")
    n, iso, rows = c.n, o.g.iso, _row_nonzeros(o.g.mat)
    x_rows = [(r, terms) for r, terms in enumerate(_row_nonzeros(o.x)) if terms]
    m_keys = list(c.m)
    m_at = {ijk: q for q, ijk in enumerate(m_keys)}
    mm = list(zip(*map(add, c.m.values(), _gather(m_keys)(c.mhat))))
    nums = {}
    for p, (d, big, wd, w, an, hn, tn) in c.nums.items():
        keys = list(an)
        v = list(zip(*map(add, an.values(), _gather(keys)(hn))))
        av = [_combine(terms, v) for terms in rows]
        at = {ij: q for q, ij in enumerate(keys)}
        jk, ij = _gather([at[k[1:]] for k in tn]), _gather([at[k[:2]] for k in tn])
        mt = _gather([m_at[k] for k in tn])
        # lin = (m + mhat) . (X v_jk + X v_ij) and bil = v_jk . X v_ij, over B/D_p and B/D_p^2
        lin = bil = repeat(0)
        for r, terms in x_rows:
            xv = _combine(terms, v)
            xv_ij = ij(xv)
            lin = map(add, lin, map(mul, mt(mm[r]), map(add, jk(xv), xv_ij)))
            bil = map(add, bil, map(mul, jk(v[r]), xv_ij))
        t = map(sub, map(mul, tn.values(), repeat(iso)), map(mul, lin, repeat(wd)))
        tn2 = dict(zip(tn, map(mod, map(sub, t, map(mul, bil, repeat(w))), repeat(big))))
        nums[p] = (d, big, wd, w, dict(zip(keys, zip(*av[:n]))), dict(zip(keys, zip(*av[n:]))), tn2)
    am = [_combine(terms, mm) for terms in rows]
    new_m, new_mhat = dict(zip(m_keys, zip(*am[:n]))), dict(zip(m_keys, zip(*am[n:])))
    return TDCocycle._new(c.nerve, n, new_m, new_mhat, nums)


def _require_cover(c: TDCocycle, point: str, indices: Sequence[int]) -> None:
    cov = c.nerve.cover.get(point)
    if cov is None:
        raise ValueError(f"unknown point {point!r}")
    if any(i not in cov for i in indices):
        raise ValueError(f"indices {tuple(indices)} do not cover point {point!r}")
