from fractions import Fraction
from operator import mul

import pytest

from td2g.intlinalg import IntMat, Phase, RatVec, diag_vec
from td2g.groups import random_word, standard_generators
from td2g.rng import XorShift64Star
from td2g.tdcorr import NerveModel, TDCocycle
from td2g.twogroup import b_split

# No point covers both 0 and 3, so the triple 0|1|3 needs no m or mhat
# entry, though random_cocycle writes one to each.
SPLIT_NERVE = NerveModel(("p1", "p2", "p3"), {"p1": (0, 1, 2), "p2": (1, 2, 3), "p3": (2,)})

# The nerve of the benchmark's act-io files: 12 points over 6 indices,
# q0..q5 in 4 charts and q6..q11 in 3.
WIDE_NERVE = NerveModel(
    tuple(f"q{k}" for k in range(12)),
    {f"q{k}": tuple(sorted({(k + d) % 6 for d in range(4 if k < 6 else 3)})) for k in range(12)},
)


def rand_ratvec(rng: XorShift64Star, dim: int, max_num: int = 5, max_den: int = 7) -> RatVec:
    return RatVec([rng.fraction(max_num, max_den) for _ in range(dim)])


def rand_intvec(rng: XorShift64Star, dim: int, bound: int = 5) -> tuple[int, ...]:
    return tuple(rng.int_in(-bound, bound) for _ in range(dim))


def words(n: int, count: int, seed: int, length: int = 6):
    gens = standard_generators(n)
    rng = XorShift64Star(seed)
    return [random_word(gens, length, rng) for _ in range(count)]


def fraction_inverse(m: IntMat) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fractions; independent of the integer (Bareiss) path."""
    k = m.rows
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(k)]
        for i, row in enumerate(m.data)
    ]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def reference_matmul(a: IntMat, b: IntMat) -> IntMat:
    """The earlier dense product: every entry is the full dot product of a row and a column."""
    bt = tuple(zip(*b.data))
    return IntMat(tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a.data))


def reference_k_cocycle(a, b, c) -> tuple[int, ...]:
    """The earlier k_cocycle: its own products and four diagonals of full quadratic forms."""
    if not (a.n == b.n == c.n):
        raise ValueError("rank mismatch")
    bm, cm = b.mat, c.mat
    ct = cm.transpose()
    ab = a * b
    p = bm.transpose() * b_split(a)[1] * bm
    w1 = ct.mul_vec(diag_vec(p))
    w2 = diag_vec(ct * b_split(ab)[1] * cm)
    w3 = diag_vec(ct * b_split(b)[1] * cm)
    w4 = diag_vec(ct * p * cm)
    w = [x1 + x2 - a.iso * x3 - x4 for x1, x2, x3, x4 in zip(w1, w2, w3, w4)]
    m2 = (ab * c).inv_transpose_mat().mul_vec(w)
    if any(v % 2 for v in m2):
        raise ArithmeticError("k-invariant half-prefactor did not divide evenly")
    return tuple(v // 2 for v in m2)


def reference_gamma(a, b) -> tuple[int, ...]:
    """The earlier gamma: -(AB)^{-T} (B^T (B_A)_low B)^diag with the full form."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    bm = b.mat
    w = diag_vec(bm.transpose() * b_split(a)[1] * bm)
    return tuple(-v for v in (a * b).inv_transpose_mat().mul_vec(w))


# -- Fraction references for the integer kernels ---------------------------
# Every sum and product below is a Fraction, as in the original
# implementations; the kernels in td2g must agree with them exactly.


def _fraction_mat_vec(mat: IntMat, v) -> tuple[Fraction, ...]:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in mat.data)


def reference_phase_bilinear(x: IntMat, a: RatVec, b: RatVec) -> Phase:
    """a^T x b mod 1 summed over Fractions."""
    total = Fraction(0)
    for ai, row in zip(a.entries, x.data):
        total += ai * sum((c * bj for c, bj in zip(row, b.entries)), Fraction(0))
    return Phase(total)


def reference_quadratic_phase(h: IntMat, lin, x: RatVec) -> Phase:
    """1/2 x^T h x - 1/2 h^diag . x + lin . x mod 1 summed over Fractions."""
    half = Fraction(1, 2)
    quad = sum((xi * yi for xi, yi in zip(x.entries, _fraction_mat_vec(h, x.entries))), Fraction(0))
    linear = sum(
        ((Fraction(l) - half * h.data[i][i]) * xi for i, (l, xi) in enumerate(zip(lin, x.entries))),
        Fraction(0),
    )
    return Phase(half * quad + linear)


def reference_act(o, c: TDCocycle) -> TDCocycle:
    """t' = iso(A) t - eta(m + mhat, u) - eta(v_jk, v_ij), one Fraction per operation."""
    amat, n = o.g.mat, c.n
    a, ahat, m, mhat, t = {}, {}, {}, {}, {}
    for key, av in c.a.items():
        both = _fraction_mat_vec(amat, av.entries + c.ahat[key].entries)
        a[key], ahat[key] = RatVec(both[:n]), RatVec(both[n:])
    for key, mv in c.m.items():
        both_i = amat.mul_vec(mv + c.mhat[key])
        m[key], mhat[key] = both_i[:n], both_i[n:]
    for (p, i, j, k), tv in c.t.items():
        v_jk = c.a[(p, j, k)].entries + c.ahat[(p, j, k)].entries
        v_ij = c.a[(p, i, j)].entries + c.ahat[(p, i, j)].entries
        u = RatVec([x + y for x, y in zip(v_jk, v_ij)])
        mvec = RatVec(c.m[(i, j, k)] + c.mhat[(i, j, k)])
        corr = reference_phase_bilinear(o.x, mvec, u).frac + reference_phase_bilinear(
            o.x, RatVec(v_jk), RatVec(v_ij)
        ).frac
        t[(p, i, j, k)] = Phase(o.g.iso * tv.frac - corr)
    return TDCocycle(c.nerve, n, a, ahat, m, mhat, t)


def reference_first_violation(c: TDCocycle) -> dict | None:
    """The five conditions at every point and ordered index tuple, over Fractions."""
    for p in c.nerve.points:
        idx = c.nerve.cover[p]
        for i in idx:
            for j in idx:
                for k in idx:
                    if c.a[(p, i, k)] != RatVec(c.m[(i, j, k)]) + c.a[(p, j, k)] + c.a[(p, i, j)]:
                        return {"condition": 1, "point": p, "indices": (i, j, k)}
                    rhs = RatVec(c.mhat[(i, j, k)]) + c.ahat[(p, j, k)] + c.ahat[(p, i, j)]
                    if c.ahat[(p, i, k)] != rhs:
                        return {"condition": 2, "point": p, "indices": (i, j, k)}
        for i in idx:
            for j in idx:
                for k in idx:
                    for l in idx:
                        for cond, mm in ((3, c.m), (4, c.mhat)):
                            lhs = tuple(x + y for x, y in zip(mm[(i, k, l)], mm[(i, j, k)]))
                            if lhs != tuple(x + y for x, y in zip(mm[(i, j, l)], mm[(j, k, l)])):
                                return {"condition": cond, "point": p, "indices": (i, j, k, l)}
                        lhs = (
                            c.t[(p, i, k, l)].frac
                            + c.t[(p, i, j, k)].frac
                            - RatVec(c.m[(i, j, k)]).dot(c.ahat[(p, k, l)])
                        )
                        if Phase(lhs) != Phase(c.t[(p, i, j, l)].frac + c.t[(p, j, k, l)].frac):
                            return {"condition": 5, "point": p, "indices": (i, j, k, l)}
    return None


def reference_cocycle_key(key: str, arity: int, nerve: NerveModel, with_point: bool):
    """The cocycle key rule of the earlier loader: the parsed key, or None if refused.

    Each index part went through int() and had to read back as str()
    writes it; then a point key had to name a point and indices of its
    cover, and an "i|j|k" key indices of the nerve.
    """
    parts = key.split("|")
    if len(parts) != arity:
        return None
    if with_point:
        head, parts, allowed = (parts[0],), parts[1:], nerve.cover.get(parts[0], ())
    else:
        head, allowed = (), nerve.indices()
    indices = []
    for part in parts:
        try:
            i = int(part)
        except ValueError:
            return None
        if str(i) != part or i not in allowed:
            return None
        indices.append(i)
    return (*head, *indices)


@pytest.fixture
def rng():
    return XorShift64Star(0xC0FFEE)
