from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul

import pytest

from td2g.crossedmod import (
    TDGroupElement,
    TDHElement,
    _rand_lattice,
    _rand_rational,
    ci_from_obj,
    td_alpha,
)
from td2g.intlinalg import (
    IntMat,
    Phase,
    RatVec,
    common_denominator,
    diag_vec,
    phase_bilinear,
    strict_lower_split,
    unimodular_inverse,
)
from td2g import kinvariant
from td2g.groups import (
    PseudoOrthogonal,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    gl_generators,
    perm_v,
    random_word,
    rotation_n1,
    so_basis,
    standard_generators,
)
from td2g.rng import XorShift64Star
from td2g.tdcorr import NerveModel, TDCocycle, _check_so_skew, _joint_view, _require_cover, act
from td2g.twogroup import Mor, Obj, eval_mor, section

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


def sample_elements(n: int, seed: int) -> list[PseudoOrthogonal]:
    """Every standard generator and its inverse, then 8 seeded words and the products of consecutive ones."""
    ws = words(n, 8, seed, length=7)
    gens = standard_generators(n)
    return [x for g in gens for x in (g, g.inverse())] + ws + [a * b for a, b in zip(ws, ws[1:])]


def rotation(n: int) -> PseudoOrthogonal:
    """rotation_n1 on each pair of slots (i, n + i): e_i -> e_{n+i} -> -e_i; iso = -1, by the checked constructor."""
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[n + i][i] = 1
        m[i][n + i] = -1
    return PseudoOrthogonal(IntMat(m))


def reference_random_word(generators, length: int, seed) -> PseudoOrthogonal:
    """The earlier random_word: inverts on every pick and starts from the identity."""
    if not generators:
        raise ValueError("empty generator list")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators of mixed rank")
    rng = seed if isinstance(seed, XorShift64Star) else XorShift64Star(seed)
    acc = PseudoOrthogonal.identity(n)
    for _ in range(length):
        g = generators[rng.below(len(generators))]
        if rng.below(2):
            g = g.inverse()
        acc = acc * g
    return acc


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


def reference_unimodular_inverse(a: IntMat) -> IntMat:
    """The earlier two-pass inverse: a Bareiss `det` first, then Gauss-Jordan on [A | E]."""
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    d = a.det()
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {d})")
    k = a.rows
    m = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(a.data)]
    prev = 1
    for c in range(k):
        if m[c][c] == 0:
            swap = next(r for r in range(c + 1, k) if m[r][c] != 0)
            m[c], m[swap] = m[swap], m[c]
        row_c = m[c]
        pivot = row_c[c]
        for r in range(k):
            if r != c:
                f = m[r][c]
                m[r] = [(x * pivot - f * y) // prev for x, y in zip(m[r], row_c)]
        prev = pivot
    return IntMat(tuple(tuple(prev * x for x in row[k:]) for row in m))


def reference_matmul(a: IntMat, b: IntMat) -> IntMat:
    """The earlier dense product: every entry is the full dot product of a row and a column."""
    bt = tuple(zip(*b.data))
    return IntMat(tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a.data))


def reference_b_split(a) -> tuple[IntMat, IntMat]:
    """The earlier b_split: B_A = iso(A) J - A^T J A as one product of half the depth, then a checked split."""
    n = a.n
    rows = a.mat.data
    neg_low_t = IntMat(tuple(tuple(-x for x in col) for col in zip(*rows[n:])))
    b = [list(r) for r in (neg_low_t * IntMat(rows[:n])).data]
    for i in range(n):
        b[n + i][i] += a.iso
    b = IntMat(b)
    return b, strict_lower_split(b)


def reference_h(q, p) -> IntMat:
    """The earlier _Chain.h: S = P^T (B_Q)_low P by two dense products, H = S^diag + S_up + S_up^T."""
    pm = p.mat
    s = reference_matmul(pm.transpose(), reference_matmul(reference_b_split(q)[1], pm)).data
    return IntMat([[s[min(r, c)][max(r, c)] for c in range(len(s))] for r in range(len(s))])


def reference_form(q, p) -> tuple[int, ...]:
    """The earlier _Chain.form: the diagonal of the full P^T (B_Q)_low P."""
    pm = p.mat
    return diag_vec(reference_matmul(pm.transpose(), reference_matmul(reference_b_split(q)[1], pm)))


def reference_correction_bracket(h: IntMat, a: IntMat) -> list[int]:
    """The earlier correction_bracket: (A^T H A)^diag - A^T H^diag from the dense product H A."""
    hd = diag_vec(h)
    return [
        sum(map(mul, c, hc)) - sum(map(mul, c, hd))
        for c, hc in zip(zip(*a.data), zip(*reference_matmul(h, a).data))
    ]


def reference_k_cocycle(a, b, c) -> tuple[int, ...]:
    """The earlier k_cocycle: its own products and four diagonals of full quadratic forms."""
    if not (a.n == b.n == c.n):
        raise ValueError("rank mismatch")
    bm, cm = b.mat, c.mat
    ct = cm.transpose()
    ab = a * b
    p = bm.transpose() * reference_b_split(a)[1] * bm
    w1 = ct.mul_vec(diag_vec(p))
    w2 = diag_vec(ct * reference_b_split(ab)[1] * cm)
    w3 = diag_vec(ct * reference_b_split(b)[1] * cm)
    w4 = diag_vec(ct * p * cm)
    w = [x1 + x2 - a.iso * x3 - x4 for x1, x2, x3, x4 in zip(w1, w2, w3, w4)]
    m2 = (ab * c).inverse().mat.transpose().mul_vec(w)
    if any(v % 2 for v in m2):
        raise ArithmeticError("k-invariant half-prefactor did not divide evenly")
    return tuple(v // 2 for v in m2)


def reference_gamma(a, b) -> tuple[int, ...]:
    """The earlier gamma: -(AB)^{-T} (B^T (B_A)_low B)^diag with the full form."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    bm = b.mat
    w = diag_vec(bm.transpose() * reference_b_split(a)[1] * bm)
    return tuple(-v for v in (a * b).inverse().mat.transpose().mul_vec(w))


def reference_n1_exhaustive(_n, _trials, _seed) -> list[dict]:
    """The earlier n1-exhaustive suite body: one k_cocycle per triple, one chain per quadruple."""
    elems = enumerate_n1()
    failures = []
    zero = (0, 0)
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            for ic, c in enumerate(elems):
                if kinvariant.k_cocycle(a, b, c) != zero:
                    failures.append({"trial": 0, "check": "n1-vanishing", "triple": [ia, ib, ic]})
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            for ic, c in enumerate(elems):
                for idd, d in enumerate(elems):
                    if not kinvariant.check_cocycle_identity(a, b, c, d):
                        failures.append(
                            {"trial": 0, "check": "cocycle-identity", "quadruple": [ia, ib, ic, idd]}
                        )
    return failures


def closure(gens) -> list[PseudoOrthogonal]:
    """The finite group that `gens` generate, in breadth-first order.

    elems[0] is the identity; then, for each element in turn and each
    generator in the order given, the product element * generator is
    appended when it is new.  The order is what names a record's indices.
    """
    elems = [PseudoOrthogonal.identity(gens[0].n)]
    seen = set(elems)
    for x in elems:  # grows while it is walked
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


def g18() -> list[PseudoOrthogonal]:
    """The order-18 closure of embed_gl([[0,-1],[1,-1]]) (order 3) and perm_v(2, 1).

    16 of its elements have a column with two nonzero entries, so m reads
    H's off-diagonal entries here, as it cannot at n = 1.
    """
    return closure([embed_gl(IntMat([[0, -1], [1, -1]])), perm_v(2, 1)])


def reference_table_failures(elems) -> list[dict]:
    """`finite_group_failures` as tuple loops: each defect summed entry by entry.

    It reads the same tables as the integer-coded scans (`_cayley_table`,
    `_m_table`, `gamma` and the `_Actions` memo, each looked up at call
    time), so a fault injected into any of them reaches both.
    """
    table = kinvariant._cayley_table(elems)
    idx = range(len(elems))
    zero = (0,) * (2 * elems[0].n)
    acted = [kinvariant._Actions(a) for a in elems]
    m = kinvariant._m_table(elems, table, acted)
    failures = [
        {"trial": 0, "check": "n1-vanishing", "triple": [ia, ib, ic]}
        for ia in idx
        for ib in idx
        for ic in idx
        if m[ia][ib][ic] != zero
    ]
    for ia in idx:
        act_a, m_a, row_a = acted[ia], m[ia], table[ia]
        for ib in idx:
            m_a_b, m_b, m_ab = m_a[ib], m[ib], m[row_a[ib]]
            for ic in idx:
                along_d = zip(idx, m_b[ic], m_ab[ic], m_a[table[ib][ic]], table[ic])
                for idd, m_b_c_d, m_ab_c_d, m_a_bc_d, icd in along_d:
                    terms = zip(act_a[m_b_c_d], m_ab_c_d, m_a_bc_d, m_a_b[icd], m_a_b[ic])
                    if any(t0 - t1 + t2 - t3 + t4 for t0, t1, t2, t3, t4 in terms):
                        failures.append(
                            {"trial": 0, "check": "cocycle-identity", "quadruple": [ia, ib, ic, idd]}
                        )
    g = [[kinvariant.gamma(a, b) for b in elems] for a in elems]
    for ia in idx:
        act_a, g_a, m_a, row_a = acted[ia], g[ia], m[ia], table[ia]
        for ib in idx:
            g_a_b, g_ab, m_a_b = g_a[ib], g[row_a[ib]], m_a[ib]
            for ic, g_b_c, ibc in zip(idx, g[ib], table[ib]):
                terms = zip(act_a[g_b_c], g_ab[ic], g_a[ibc], g_a_b, m_a_b[ic])
                if any(t0 - t1 + t2 - t3 - 2 * t4 for t0, t1, t2, t3, t4 in terms):
                    failures.append({"trial": 0, "check": "n1-two-torsion", "triple": [ia, ib, ic]})
    return failures


def reference_subgroup_vanishing(tag: str, n: int, trials: int = 0, seed: int = 0) -> bool:
    """The earlier subgroup check: exhaustive for Z, and for V while 8^n <= 4096, else seeded draws."""
    zero = (0,) * (2 * n)
    if tag == "Z":
        elems = kinvariant.z_elements(n)
    elif tag == "V":
        elems = kinvariant.v_elements(n)
        if len(elems) ** 3 > 4096:
            elems = None
    elif tag in ("GL", "SO"):
        elems = None
    else:
        raise ValueError(f"unknown subgroup tag {tag!r}")
    if elems is not None:
        return all(
            kinvariant.k_cocycle(a, b, c) == zero for a in elems for b in elems for c in elems
        )

    def random_gl_element(rng):
        return random_word([embed_gl(g) for g in gl_generators(n)], 4 + rng.below(5), rng)

    def random_so_element(rng):
        acc = IntMat.zeros(n)
        for b in so_basis(n):
            acc = acc + b.scale(rng.int_in(-3, 3))
        return embed_so(acc)

    rng = XorShift64Star(seed)
    if tag == "V":
        vs = kinvariant.v_elements(n)
        draw = lambda r: vs[r.below(len(vs))]
    else:
        draw = random_gl_element if tag == "GL" else random_so_element
    for _ in range(max(trials, 1)):
        if kinvariant.k_cocycle(draw(rng), draw(rng), draw(rng)) != zero:
            return False
    return True


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


def reference_cocycle_to_json(c: TDCocycle, meta: dict | None = None) -> dict:
    """The earlier cocycle writer: keys joined by a helper, pairs reduced by a helper."""

    def key_join(*parts) -> str:
        return "|".join(str(p) for p in parts)

    def reduced(num: int, den: int) -> list[int]:
        g = gcd(num, den)
        return [num // g, den // g]

    a, ahat, t = {}, {}, {}
    for p, (d, big, _, _, an, hn, tn) in c.nums.items():
        for ij, u in an.items():
            a[key_join(p, *ij)] = [reduced(x, d) for x in u]
            ahat[key_join(p, *ij)] = [reduced(x, d) for x in hn[ij]]
        for ijk, x in tn.items():
            t[key_join(p, *ijk)] = reduced(x, big)
    payload = {
        "n": c.n,
        "points": list(c.nerve.points),
        "cover": {p: list(c.nerve.cover[p]) for p in c.nerve.points},
        "a": a,
        "ahat": ahat,
        "m": {key_join(*k): list(v) for k, v in c.m.items()},
        "mhat": {key_join(*k): list(v) for k, v in c.mhat.items()},
        "t": t,
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


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


def reference_random_cocycle(nerve: NerveModel, n: int, seed: int) -> TDCocycle:
    """The earlier random_cocycle: every entry built through RatVec and Fraction arithmetic."""
    rng = XorShift64Star(seed)
    indices = nerve.indices()

    def asym_int_table() -> dict[tuple[int, int], tuple[int, ...]]:
        table: dict[tuple[int, int], tuple[int, ...]] = {}
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

    lift: dict[tuple[str, int], RatVec] = {}
    lift_hat: dict[tuple[str, int], RatVec] = {}
    for p in nerve.points:
        for i in nerve.cover[p]:
            lift[(p, i)] = RatVec([rng.fraction(4, 6) for _ in range(n)])
            lift_hat[(p, i)] = RatVec([rng.fraction(4, 6) for _ in range(n)])

    s: dict[tuple[str, int, int], Fraction] = {}
    for p in nerve.points:
        idx = nerve.cover[p]
        for i in idx:
            s[(p, i, i)] = Fraction(0)
            for j in idx:
                if i < j:
                    v = rng.fraction(4, 6)
                    s[(p, i, j)] = v
                    s[(p, j, i)] = -v

    def m_of(i: int, j: int, k: int, table) -> tuple[int, ...]:
        return tuple(
            x - y - z for x, y, z in zip(table[(i, k)], table[(j, k)], table[(i, j)])
        )

    m = {ijk: m_of(*ijk, off) for ijk in product(indices, repeat=3)}
    mhat = {ijk: m_of(*ijk, off_hat) for ijk in product(indices, repeat=3)}

    a: dict[tuple[str, int, int], RatVec] = {}
    ahat: dict[tuple[str, int, int], RatVec] = {}
    t: dict[tuple[str, int, int, int], Phase] = {}
    for p in nerve.points:
        idx = nerve.cover[p]
        for i, j in product(idx, repeat=2):
            a[(p, i, j)] = lift[(p, j)] - lift[(p, i)] + RatVec.from_ints(off[(i, j)])
            ahat[(p, i, j)] = (
                lift_hat[(p, j)] - lift_hat[(p, i)] + RatVec.from_ints(off_hat[(i, j)])
            )
        for i, j, k in product(idx, repeat=3):
            coboundary = s[(p, j, k)] - s[(p, i, k)] + s[(p, i, j)]
            twist = RatVec.from_ints(m[(i, j, k)]).dot(lift_hat[(p, k)])
            t[(p, i, j, k)] = Phase(coboundary - twist)
    return TDCocycle(nerve, n, a, ahat, m, mhat, t)


# -- Fraction gerbe and correspondence cochains ------------------------------
# The cochains the tdcorr identities are stated in, evaluated at one fiber
# point over Fractions; the sampled references below are built on them.


def gerbe_left(c: TDCocycle, point: str, ijk, a: RatVec) -> Phase:
    """Left-leg gerbe cocycle: -t_ijk - a . mhat_ijk + a_ij . ahat_jk."""
    i, j, k = ijk
    _require_cover(c, point, ijk)
    if a.dim != c.n:
        raise ValueError("fiber coordinate has wrong dimension")
    val = (
        -c.t[(point, i, j, k)].frac
        - a.dot(RatVec.from_ints(c.mhat[(i, j, k)]))
        + c.a[(point, i, j)].dot(c.ahat[(point, j, k)])
    )
    return Phase(val)


def gerbe_right(c: TDCocycle, point: str, ijk, ahat: RatVec) -> Phase:
    """Right-leg gerbe cocycle: -t_ijk - m_ijk . (ahat_ik + ahat)."""
    i, j, k = ijk
    _require_cover(c, point, ijk)
    if ahat.dim != c.n:
        raise ValueError("fiber coordinate has wrong dimension")
    val = -c.t[(point, i, j, k)].frac - RatVec.from_ints(c.m[(i, j, k)]).dot(
        c.ahat[(point, i, k)] + ahat
    )
    return Phase(val)


def corr_cochain(c: TDCocycle, point: str, ij, a: RatVec, ahat: RatVec, m2, mhat2) -> Phase:
    """Correspondence cochain: -m2 . ahat - ahat_ij . m2 - ahat_ij . a.

    The hatted integer shift mhat2 is part of the fiber-product
    coordinates but does not enter the formula.
    """
    i, j = ij
    _require_cover(c, point, ij)
    if a.dim != c.n or ahat.dim != c.n or len(m2) != c.n or len(mhat2) != c.n:
        raise ValueError("dimension mismatch")
    aij_hat = c.ahat[(point, i, j)]
    val = -ahat.dot(RatVec.from_ints(m2)) - aij_hat.dot(RatVec.from_ints(m2)) - aij_hat.dot(a)
    return Phase(val)


def low_bracket(b_low: IntMat, u: RatVec, v: RatVec) -> Fraction:
    """u^T b_low v over Fractions."""
    du, (nu,) = common_denominator((u.entries,))
    dv, (nv,) = common_denominator((v.entries,))
    return Fraction(sum(map(mul, nu, b_low.mul_vec(nv))), du * dv)


def reference_so_eps(c: TDCocycle, b_low: IntMat, p: str, i: int, j: int, k: int) -> Fraction:
    """eps_ijk = <a_ik|B|m_ijk> + <a_ij|B|a_jk>, lower-split brackets, over Fractions."""
    m_ijk = RatVec.from_ints(c.m[(i, j, k)])
    return low_bracket(b_low, c.a[(p, i, k)], m_ijk) + low_bracket(
        b_low, c.a[(p, i, j)], c.a[(p, j, k)]
    )


# -- sampled references for the exhaustive tdcorr checks ---------------------
# The earlier bodies: each identity is evaluated through gerbe_left,
# gerbe_right and corr_cochain at seeded Fraction sample points.


def rand_site(rng: XorShift64Star, c: TDCocycle, arity: int) -> tuple[str, tuple[int, ...]]:
    p = c.nerve.points[rng.below(len(c.nerve.points))]
    idx = c.nerve.cover[p]
    return p, tuple(idx[rng.below(len(idx))] for _ in range(arity))


def reference_check_gerbe_cocycle(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """Both legs satisfy the groupoid Cech 2-cocycle condition at samples."""
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k, l) = rand_site(rng, c, 4)
        a = rand_ratvec(rng, c.n)
        lhs = (
            gerbe_left(c, p, (j, k, l), c.a[(p, i, j)] + a)
            - gerbe_left(c, p, (i, k, l), a)
            + gerbe_left(c, p, (i, j, l), a)
            - gerbe_left(c, p, (i, j, k), a)
        )
        if not lhs.is_zero():
            return False
        ahat = rand_ratvec(rng, c.n)
        lhs_hat = (
            gerbe_right(c, p, (j, k, l), c.ahat[(p, i, j)] + ahat)
            - gerbe_right(c, p, (i, k, l), ahat)
            + gerbe_right(c, p, (i, j, l), ahat)
            - gerbe_right(c, p, (i, j, k), ahat)
        )
        if not lhs_hat.is_zero():
            return False
    return True


def reference_check_corr_delta(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """The correspondence identity: hat-leg minus leg equals the cochain coboundary.

    Evaluated on fiber-product coordinates (a, ahat, m2, mhat2, m3, mhat3);
    the middle chart carries the shifted coordinates and integer offsets
    m3 - m2 + m_ijk, mhat3 - mhat2 + mhat_ijk.
    """
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k) = rand_site(rng, c, 3)
        a, ahat = rand_ratvec(rng, c.n), rand_ratvec(rng, c.n)
        m2, mh2 = rand_intvec(rng, c.n, 3), rand_intvec(rng, c.n, 3)
        m3, mh3 = rand_intvec(rng, c.n, 3), rand_intvec(rng, c.n, 3)
        lhs = gerbe_right(c, p, (i, j, k), ahat) - gerbe_left(c, p, (i, j, k), a)
        a_mid = a + c.a[(p, i, j)] + RatVec.from_ints(m2)
        ahat_mid = ahat + c.ahat[(p, i, j)] + RatVec.from_ints(mh2)
        m_mid = tuple(x - y + z for x, y, z in zip(m3, m2, c.m[(i, j, k)]))
        mh_mid = tuple(x - y + z for x, y, z in zip(mh3, mh2, c.mhat[(i, j, k)]))
        rhs = (
            corr_cochain(c, p, (i, j), a, ahat, m2, mh2)
            + corr_cochain(c, p, (j, k), a_mid, ahat_mid, m_mid, mh_mid)
            - corr_cochain(c, p, (i, k), a, ahat, m3, mh3)
        )
        if lhs != rhs:
            return False
    return True


def reference_check_poincare(c: TDCocycle, samples: int = 20, seed: int = 0) -> bool:
    """Single-chart restriction: gerbe cocycles vanish and xi reduces to -m2 . ahat.

    Meaningful for index-normalized cocycles (vanishing repeated-index
    data), which the generator produces.
    """
    rng = XorShift64Star(seed)
    zero = RatVec.zero(c.n)
    for p in c.nerve.points:
        for i in c.nerve.cover[p]:
            if c.a[(p, i, i)] != zero or c.ahat[(p, i, i)] != zero:
                return False
            if not c.t[(p, i, i, i)].is_zero():
                return False
            if not gerbe_left(c, p, (i, i, i), rand_ratvec(rng, c.n)).is_zero():
                return False
            if not gerbe_right(c, p, (i, i, i), rand_ratvec(rng, c.n)).is_zero():
                return False
            for _ in range(samples):
                a, ahat = rand_ratvec(rng, c.n), rand_ratvec(rng, c.n)
                m2, mh2 = rand_intvec(rng, c.n, 3), rand_intvec(rng, c.n, 3)
                got = corr_cochain(c, p, (i, i), a, ahat, m2, mh2)
                if got != Phase(-ahat.dot(RatVec.from_ints(m2))):
                    return False
    return True


def reference_check_flip_identities(
    c: TDCocycle,
    samples: int = 50,
    seed: int = 0,
    transformed: TDCocycle | None = None,
) -> bool:
    """The leg-flip action swaps all data and shifts gerbe cocycles by a coboundary."""
    c2 = act(section(flip_element(c.n)), c) if transformed is None else transformed
    for key in c.a:
        if c2.a[key] != c.ahat[key] or c2.ahat[key] != c.a[key]:
            return False
    for key in c.m:
        if c2.m[key] != c.mhat[key] or c2.mhat[key] != c.m[key]:
            return False
    for (p, i, j, k), tv in c.t.items():
        expected = Phase(
            tv.frac
            - RatVec.from_ints(c.mhat[(i, j, k)]).dot(c.a[(p, i, k)])
            - c.ahat[(p, j, k)].dot(c.a[(p, i, j)])
        )
        if c2.t[(p, i, j, k)] != expected:
            return False
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k) = rand_site(rng, c, 3)
        x = rand_ratvec(rng, c.n)

        def cross(pair_i, pair_j):
            return c.a[(p, pair_i, pair_j)].dot(c.ahat[(p, pair_i, pair_j)])

        side = gerbe_right(c, p, (i, j, k), x) - cross(i, j) - cross(j, k) + cross(i, k)
        if gerbe_left(c2, p, (i, j, k), x) != side:
            return False
        if gerbe_right(c2, p, (i, j, k), x) != gerbe_left(c, p, (i, j, k), x):
            return False
    return True


def reference_check_gl_identities(
    c: TDCocycle, g: IntMat, samples: int = 50, seed: int = 0
) -> bool:
    """The GL(n,Z) action extends both legs: data maps by g and g^{-T}, t is fixed."""
    if g.rows != c.n or g.cols != c.n:
        raise ValueError("GL element has wrong size")
    ginv = unimodular_inverse(g)
    ginv_t = ginv.transpose()
    c2 = act(section(embed_gl(g)), c)
    for key, av in c.a.items():
        if c2.a[key] != g.mul_ratvec(av) or c2.ahat[key] != ginv_t.mul_ratvec(c.ahat[key]):
            return False
    for key, mv in c.m.items():
        if c2.m[key] != g.mul_vec(mv) or c2.mhat[key] != ginv_t.mul_vec(c.mhat[key]):
            return False
    if any(c2.t[key] != c.t[key] for key in c.t):
        return False
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k) = rand_site(rng, c, 3)
        a = rand_ratvec(rng, c.n)
        if gerbe_left(c2, p, (i, j, k), a) != gerbe_left(c, p, (i, j, k), ginv.mul_ratvec(a)):
            return False
        ahat = rand_ratvec(rng, c.n)
        if gerbe_right(c2, p, (i, j, k), ahat) != gerbe_right(
            c, p, (i, j, k), g.transpose().mul_ratvec(ahat)
        ):
            return False
    return True


def reference_check_rotation_identities(c: TDCocycle, samples: int = 50, seed: int = 0) -> bool:
    """The order-4 rotation at n=1 dualizes legs: data and gerbe identities."""
    if c.n != 1:
        raise ValueError("rotation identities are defined for n == 1 only")
    c2 = act(section(rotation_n1()), c)
    for key, av in c.a.items():
        if c2.a[key] != -c.ahat[key] or c2.ahat[key] != av:
            return False
    for key, mv in c.m.items():
        if c2.m[key] != tuple(-x for x in c.mhat[key]) or c2.mhat[key] != mv:
            return False
    for (p, i, j, k), tv in c.t.items():
        expected = Phase(
            -tv.frac
            + RatVec.from_ints(c.mhat[(i, j, k)]).dot(c.a[(p, i, k)])
            + c.ahat[(p, j, k)].dot(c.a[(p, i, j)])
        )
        if c2.t[(p, i, j, k)] != expected:
            return False
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k) = rand_site(rng, c, 3)
        x = rand_ratvec(rng, c.n)

        def cross(pi, pj):
            return c.a[(p, pi, pj)].dot(c.ahat[(p, pi, pj)])

        lhs = gerbe_left(c2, p, (i, j, k), x)
        rhs = -gerbe_right(c, p, (i, j, k), -x) + cross(i, j) + cross(j, k) - cross(i, k)
        if lhs != rhs:
            return False
        if gerbe_right(c2, p, (i, j, k), x) != -gerbe_left(c, p, (i, j, k), x):
            return False
    return True


def reference_check_so_shift_data(c: TDCocycle, b: IntMat) -> bool:
    """Transformed data: a and m fixed, ahat and mhat shifted by B, t corrected."""
    b_low = _check_so_skew(c, b)
    c2 = act(section(embed_so(b)), c)
    for key, av in c.a.items():
        if c2.a[key] != av or c2.ahat[key] != b.mul_ratvec(av) + c.ahat[key]:
            return False
    for key, mv in c.m.items():
        if c2.m[key] != mv or c2.mhat[key] != tuple(
            x + y for x, y in zip(b.mul_vec(mv), c.mhat[key])
        ):
            return False
    for (p, i, j, k), tv in c.t.items():
        m_ijk = RatVec.from_ints(c.m[(i, j, k)])
        expected = Phase(
            tv.frac
            - low_bracket(b_low, m_ijk, c.a[(p, i, k)])
            - low_bracket(b_low, c.a[(p, j, k)], c.a[(p, i, j)])
        )
        if c2.t[(p, i, j, k)] != expected:
            return False
    return True


def reference_check_so_shift_gerbes(
    c: TDCocycle, b: IntMat, samples: int = 50, seed: int = 0
) -> bool:
    """Left-leg three-term correction, and the right-leg discrepancy gamma:
    gerbe values against the closed form, and the closed form against its
    decomposition into a shifted coboundary of a_ij . v plus eps."""
    b_low = _check_so_skew(c, b)
    c2 = act(section(embed_so(b)), c)
    rng = XorShift64Star(seed)
    for _ in range(samples):
        p, (i, j, k) = rand_site(rng, c, 3)
        m_ijk = RatVec.from_ints(c.m[(i, j, k)])
        a = rand_ratvec(rng, c.n)
        lhs = gerbe_left(c2, p, (i, j, k), a)
        rhs = gerbe_left(c, p, (i, j, k), a) + Phase(
            low_bracket(b_low, m_ijk, c.a[(p, i, k)])
            + low_bracket(b_low, c.a[(p, i, j)], c.a[(p, j, k)])
            - a.dot(b.mul_ratvec(m_ijk))
        )
        if lhs != rhs:
            return False
        v = rand_ratvec(rng, c.n)
        gamma_gerbe = gerbe_right(c2, p, (i, j, k), v) - gerbe_right(
            c, p, (i, j, k), RatVec.zero(c.n)
        )
        gamma_closed = (
            low_bracket(b_low, c.a[(p, i, k)], m_ijk)
            + low_bracket(b_low, c.a[(p, j, k)], c.a[(p, i, j)])
            - v.dot(m_ijk)
        )
        if gamma_gerbe != Phase(gamma_closed):
            return False
        decomposition = (
            c.a[(p, i, j)].dot(v)
            + c.a[(p, j, k)].dot(v + b.mul_ratvec(c.a[(p, i, j)]))
            - c.a[(p, i, k)].dot(v)
            + reference_so_eps(c, b_low, p, i, j, k)
        )
        if gamma_closed != decomposition:
            return False
    return True


def reference_check_eps_cech(c: TDCocycle, b: IntMat) -> bool:
    """The earlier check_eps_cech: eps recomputed at each of the four faces."""
    b_low = _check_so_skew(c, b)
    for p in c.nerve.points:
        idx = c.nerve.cover[p]
        for i, j, k, l in product(idx, repeat=4):
            d = (
                reference_so_eps(c, b_low, p, j, k, l)
                - reference_so_eps(c, b_low, p, i, k, l)
                + reference_so_eps(c, b_low, p, i, j, l)
                - reference_so_eps(c, b_low, p, i, j, k)
            )
            if d != 0:
                return False
    return True


# -- per-site references for the column-form tdcorr kernels ------------------
# The earlier bodies of tdcorr's identity kernels: one loop per site with
# per-entry dot products, yielding (point, indices, term) in site order.


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def reference_gerbe_cocycle_failures(c: TDCocycle):
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


def reference_swap_failures(c: TDCocycle, c2: TDCocycle, s: int):
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


def reference_gl_failures(c: TDCocycle, c2: TDCocycle, g: IntMat, gi_t: IntMat):
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


def reference_so_data_failures(c: TDCocycle, c2: TDCocycle, b: IntMat, b_low: IntMat):
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


def reference_so_gerbe_failures(c: TDCocycle, c2: TDCocycle, b: IntMat, b_low: IntMat):
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


def reference_ci_axiom_failures(ci, samples: int = 20, seed: int = 0) -> list[str]:
    """The earlier ci_axiom_failures: all four axioms at seeded sample points."""
    if isinstance(ci, Obj):
        ci = ci_from_obj(ci)
    dim = ci.dim
    failures: list[str] = []
    rng = XorShift64Star(seed)
    for trial in range(samples):
        mints = tuple(rng.int_in(-5, 5) for _ in range(dim))
        mvec = RatVec.from_ints(mints)
        m2 = _rand_lattice(rng, dim)
        h = TDHElement(mints, Phase(rng.fraction()))
        # CI1: phi(t(h)) == t(f(h))
        if ci.phi(TDGroupElement(mvec)).a != RatVec.from_ints(ci.f(h).m):
            failures.append(f"CI1 at trial {trial}")
        # CI2: eta vanishes on lattice pairs
        if not ci.eta(TDGroupElement(mvec), TDGroupElement(m2)).is_zero():
            failures.append(f"CI2 at trial {trial}")
        # CI3: eta(a, m-a) + f(alpha(a,h)).s == eta(m-a, a) + alpha(phi(a), f(h)).s
        a = TDGroupElement(_rand_rational(rng, dim))
        ma = TDGroupElement(mvec - a.a)
        lhs = ci.eta(a, ma) + ci.f(td_alpha(a, h)).s
        rhs = ci.eta(ma, a) + td_alpha(ci.phi(a), ci.f(h)).s
        if lhs != rhs:
            failures.append(f"CI3 at trial {trial}")
        # CI4: eta(a,b) + eta(a+b,c) == eta(b,c) + eta(a,b+c)
        b = TDGroupElement(_rand_rational(rng, dim))
        c = TDGroupElement(_rand_rational(rng, dim))
        ab = TDGroupElement(a.a + b.a)
        bc = TDGroupElement(b.a + c.a)
        if ci.eta(a, b) + ci.eta(ab, c) != ci.eta(b, c) + ci.eta(a, bc):
            failures.append(f"CI4 at trial {trial}")
    return failures


def reference_ct_axiom_failures(m, samples: int = 20, seed: int = 0, beta=None) -> list[str]:
    """The earlier ct_axiom_failures: both axioms at seeded sample points."""
    if isinstance(m, Mor):
        x_src, x_dst, dim = m.src.x, m.dst.x, 2 * m.n
        beta_fn = beta or (lambda v: eval_mor(m, v))
    else:
        x_src, x_dst, dim = m
        if beta is None:
            raise ValueError("raw triple requires an explicit beta evaluator")
        beta_fn = beta
    failures: list[str] = []
    rng = XorShift64Star(seed)
    for trial in range(samples):
        # CT1: beta vanishes on t(H) = Z^{2n}
        mvec = _rand_lattice(rng, dim)
        if not beta_fn(mvec).is_zero():
            failures.append(f"CT1 at trial {trial}")
        # CT2: beta(a1) + beta(a2) + eta(a1,a2) == eta'(a1,a2) + beta(a1+a2)
        a1 = _rand_rational(rng, dim)
        a2 = _rand_rational(rng, dim)
        lhs = beta_fn(a1) + beta_fn(a2) + phase_bilinear(x_src, a1, a2)
        rhs = phase_bilinear(x_dst, a1, a2) + beta_fn(a1 + a2)
        if lhs != rhs:
            failures.append(f"CT2 at trial {trial}")
    return failures


@pytest.fixture
def rng():
    return XorShift64Star(0xC0FFEE)
