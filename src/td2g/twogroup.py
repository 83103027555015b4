"""The strict 2-group of bilinear-phase automorphism data over O+-(n,n,Z).

An object is a pair (A, X): a group element A together with an integer
matrix X encoding the bilinear phase eta(a, a') = a^T X a' mod 1.  The
object axioms reduce to the single matrix identity

    X - X^T == B_A := iso(A) * J - A^T J A,

since integer bilinear forms vanish on lattice pairs and biadditivity is
automatic.  A morphism (A, X) -> (A, X') is a quadratic phase

    beta(x) = 1/2 x^T H x - 1/2 H^diag . x + lin . x   mod 1

with H := X - X' symmetric and lin an integer character.  This
representation is complete on the bilinear skeleton: the defect
beta(x+y) - beta(x) - beta(y) of any morphism is forced to be
x^T (X - X') y, the quadratic phase of H = X - X' realizes exactly that
defect while vanishing on Z^{2n}, and the leftover is a character that
vanishes on the lattice, i.e. an integer vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .intlinalg import (
    IntMat,
    Phase,
    RatVec,
    Record,
    common_denominator,
    diag_vec,
    phase_bilinear,
    # Unused here since b_split cuts B_A itself; the binding stays because
    # bench/tests/test_bench.py checks that the tracer rebinds it.
    strict_lower_split,  # noqa: F401
)
from .groups import PseudoOrthogonal, _rows

__all__ = [
    "b_matrix",
    "b_split",
    "Obj",
    "Mor",
    "obj_product",
    "obj_inverse",
    "obj_unit",
    "section",
    "beta_multiplicator",
    "mor_identity",
    "mor_inverse",
    "mor_vcompose",
    "mor_hcompose",
    "correction_bracket",
    "eval_mor",
    "quadratic_phase",
    "automorphism_to_int",
    "automorphism_from_int",
]


def b_matrix(a: PseudoOrthogonal) -> IntMat:
    """B_A = iso(A) J - A^T J A; skew-symmetric for every group element.

    J A is n zero rows over the upper half of A's rows, so
    A^T J A = (lower half)^T (upper half), a product of half the depth:
    entry (s, t) sums A_{n+i,s} A_{i,t} over i.  It is formed sparsely,
    from the nonzero entries of each pair of rows (i, n + i) kept on the
    element (`groups._rows`), as one outer product per pair, negated.
    J's n entries, (n + i, i), then get iso(A) added.
    """
    n = a.n
    rows = _rows(a)
    b = [[0] * (2 * n) for _ in range(2 * n)]
    for upper, lower in zip(rows[:n], rows[n:]):
        for s, x in lower:
            acc = b[s]
            for t, y in upper:
                acc[t] -= x * y
    iso = a.iso
    for i in range(n):
        b[n + i][i] += iso
    return IntMat._new(tuple(map(tuple, b)))


def b_split(a: PseudoOrthogonal) -> tuple[IntMat, IntMat]:
    """(B_A, (B_A)_low), computed on first use and kept on the element.

    B_A is skew for every member, so (B_A)_low is cut from B_A's rows at
    the diagonal, without `strict_lower_split`'s skew test.  The nonzero
    entries of (B_A)_low are kept with them (`_lower_terms`).  B_A comes
    from the module's `b_matrix`, looked up at call time.
    """
    return _split(a)[:2]


def _lower_terms(a: PseudoOrthogonal) -> tuple[tuple[int, int, int], ...]:
    """The nonzero entries (r, c, v), c < r, of (B_A)_low in row order; kept with `b_split`."""
    return _split(a)[2]


def _split(a: PseudoOrthogonal) -> tuple[IntMat, IntMat, tuple[tuple[int, int, int], ...]]:
    """(B_A, (B_A)_low, its nonzero entries), as kept on the element."""
    split = a._b_split
    if split is None:
        b = b_matrix(a)
        zeros = (0,) * b.cols
        low, terms = [], []
        for r, row in enumerate(b.data):
            head = row[:r]
            low.append(head + zeros[r:])
            if any(head):
                terms += [(r, c, v) for c, v in enumerate(head) if v]
        split = (b, IntMat._new(tuple(low)), tuple(terms))
        object.__setattr__(a, "_b_split", split)
    return split


class Obj(Record):
    """Object (A, X) with X - X^T == B_A; the constructor checks it, `_new` trusts it."""

    __slots__ = ("g", "x")
    g: PseudoOrthogonal
    x: IntMat

    def _check(self):
        g, x = self.g, self.x
        if x.rows != 2 * g.n or x.cols != 2 * g.n:
            raise ValueError("phase matrix has wrong shape")
        if x - x.transpose() != b_split(g)[0]:
            raise ValueError("phase matrix violates X - X^T == B_A")

    @property
    def n(self) -> int:
        return self.g.n

    def eta(self, a: RatVec, b: RatVec) -> Phase:
        return phase_bilinear(self.x, a, b)


def obj_unit(n: int) -> Obj:
    """(1, 0); an object since B_1 = J - J = 0."""
    return Obj._new(PseudoOrthogonal.identity(n), IntMat.zeros(2 * n))


def obj_product(o1: Obj, o2: Obj) -> Obj:
    """(A1 A2, A2^T X1 A2 + iso(A1) X2); X - X^T = A2^T B_{A1} A2 + iso(A1) B_{A2} = B_{A1 A2}."""
    if o1.n != o2.n:
        raise ValueError("rank mismatch")
    a2 = o2.g.mat
    x = a2.transpose() * o1.x * a2 + o2.x.scale(o1.g.iso)
    return Obj._new(o1.g * o2.g, x)


def obj_inverse(o: Obj) -> Obj:
    """(A^{-1}, -iso(A) A^{-T} X A^{-1}); an object, as B_{A^{-1}} = -iso(A) A^{-T} B_A A^{-1}."""
    ginv = o.g.inverse()
    m = ginv.mat
    x = (m.transpose() * o.x * m).scale(-o.g.iso)
    return Obj._new(ginv, x)


def section(a: PseudoOrthogonal) -> Obj:
    """Canonical section A |-> (A, L), L = (B_A)_low; an object, as B_A is skew: L - L^T = B_A."""
    return Obj._new(a, b_split(a)[1])


class Mor(Record):
    """Morphism (H, lin): src -> dst between objects sharing the same group element.

    H is determined by the endpoints (H = src.x - dst.x) and must be
    symmetric; lin is an integer character.  The encoded map is
    beta(x) = 1/2 x^T H x - 1/2 H^diag . x + lin . x mod 1, which vanishes
    on the integer lattice.  `_new` trusts that src and dst share A, as every
    internal result's do; then H is symmetric, as X - X^T == B_A == X' - X'^T.
    """

    __slots__ = ("src", "dst", "h", "lin")
    src: Obj
    dst: Obj
    h: IntMat
    lin: tuple[int, ...]

    def __init__(self, src: Obj, dst: Obj, lin: Sequence[int] | None = None):
        if src.g != dst.g:
            raise ValueError("morphisms exist only between objects with equal group element")
        h = src.x - dst.x
        if h != h.transpose():
            raise ValueError("endpoint difference X_src - X_dst is not symmetric")
        dim = 2 * src.n
        if lin is None:
            lin = (0,) * dim
        if any(isinstance(v, bool) or not isinstance(v, int) for v in lin):
            raise ValueError("character entries must be integers")
        lin = tuple(lin)
        if len(lin) != dim:
            raise ValueError("character has wrong length")
        self._write((src, dst, h, lin))

    @classmethod
    def _new(cls, src: Obj, dst: Obj, lin: tuple[int, ...]) -> Mor:
        return super()._new(src, dst, src.x - dst.x, lin)

    @property
    def n(self) -> int:
        return self.src.n


def beta_multiplicator(a: PseudoOrthogonal, b: PseudoOrthogonal) -> Mor:
    """The canonical morphism section(a)*section(b) -> section(a*b), with H = H_{A,B}."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    src = obj_product(section(a), section(b))
    dst = section(a * b)
    return Mor._new(src, dst, (0,) * (2 * a.n))


def mor_identity(o: Obj) -> Mor:
    return Mor._new(o, o, (0,) * (2 * o.n))


def mor_inverse(m: Mor) -> Mor:
    """Vertical inverse: (-H, -lin) from dst back to src."""
    return Mor._new(m.dst, m.src, tuple(-v for v in m.lin))


def mor_vcompose(m1: Mor, m2: Mor) -> Mor:
    """Pointwise addition; defined when m1.dst == m2.src."""
    if m1.dst != m2.src:
        raise ValueError("endpoint mismatch in vertical composition")
    return Mor._new(m1.src, m2.dst, tuple([x + y for x, y in zip(m1.lin, m2.lin)]))


def mor_hcompose(m1: Mor, m2: Mor) -> Mor:
    """Product of morphisms: (beta1 . beta2)(a) = beta1(A2 a) + iso(A1) beta2(a).

    The result has H = A2^T H1 A2 + iso(A1) H2 and character
    A2^T lin1 + iso(A1) lin2 + c with the half-integer correction
    c = 1/2 [(A2^T H1 A2)^diag - A2^T H1^diag].  Integrality of c is a
    theorem (x^2 - x is even); a failure is an internal error, not input
    error.
    """
    if m1.n != m2.n:
        raise ValueError("rank mismatch in horizontal composition")
    a2 = m2.src.g.mat
    iso1 = m1.src.g.iso
    twice_c = correction_bracket(m1.h, a2)
    if any(v % 2 for v in twice_c):
        raise ArithmeticError(
            "horizontal composition produced a non-integral character correction"
        )
    lin1_pulled = a2.transpose().mul_vec(m1.lin)
    lin = tuple(
        p + iso1 * q + c // 2 for p, q, c in zip(lin1_pulled, m2.lin, twice_c)
    )
    return Mor._new(obj_product(m1.src, m2.src), obj_product(m1.dst, m2.dst), lin)


def correction_bracket(h: IntMat, a: IntMat) -> list[int]:
    """(A^T H A)^diag - A^T H^diag: twice `mor_hcompose`'s correction; even for symmetric H.

    Entry t is c^T H c - sum_i H_ii c_i over column c of A, and
    c^T H c = sum_i H_ii c_i^2 + 2 sum_{i<j} H_ij c_i c_j for symmetric
    H, so the entry is even, as c_i^2 - c_i is.  It is summed sparsely:
    H_ij A_it A_jt over the nonzero entries H_ij of H, both triangles, and
    the nonzero entries A_it of row i of A, then H_ii A_it subtracted.
    No matrix product is formed.
    """
    rows = a.data
    out = [0] * a.cols
    for i, h_row in enumerate(h.data):
        if not any(h_row):
            continue
        a_nz = list(compress(enumerate(rows[i]), rows[i]))
        for j, v in compress(enumerate(h_row), h_row):
            a_j = rows[j]
            for t, x in a_nz:
                out[t] += v * x * a_j[t]
        d = h_row[i]
        if d:
            for t, x in a_nz:
                out[t] -= d * x
    return out


def quadratic_phase(h: IntMat, lin: Sequence[int | Fraction], x: RatVec) -> Phase:
    """Evaluate 1/2 x^T h x - 1/2 h^diag . x + lin . x mod 1, exactly.

    `lin` may carry rational entries; that generality exists for negative
    controls in tests, ordinary morphisms always carry integer characters.
    """
    if x.dim != h.rows:
        raise ValueError("dimension mismatch")
    # over x = nx / d and lin = nl / e, the value is
    # (e nx^T h nx - d e h^diag . nx + 2 d nl . nx) / (2 d^2 e)
    d, (nx,) = common_denominator((x.entries,))
    e, (nl,) = common_denominator((lin,))
    num = e * (sum(map(mul, nx, h.mul_vec(nx))) - d * sum(map(mul, diag_vec(h), nx)))
    num += 2 * d * sum(map(mul, nl, nx))
    den = 2 * d * d * e
    return Phase._new(Fraction(num % den, den))


def eval_mor(m: Mor, x: RatVec) -> Phase:
    """The value beta(x) of a morphism at a rational point."""
    return quadratic_phase(m.h, m.lin, x)


def automorphism_to_int(m: Mor) -> tuple[int, ...]:
    """Identify an automorphism (src == dst, hence H == 0) with its character."""
    if m.src != m.dst:
        raise ValueError("not an automorphism: endpoints differ")
    return m.lin


def automorphism_from_int(o: Obj, v: Sequence[int]) -> Mor:
    return Mor(o, o, tuple(v))
