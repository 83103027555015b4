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
from typing import Sequence

from .intlinalg import IntMat, Phase, RatVec, diag_vec, phase_bilinear, strict_lower_split
from .groups import PseudoOrthogonal, j_matrix

__all__ = [
    "b_matrix",
    "b_split",
    "Obj",
    "Mor",
    "obj_product",
    "obj_inverse",
    "obj_unit",
    "section",
    "x_matrix",
    "h_matrix",
    "beta_multiplicator",
    "mor_identity",
    "mor_inverse",
    "mor_vcompose",
    "mor_hcompose",
    "eval_mor",
    "quadratic_phase",
    "automorphism_to_int",
    "automorphism_from_int",
]


def b_matrix(a: PseudoOrthogonal) -> IntMat:
    """B_A = iso(A) J - A^T J A; skew-symmetric for every group element."""
    j = j_matrix(a.n)
    return j.scale(a.iso) - a.mat.transpose() * j * a.mat


def b_split(a: PseudoOrthogonal) -> tuple[IntMat, IntMat]:
    """(B_A, (B_A)_low), computed on first use and kept on the element."""
    split = a._b_split
    if split is None:
        b = b_matrix(a)
        split = (b, strict_lower_split(b))
        object.__setattr__(a, "_b_split", split)
    return split


class Obj:
    """Object (A, X) with bilinear phase matrix X satisfying X - X^T == B_A."""

    __slots__ = ("g", "x")

    def __init__(self, g: PseudoOrthogonal, x: IntMat):
        if x.rows != 2 * g.n or x.cols != 2 * g.n:
            raise ValueError("phase matrix has wrong shape")
        if x - x.transpose() != b_split(g)[0]:
            raise ValueError("phase matrix violates X - X^T == B_A")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "x", x)

    def __setattr__(self, name, value):
        raise AttributeError("Obj is immutable")

    @property
    def n(self) -> int:
        return self.g.n

    def eta(self, a: RatVec, b: RatVec) -> Phase:
        return phase_bilinear(self.x, a, b)

    def __eq__(self, other) -> bool:
        return isinstance(other, Obj) and self.g == other.g and self.x == other.x

    def __hash__(self) -> int:
        return hash((self.g, self.x))

    def __repr__(self) -> str:
        return f"Obj({self.g!r}, x={self.x!r})"


def obj_unit(n: int) -> Obj:
    return Obj(PseudoOrthogonal.identity(n), IntMat.zeros(2 * n))


def obj_product(o1: Obj, o2: Obj) -> Obj:
    """(A1 A2, A2^T X1 A2 + iso(A1) X2)."""
    if o1.n != o2.n:
        raise ValueError("rank mismatch")
    a2 = o2.g.mat
    x = a2.transpose() * o1.x * a2 + o2.x.scale(o1.g.iso)
    return Obj(o1.g * o2.g, x)


def obj_inverse(o: Obj) -> Obj:
    """(A^{-1}, -iso(A) A^{-T} X A^{-1})."""
    ginv = o.g.inverse()
    m = ginv.mat
    x = (m.transpose() * o.x * m).scale(-o.g.iso)
    return Obj(ginv, x)


def section(a: PseudoOrthogonal) -> Obj:
    """The canonical section A |-> (A, (B_A)_low) of the projection to O+-(n,n,Z)."""
    return Obj(a, b_split(a)[1])


def x_matrix(a: PseudoOrthogonal, b: PseudoOrthogonal) -> IntMat:
    """Phase matrix of section(a) * section(b): B^T (B_A)_low B + iso(A) (B_B)_low."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    bm = b.mat
    return bm.transpose() * b_split(a)[1] * bm + b_split(b)[1].scale(a.iso)


def h_matrix(a: PseudoOrthogonal, b: PseudoOrthogonal) -> IntMat:
    """H_{A,B} = X_{A,B} - (B_{AB})_low; symmetric by construction."""
    return x_matrix(a, b) - b_split(a * b)[1]


class Mor:
    """Morphism (H, lin): src -> dst between objects sharing the same group element.

    H is determined by the endpoints (H = src.x - dst.x) and must be
    symmetric; lin is an integer character.  The encoded map is
    beta(x) = 1/2 x^T H x - 1/2 H^diag . x + lin . x mod 1, which vanishes
    on the integer lattice.
    """

    __slots__ = ("src", "dst", "h", "lin")

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
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lin", lin)

    def __setattr__(self, name, value):
        raise AttributeError("Mor is immutable")

    @property
    def n(self) -> int:
        return self.src.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mor)
            and self.src == other.src
            and self.dst == other.dst
            and self.lin == other.lin
        )

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.lin))

    def __repr__(self) -> str:
        return f"Mor(h={self.h!r}, lin={self.lin})"


def beta_multiplicator(a: PseudoOrthogonal, b: PseudoOrthogonal) -> Mor:
    """The canonical morphism section(a)*section(b) -> section(a*b), with H = H_{A,B}."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    src = obj_product(section(a), section(b))
    dst = section(a * b)
    return Mor(src, dst)


def mor_identity(o: Obj) -> Mor:
    return Mor(o, o)


def mor_inverse(m: Mor) -> Mor:
    """Vertical inverse: (-H, -lin) from dst back to src."""
    return Mor(m.dst, m.src, tuple(-v for v in m.lin))


def mor_vcompose(m1: Mor, m2: Mor) -> Mor:
    """Pointwise addition; defined when m1.dst == m2.src."""
    if m1.dst != m2.src:
        raise ValueError("endpoint mismatch in vertical composition")
    return Mor(m1.src, m2.dst, tuple(x + y for x, y in zip(m1.lin, m2.lin)))


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
    conj = a2.transpose() * m1.h * a2
    twice_c = [
        d - t
        for d, t in zip(diag_vec(conj), a2.transpose().mul_vec(diag_vec(m1.h)))
    ]
    if any(v % 2 for v in twice_c):
        raise ArithmeticError(
            "horizontal composition produced a non-integral character correction"
        )
    lin1_pulled = a2.transpose().mul_vec(m1.lin)
    lin = tuple(
        p + iso1 * q + c // 2 for p, q, c in zip(lin1_pulled, m2.lin, twice_c)
    )
    return Mor(obj_product(m1.src, m2.src), obj_product(m1.dst, m2.dst), lin)


def quadratic_phase(h: IntMat, lin: Sequence[int | Fraction], x: RatVec) -> Phase:
    """Evaluate 1/2 x^T h x - 1/2 h^diag . x + lin . x mod 1, exactly.

    `lin` may carry rational entries; that generality exists for negative
    controls in tests, ordinary morphisms always carry integer characters.
    """
    if x.dim != h.rows:
        raise ValueError("dimension mismatch")
    half = Fraction(1, 2)
    quad = Fraction(0)
    for xi, row in zip(x.entries, h.data):
        if xi == 0:
            continue
        quad += xi * sum((c * xj for c, xj in zip(row, x.entries)), Fraction(0))
    linear = sum(
        ((Fraction(l) - half * d) * xi for l, d, xi in zip(lin, diag_vec(h), x.entries)),
        Fraction(0),
    )
    return Phase(half * quad + linear)


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
