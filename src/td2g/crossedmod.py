"""The T-duality crossed module and the intertwiner view of 2-group data.

The crossed module has G = R^{2n} (evaluated at rational points),
H = Z^{2n} x U(1), t(m, s) = m, and action

    alpha(a, (m, s)) = (m, s - [a, m]),    [a, b] = a^T J b.

An object (A, X) acts as the crossed intertwiner (phi, f, eta) with
phi(a) = A a, f(m, s) = (A m, iso(A) s), eta(a, a') = a^T X a' mod 1.
A morphism acts as a crossed transformation.  The checkers decide the
axioms exactly from integer coefficients, with no sample points.  CI1
(A m = A m), CI2 (m^T X m' is an integer) and CI4 (eta is bilinear) hold
for every integer (A, X); CI3 reduces to a^T M m mod 1 with
M = X - X^T - eps J + A^T J A, so it holds exactly when M == 0.  For a
morphism's quadratic phase with K = H + H^T, CT1 holds exactly when the
character is integral and K is even off the diagonal, and CT2 exactly
when K == 2 (X_src - X_dst).  The derivations are in `ci_axiom_failures`
and `ct_axiom_failures`.
"""

from __future__ import annotations

from typing import Callable

from .groups import j_matrix
from .intlinalg import IntMat, Phase, RatVec, Record, phase_bilinear
from .rng import XorShift64Star
from .twogroup import Mor, Obj

__all__ = [
    "TDGroupElement",
    "TDHElement",
    "TDMorphism",
    "pairing",
    "td_alpha",
    "td_h_mul",
    "td_source",
    "td_target",
    "td_compose",
    "CrossedIntertwiner",
    "ci_from_obj",
    "check_ci_axioms",
    "ci_axiom_failures",
    "check_ct_axioms",
    "ct_axiom_failures",
    "functor_eval",
]


class TDGroupElement(Record):
    """A point of the base group R^{2n}, restricted to rational coordinates."""

    __slots__ = ("a",)
    a: RatVec


class TDHElement(Record):
    """An element (m, s) of Z^{2n} x U(1)."""

    __slots__ = ("m", "s")
    m: tuple[int, ...]
    s: Phase


class TDMorphism(Record):
    """Groupoid morphism (h, g): g -> t(h) + g."""

    __slots__ = ("h", "g")
    h: TDHElement
    g: TDGroupElement


def pairing(n: int, a: RatVec, b: RatVec) -> Phase:
    """[a, b] = a^T J b mod 1."""
    return phase_bilinear(j_matrix(n), a, b)


def td_alpha(a: TDGroupElement, h: TDHElement) -> TDHElement:
    """alpha(a, (m, s)) = (m, s - [a, m])."""
    n2 = a.a.dim
    if len(h.m) != n2:
        raise ValueError("dimension mismatch")
    shift = pairing(n2 // 2, a.a, RatVec.from_ints(h.m))
    return TDHElement(h.m, h.s - shift)


def td_h_mul(h1: TDHElement, h2: TDHElement) -> TDHElement:
    return TDHElement(tuple(x + y for x, y in zip(h1.m, h2.m)), h1.s + h2.s)


def td_source(mor: TDMorphism) -> TDGroupElement:
    return mor.g


def td_target(mor: TDMorphism) -> TDGroupElement:
    return TDGroupElement(mor.g.a + RatVec.from_ints(mor.h.m))


def td_compose(m2: TDMorphism, m1: TDMorphism) -> TDMorphism:
    """(h2, g2) o (h1, g1) = (h2 h1, g1), defined when g2 == t(h1) + g1."""
    if m2.g != td_target(m1):
        raise ValueError("morphisms are not composable")
    return TDMorphism(td_h_mul(m2.h, m1.h), m1.g)


class CrossedIntertwiner(Record):
    """Evaluator triple (phi, f, eta) over the T-duality crossed module.

    Built from a matrix A with sign epsilon and a bilinear phase matrix X.
    The shapes and the sign are checked here, once; the axioms are not
    assumed, so corrupted data can be probed by the axiom checkers.
    """

    __slots__ = ("amat", "eps", "xmat")
    amat: IntMat
    eps: int
    xmat: IntMat

    def _check(self):
        amat, eps, xmat = self.amat, self.eps, self.xmat
        dim = amat.rows
        if amat.cols != dim or xmat.rows != xmat.cols:
            raise ValueError("intertwiner matrices must be square")
        if xmat.rows != dim:
            raise ValueError("intertwiner matrices have different shapes")
        if dim % 2:
            raise ValueError("intertwiner dimension must be even")
        if type(eps) is not int or eps not in (1, -1):
            raise ValueError("intertwiner sign must be 1 or -1")

    @property
    def dim(self) -> int:
        return self.amat.rows

    def phi(self, g: TDGroupElement) -> TDGroupElement:
        return TDGroupElement(self.amat.mul_ratvec(g.a))

    def f(self, h: TDHElement) -> TDHElement:
        return TDHElement(self.amat.mul_vec(h.m), h.s.scale(self.eps))

    def eta(self, a: TDGroupElement, b: TDGroupElement) -> Phase:
        return phase_bilinear(self.xmat, a.a, b.a)


def ci_from_obj(o: Obj) -> CrossedIntertwiner:
    return CrossedIntertwiner(o.g.mat, o.g.iso, o.x)


def _rand_lattice(rng: XorShift64Star, dim: int) -> RatVec:
    return RatVec.from_ints([rng.int_in(-5, 5) for _ in range(dim)])


def _rand_rational(rng: XorShift64Star, dim: int) -> RatVec:
    return RatVec([rng.fraction(6, 7) for _ in range(dim)])


def _nonzero_sites(m: IntMat) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(m.data) for j, v in enumerate(row) if v]


def ci_axiom_failures(ci: CrossedIntertwiner | Obj) -> list[str]:
    """Decide the four crossed-intertwiner axioms exactly from (A, eps, X).

    For integer A and X, with a, b, c rational and m, m' integer:

    - CI1, phi(t(h)) == t(f(h)): both sides are A m.
    - CI2, eta(m, m') == 0: m^T X m' is an integer.
    - CI4, eta(a, b) + eta(a + b, c) == eta(b, c) + eta(a, b + c): both
      sides are a^T X b + a^T X c + b^T X c, by bilinearity.
    - CI3, eta(a, m - a) + f(alpha(a, h)).s == eta(m - a, a)
      + alpha(phi(a), f(h)).s: the a^T X a terms cancel, the eps s terms
      cancel, and lhs - rhs = a^T M m mod 1 with
      M = X - X^T - eps J + A^T J A.  This vanishes for every rational a
      and integer m exactly when M == 0 (take a = e_i / k, m = e_j).

    So the first three hold by construction and CI3 is the matrix
    identity M == 0.  M is built from the intertwiner's own `amat`,
    `eps` and `xmat`, not from the cached B_A nor from `Obj`'s check, so
    a corrupted sign or phase matrix is caught.  Each nonzero entry is
    reported as "CI3 at (i, j)".
    """
    if isinstance(ci, Obj):
        ci = ci_from_obj(ci)
    a, x = ci.amat, ci.xmat
    j = j_matrix(ci.dim // 2)
    m = x - x.transpose() - j.scale(ci.eps) + a.transpose() * j * a
    return [f"CI3 at ({i}, {k})" for i, k in _nonzero_sites(m)]


def check_ci_axioms(ci: CrossedIntertwiner | Obj, samples: int = 20, seed: int = 0) -> bool:
    """Whether `ci_axiom_failures` finds none; `samples` and `seed`, which
    frozen acceptance tests pass, are ignored."""
    return not ci_axiom_failures(ci)


def _mor_ct_failures(m: Mor) -> list[str]:
    h, lin = m.h, m.lin
    k = h + h.transpose()
    failures = [f"CT1 at ({i}, {i})" for i, v in enumerate(lin) if v % 1]
    failures += [f"CT1 at ({i}, {j})" for i, j in _nonzero_sites(k) if i < j and k[i, j] % 2]
    d = (m.src.x - m.dst.x).scale(2)
    failures += [f"CT2 at ({i}, {j})" for i, j in _nonzero_sites(k - d)]
    return failures


def ct_axiom_failures(
    m: Mor | tuple,
    samples: int = 20,
    seed: int = 0,
    beta: Callable[[RatVec], Phase] | None = None,
) -> list[str]:
    """Check the two crossed-transformation axioms.

    A morphism without an explicit `beta` is decided exactly from its
    quadratic phase beta(x) = 1/2 x^T H x - 1/2 H^diag . x + lin . x.  H
    is read from the morphism's `h` slot and is not assumed symmetric;
    with K = H + H^T:

    - CT1, beta == 0 on Z^{2n}: beta(e_i) = lin_i and, for i != j,
      beta(e_i + e_j) = K_ij / 2 + lin_i + lin_j.  Conversely
      beta(m) = sum_i H_ii (m_i^2 - m_i) / 2 + sum_{i<j} K_ij m_i m_j / 2
      + lin . m.  So CT1 holds exactly when every lin_i is an integer
      ("CT1 at (i, i)" otherwise) and every K_ij with i < j is even
      ("CT1 at (i, j)" otherwise).
    - CT2, beta(a1) + beta(a2) + eta_src(a1, a2) == eta_dst(a1, a2)
      + beta(a1 + a2): the linear terms cancel and
      beta(a1 + a2) - beta(a1) - beta(a2) = a1^T (K / 2) a2, so CT2 holds
      for all rational a1, a2 exactly when K == 2 (X_src - X_dst)
      ("CT2 at (i, j)" for each differing entry).

    `samples` and `seed` are ignored on that path.  An explicit `beta`
    (with a morphism, or with a raw triple (x_src, x_dst, dim)) is an
    opaque callable, so it is still checked at `samples` seeded points:
    lattice points for CT1 and rational pairs for CT2.  That path serves
    only negative controls.
    """
    if isinstance(m, Mor):
        if beta is None:
            return _mor_ct_failures(m)
        x_src, x_dst, dim = m.src.x, m.dst.x, 2 * m.n
    else:
        x_src, x_dst, dim = m
        if beta is None:
            raise ValueError("raw triple requires an explicit beta evaluator")
    failures: list[str] = []
    rng = XorShift64Star(seed)
    for trial in range(samples):
        # CT1: beta vanishes on t(H) = Z^{2n}
        mvec = _rand_lattice(rng, dim)
        if not beta(mvec).is_zero():
            failures.append(f"CT1 at trial {trial}")
        # CT2: beta(a1) + beta(a2) + eta(a1,a2) == eta'(a1,a2) + beta(a1+a2)
        a1 = _rand_rational(rng, dim)
        a2 = _rand_rational(rng, dim)
        lhs = beta(a1) + beta(a2) + phase_bilinear(x_src, a1, a2)
        rhs = phase_bilinear(x_dst, a1, a2) + beta(a1 + a2)
        if lhs != rhs:
            failures.append(f"CT2 at trial {trial}")
    return failures


def check_ct_axioms(
    m: Mor | tuple,
    samples: int = 20,
    seed: int = 0,
    beta: Callable[[RatVec], Phase] | None = None,
) -> bool:
    return not ct_axiom_failures(m, samples, seed, beta)


def functor_eval(o: Obj, mor: TDMorphism) -> TDMorphism:
    """The induced functor on the groupoid: (h, g) |-> (eta(t(h), g)^{-1} f(h), phi(g))."""
    ci = ci_from_obj(o)
    if len(mor.h.m) != ci.dim or mor.g.a.dim != ci.dim:
        raise ValueError("dimension mismatch")
    corr = ci.eta(TDGroupElement(RatVec.from_ints(mor.h.m)), mor.g)
    fh = ci.f(mor.h)
    return TDMorphism(TDHElement(fh.m, fh.s - corr), ci.phi(mor.g))
