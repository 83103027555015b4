"""The classifying 3-cocycle of the extension 1 -> Z^{2n} -> A -> O+-(n,n,Z) -> 1.

Two independent evaluation paths are provided.  `k_eval` follows the
associator defect of the canonical section through the quadratic
multiplicator phases:

    xi(x) = beta_{A,BC}(y) + iso(A) beta_{B,C}(y)
            - beta_{A,B}(C y) - beta_{AB,C}(y),      y = (ABC)^{-1} x,

which is a character xi(x) = m . x.  `k_cocycle` computes the integer
vector m in closed form from form diagonals.  Write
F(Q, P) = (P^T (B_Q)_low P)^diag; then

    m = 1/2 (ABC)^{-T} (w1 + w2 - iso(A) w3 - w4),
    w1 = C^T F(A, B),   w2 = F(AB, C),   w3 = F(B, C),   w4 = F(A, BC),

and shares no intermediate formula with `k_eval`.  The half-integer
prefactor divides evenly; this is asserted.  The coboundary of the
2-cochain gamma_{A,B} = -(AB)^{-T} F(A, B) equals 2m under the twisted
action (A, v) |-> I A I v, which exhibits the class as 2-torsion and
yields the mod-2 double cover group law.

Every form above pairs two consecutive pieces of one word: Q and P are
products a_i...a_{j-1} and a_j...a_{l-1}.  A private product chain over
the word builds each such product once, left to right, so the lower
split cached on a product serves every term that uses it, and memoises
each diagonal F by its (i, j, l).  A diagonal costs one product: its
entries are the column dots of P with (B_Q)_low P.  `k_cocycle` and
`gamma` read one 3- or 2-chain; `check_cocycle_identity` reads its five
m terms (10 distinct diagonals) from one 4-chain and
`check_two_torsion` its four gamma terms from one 3-chain, while its
right side 2m stays a separate `k_cocycle` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from .groups import (
    PseudoOrthogonal,
    embed_gl,
    embed_so,
    flip_element,
    gl_generators,
    perm_v,
    random_word,
    so_basis,
)
# Unused here since the chain reads the per-element cache; the binding
# stays because bench/tests/test_bench.py checks that the tracer rebinds it.
from .intlinalg import IntMat, Phase, RatVec, _as_int, strict_lower_split  # noqa: F401
from .rng import XorShift64Star
from .twogroup import b_split, beta_multiplicator, eval_mor

__all__ = [
    "k_cocycle",
    "k_eval",
    "twisted_action",
    "check_cocycle_identity",
    "gamma",
    "check_two_torsion",
    "check_vanishing_on_subgroup",
    "DoubleCoverElement",
    "double_cover_identity",
    "double_cover_mul",
    "subgroup_sampler",
    "z_elements",
    "v_elements",
]

IntVec = tuple[int, ...]


class _Chain:
    """Each product a_i...a_{j-1} of one word, built once, and the form diagonals over them.

    `prod[i, j]` is a_i...a_{j-1} for 0 <= i < j <= len(word); a
    one-letter product is the letter itself, so caches on the word's
    elements are shared with every other caller.
    """

    __slots__ = ("prod", "_forms")

    def __init__(self, word: Sequence[PseudoOrthogonal]):
        n = word[0].n
        if any(g.n != n for g in word):
            raise ValueError("rank mismatch")
        prod = {}
        for i, acc in enumerate(word):
            prod[i, i + 1] = acc
            for j in range(i + 1, len(word)):
                acc = acc * word[j]
                prod[i, j + 1] = acc
        self.prod = prod
        self._forms: dict[tuple[int, int, int], IntVec] = {}

    def form(self, i: int, j: int, l: int) -> IntVec:
        """F(Q, P) = (P^T (B_Q)_low P)^diag for Q = prod[i, j] and P = prod[j, l]."""
        key = (i, j, l)
        f = self._forms.get(key)
        if f is None:
            p = self.prod[j, l].mat
            lp = b_split(self.prod[i, j])[1] * p
            f = tuple([sum(map(mul, u, v)) for u, v in zip(zip(*p.data), zip(*lp.data))])
            self._forms[key] = f
        return f

    def k(self, i: int, j: int, l: int, m: int) -> IntVec:
        """m_{A,B,C} for A = prod[i, j], B = prod[j, l], C = prod[l, m]."""
        iso = self.prod[i, j].iso
        w1 = self.prod[l, m].mat.transpose().mul_vec(self.form(i, j, l))
        w2 = self.form(i, l, m)
        w3 = self.form(j, l, m)
        w4 = self.form(i, j, m)
        w = [x1 + x2 - iso * x3 - x4 for x1, x2, x3, x4 in zip(w1, w2, w3, w4)]
        m2 = self.prod[i, m].inv_transpose_mat().mul_vec(w)
        if any(v % 2 for v in m2):
            raise ArithmeticError("k-invariant half-prefactor did not divide evenly")
        return tuple(v // 2 for v in m2)

    def gamma(self, i: int, j: int, l: int) -> IntVec:
        """gamma_{A,B} for A = prod[i, j] and B = prod[j, l]."""
        w = self.form(i, j, l)
        return tuple(-v for v in self.prod[i, l].inv_transpose_mat().mul_vec(w))


def k_cocycle(a: PseudoOrthogonal, b: PseudoOrthogonal, c: PseudoOrthogonal) -> IntVec:
    """The k-invariant cocycle m_{A,B,C} in Z^{2n}; integrality asserted."""
    return _Chain((a, b, c)).k(0, 1, 2, 3)


def k_eval(
    a: PseudoOrthogonal, b: PseudoOrthogonal, c: PseudoOrthogonal, x: RatVec
) -> Phase:
    """xi_{A,B,C}(x): the associator defect evaluated through the multiplicators."""
    if not (a.n == b.n == c.n):
        raise ValueError("rank mismatch")
    if x.dim != 2 * a.n:
        raise ValueError("dimension mismatch")
    y = (a * b * c).inverse().mat.mul_ratvec(x)
    val = eval_mor(beta_multiplicator(a, b * c), y)
    val = val + eval_mor(beta_multiplicator(b, c), y).scale(a.iso)
    val = val - eval_mor(beta_multiplicator(a, b), c.mat.mul_ratvec(y))
    val = val - eval_mor(beta_multiplicator(a * b, c), y)
    return val


def twisted_action(a: PseudoOrthogonal, v: Sequence[int]) -> IntVec:
    """The action of A on the character lattice: v |-> I A I v.

    I swaps the two halves of a vector, so this is swap(A swap(v)).
    """
    n = a.n
    v = tuple(v)
    w = a.mat.mul_vec(v[n:] + v[:n])
    return w[n:] + w[:n]


def _vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(x - y for x, y in zip(u, v))


def _vec_add(u: Sequence[int], v: Sequence[int]) -> IntVec:
    return tuple(x + y for x, y in zip(u, v))


def check_cocycle_identity(
    a: PseudoOrthogonal,
    b: PseudoOrthogonal,
    c: PseudoOrthogonal,
    d: PseudoOrthogonal,
) -> bool:
    """delta m == 0 under the twisted action, exactly; all five terms from one chain."""
    ch = _Chain((a, b, c, d))
    total = twisted_action(a, ch.k(1, 2, 3, 4))
    total = _vec_sub(total, ch.k(0, 2, 3, 4))
    total = _vec_add(total, ch.k(0, 1, 3, 4))
    total = _vec_sub(total, ch.k(0, 1, 2, 4))
    total = _vec_add(total, ch.k(0, 1, 2, 3))
    return all(v == 0 for v in total)


def gamma(a: PseudoOrthogonal, b: PseudoOrthogonal) -> IntVec:
    """The 2-cochain gamma_{A,B} = -(AB)^{-T} (B^T (B_A)_low B)^diag."""
    return _Chain((a, b)).gamma(0, 1, 2)


def check_two_torsion(
    a: PseudoOrthogonal, b: PseudoOrthogonal, c: PseudoOrthogonal
) -> bool:
    """delta gamma == 2 m, exactly.

    The four gamma terms come from one chain; m comes from a separate
    `k_cocycle` call, so the two sides are evaluated independently.
    """
    ch = _Chain((a, b, c))
    lhs = twisted_action(a, ch.gamma(1, 2, 3))
    lhs = _vec_sub(lhs, ch.gamma(0, 2, 3))
    lhs = _vec_add(lhs, ch.gamma(0, 1, 3))
    lhs = _vec_sub(lhs, ch.gamma(0, 1, 2))
    rhs = tuple(2 * v for v in k_cocycle(a, b, c))
    return lhs == rhs


# -- distinguished subgroups ------------------------------------------


def z_elements(n: int) -> list[PseudoOrthogonal]:
    return [PseudoOrthogonal.identity(n), flip_element(n)]


def v_elements(n: int) -> list[PseudoOrthogonal]:
    """All 2^n products of the commuting involutions V_1..V_n."""
    elems = [PseudoOrthogonal.identity(n)]
    for i in range(1, n + 1):
        elems = elems + [e * perm_v(n, i) for e in elems]
    return elems


def _random_gl_element(n: int, rng: XorShift64Star) -> PseudoOrthogonal:
    word = random_word([embed_gl(g) for g in gl_generators(n)], 4 + rng.below(5), rng)
    return word


def _random_so_element(n: int, rng: XorShift64Star) -> PseudoOrthogonal:
    basis = so_basis(n)
    acc = IntMat.zeros(n)
    for b in basis:
        acc = acc + b.scale(rng.int_in(-3, 3))
    return embed_so(acc)


def subgroup_sampler(tag: str, n: int) -> Callable[[XorShift64Star], PseudoOrthogonal]:
    if tag == "GL":
        return lambda rng: _random_gl_element(n, rng)
    if tag == "SO":
        return lambda rng: _random_so_element(n, rng)
    raise ValueError(f"unknown subgroup tag {tag!r}")


def check_vanishing_on_subgroup(
    tag: str, n: int, trials: int = 0, seed: int = 0
) -> bool:
    """m == 0 over triples from the tagged subgroup (GL, SO, Z or V).

    Z is always exhaustive; V is exhaustive while 8^n stays small, else
    sampled; GL and SO are sampled with `trials` seeded draws.
    """
    zero = (0,) * (2 * n)
    if tag == "Z":
        elems = z_elements(n)
    elif tag == "V":
        elems = v_elements(n)
        if len(elems) ** 3 > 4096:
            elems = None
    elif tag in ("GL", "SO"):
        elems = None
    else:
        raise ValueError(f"unknown subgroup tag {tag!r}")

    if elems is not None:
        return all(
            k_cocycle(a, b, c) == zero for a in elems for b in elems for c in elems
        )

    rng = XorShift64Star(seed)
    if tag == "V":
        vs = v_elements(n)
        draw = lambda r: vs[r.below(len(vs))]
    else:
        draw = subgroup_sampler(tag, n)
    for _ in range(max(trials, 1)):
        if k_cocycle(draw(rng), draw(rng), draw(rng)) != zero:
            return False
    return True


# -- the mod-2 double cover -------------------------------------------


@dataclass(frozen=True)
class DoubleCoverElement:
    """Element (u, A) of the extension of O+-(n,n,Z) by (Z/2Z)^{2n}."""

    u: IntVec
    a: PseudoOrthogonal

    def __post_init__(self):
        u = tuple(_as_int(v) for v in self.u)
        if len(u) != 2 * self.a.n or any(v not in (0, 1) for v in u):
            raise ValueError("cover component must be a 0/1 vector of length 2n")
        object.__setattr__(self, "u", u)


def double_cover_identity(n: int) -> DoubleCoverElement:
    return DoubleCoverElement((0,) * (2 * n), PseudoOrthogonal.identity(n))


def double_cover_mul(x: DoubleCoverElement, y: DoubleCoverElement) -> DoubleCoverElement:
    """(u1, A) (u2, B) = (u1 + IAI u2 + gamma_{A,B} mod 2, AB)."""
    if x.a.n != y.a.n:
        raise ValueError("rank mismatch")
    acted = twisted_action(x.a, y.u)
    g = gamma(x.a, y.a)
    u = tuple((p + q + r) % 2 for p, q, r in zip(x.u, acted, g))
    return DoubleCoverElement(u, x.a * y.a)
