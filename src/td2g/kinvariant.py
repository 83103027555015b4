"""The classifying 3-cocycle of the extension 1 -> Z^{2n} -> A -> O+-(n,n,Z) -> 1.

Two evaluation paths are provided.  `k_eval` follows the associator
defect of the canonical section through the quadratic multiplicator
phases:

    xi(x) = beta_{A,BC}(y) + iso(A) beta_{B,C}(y)
            - beta_{A,B}(C y) - beta_{AB,C}(y),      y = (ABC)^{-1} x,

which is a character xi(x) = m . x.  `k_cocycle` computes the integer
vector m in closed form from one symmetric matrix.  With
L_Q = (B_Q)_low, S = B^T L_A B and S_up the strict upper triangle of S,

    H_{A,B} = S^diag + S_up + S_up^T,
    m = -(ABC)^{-T} 1/2 [(C^T H_{A,B} C)^diag - C^T H_{A,B}^diag].

H_{A,B} is the matrix of the multiplicator beta_{A,B}, so both paths
read it, computed two ways: here from S, in `k_eval` as
X_{A,B} - L_{AB} (`twogroup.beta_multiplicator(a, b).h`).  The bracket
is twice `twogroup.mor_hcompose`'s correction and is even; the
half-prefactor is still asserted.  `_Chain.k` derives the formula from
the four-form one, m = 1/2 (ABC)^{-T} (w1 + w2 - iso(A) w3 - w4) with
w1 = C^T F(A, B), w2 = F(AB, C), w3 = F(B, C), w4 = F(A, BC) and the
form diagonals F(Q, P) = (P^T L_Q P)^diag.

The 2-cochain gamma_{A,B} = -(AB)^{-T} F(A, B) reads form diagonals, not
H.  Since I A I = iso(A) A^{-T}, its coboundary under the twisted action
(A, v) |-> I A I v is (ABC)^{-T} (w1 + w2 - iso(A) w3 - w4) for any F.
So delta gamma = 2m, which exhibits the class as 2-torsion and yields
the mod-2 double cover group law, compares four F with one H: the two
sides agree by the lower-split identity L_{AB} = S - H_{A,B} + iso(A) L_B,
and a wrong F or a wrong H breaks it.  `check_two_torsion` and the
`n1-two-torsion` records make this comparison.  delta m = 0 reads m
alone.  It follows from delta gamma = 2m, but it is no identity of the
formula for an arbitrary symmetric H, so `check_cocycle_identity` tests
H, the bracket and the products.

Every H and F above pairs two consecutive pieces of one word: Q and P
are products a_i...a_{j-1} and a_j...a_{l-1}.  A private product chain
over the word builds each such product on first use, left to right, so
the lower split cached on a product serves every term that uses it, and
memoises each H that an m term reads by its (i, j, l).  No H, F or
bracket forms a matrix product.  Both H and F are read from
S = P^T L_Q P, which `_congruence` sums as v outer(P_r, P_c) over the
nonzero entries (r, c, v) of L_Q (kept on Q by `twogroup.b_split`), with
P_r the nonzero entries of row r of P (kept on P): a lower split of a
word has a few nonzeros, so an S costs a few dozen integer products.
The bracket sums over the nonzero entries of H and of C's rows.
(ABC)^{-T} is applied to a vector piece by piece, as
iso(ABC) I A (B (C (I v))), each piece through its row nonzeros, so it
builds no product.  The chain's group products are row-sparse too: a
product is formed from its factors' row nonzeros and keeps its own
(`groups.PseudoOrthogonal.__mul__`), so no element's rows are listed
twice and no dense matrix product or matrix-vector product runs.
`k_cocycle` builds no group product at all;
`check_cocycle_identity` reads its five m terms (4 distinct H) from one
4-chain and builds ab, bc and cd; `check_two_torsion` reads its four
gamma terms (4 distinct F) from one 3-chain, building ab and bc, while
its right side 2m is a separate `k_cocycle` call.

On a finite group the chains repeat: every product is again one of the
group's elements.  `finite_group_failures` therefore indexes the N
elements, builds their Cayley table once, computes H_{A,B} once per
ordered pair (N^2) and fills one m table and one gamma table (N^2
`gamma` calls).  The m table calls no `_Chain.k`: as X^{-T} = iso(X) I X I,
m_{A,B,C} is the twisted action of the Cayley product X = ABC on
-iso(X) 1/2 bracket(H_{A,B}, C), and the bracket is computed once per
distinct H value and C (3 H values at n=1).
delta m = 0 at every quadruple and delta gamma = 2m at every triple are
then table reads, with the twisted action computed once per element and
distinct vector.  The tables live for one call.

Those reads compare integer codes, not vectors.  Let M >= 1 be the
largest absolute entry of any m value, any gamma value and any twisted
image I A I v of either, base = 12 M + 1, and code(v) = sum_i v_i base^i
for a vector v of length 2n.  Codes add as vectors do, so an identity's
signed sum of codes is the code of its defect vector.  The cocycle
defect I A I m_{b,c,d} - m_{ab,c,d} + m_{a,bc,d} - m_{a,b,cd} + m_{a,b,c}
sums one twisted image and four m values, so its entries have size at
most 5 M; the torsion defect
I A I g_{b,c} - g_{ab,c} + g_{a,bc} - g_{a,b} - 2 m_{a,b,c} sums one
twisted image, three gamma values and 2m, at most 6 M; an m value's
entries are at most M.  Each is at most 6 M = (base - 1)/2, and such a
vector v has code 0 only if v = 0: otherwise let j be the least index
with v_j != 0; then code(v) = base^j (v_j + base r) for an integer r,
and 0 < |v_j| < base, so v_j + base r != 0.  So a code equals 0 exactly
when its vector does, and a quadruple costs four integer operations.

The splitting over the GL, SO, Z and V subgroups is decided without
draws by `subgroup_vanishing_failure`: GL and SO by a certificate over
their generators, Z and V by reduction to the 8 triples at n=1.
"""

from __future__ import annotations

from itertools import chain, product
from operator import add, sub
from typing import Sequence

from .groups import (
    PseudoOrthogonal,
    _rows,
    embed_gl,
    embed_so,
    flip_element,
    gl_generators,
    perm_v,
    so_basis,
)
# Unused here since the chain reads the per-element cache; the binding
# stays because bench/tests/test_bench.py checks that the tracer rebinds it.
from .intlinalg import IntMat, Phase, RatVec, Record, _as_int, _gather, strict_lower_split  # noqa: F401
from .twogroup import _lower_terms, b_split, beta_multiplicator, correction_bracket, eval_mor

__all__ = [
    "k_cocycle",
    "k_eval",
    "twisted_action",
    "check_cocycle_identity",
    "gamma",
    "check_two_torsion",
    "finite_group_failures",
    "check_vanishing_on_subgroup",
    "DoubleCoverElement",
    "double_cover_identity",
    "double_cover_mul",
    "subgroup_vanishing_failure",
    "z_elements",
    "v_elements",
]

IntVec = tuple[int, ...]


class _Products(dict):
    """prod[i, j] = a_i...a_{j-1} of one word, built on first lookup as prod[i, j-1] a_{j-1}."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[PseudoOrthogonal]):
        super().__init__(((i, i + 1), g) for i, g in enumerate(word))
        self.word = word

    def __missing__(self, key: tuple[int, int]) -> PseudoOrthogonal:
        i, j = key
        p = self[key] = self[i, j - 1] * self.word[j - 1]
        return p


def _congruence(
    terms: Sequence[tuple[int, int, int]], rows: Sequence[Sequence[tuple[int, int]]], dim: int
) -> tuple[IntVec, ...]:
    """The rows of S = P^T L P, from the nonzero entries (r, c, v) of L and those of each row of P.

    S_st = sum over (r, c, v) of v P_rs P_ct, so S is the sum of
    v outer(P_r, P_c), P_r row r of P: one term per nonzero of L, and one
    product per pair of nonzeros of P_r and P_c.  No matrix product is
    formed; a strictly lower L of a word has a few nonzeros.
    """
    s = [[0] * dim for _ in range(dim)]
    for r, c, v in terms:
        p_c = rows[c]
        for i, x in rows[r]:
            acc = s[i]
            w = v * x
            for j, y in p_c:
                acc[j] += w * y
    return tuple(map(tuple, s))


def _apply(g: PseudoOrthogonal, v: Sequence[int]) -> IntVec:
    """g v, from the nonzero entries of each row of g (kept on g)."""
    out = []
    for row in _rows(g):
        t = 0
        for j, x in row:
            t += x * v[j]
        out.append(t)
    return tuple(out)


class _Chain:
    """The products a_i...a_{j-1} of one word, and the matrices H and diagonals F over them.

    `prod[i, j]` is a_i...a_{j-1} for 0 <= i < j <= len(word), built on
    first lookup; a one-letter product is the letter itself, so caches on
    the word's elements are shared with every other caller.  `h` and
    `form` read H and F from S = P^T (B_Q)_low P for Q = prod[i, j] and
    P = prod[j, l], summed from the nonzero entries of (B_Q)_low and of
    P's rows (`_congruence`).  `k` memoises each H it reads by (i, j, l),
    through `self.h`, so the five m terms of a 4-chain compute 4 H.
    """

    __slots__ = ("prod", "_h")

    def __init__(self, word: Sequence[PseudoOrthogonal]):
        n = word[0].n
        if any(g.n != n for g in word):
            raise ValueError("rank mismatch")
        self.prod = _Products(word)
        self._h: dict[tuple[int, int, int], IntMat] = {}

    def h(self, i: int, j: int, l: int) -> IntMat:
        """H_{Q,P} = S^diag + S_up + S_up^T, S = P^T (B_Q)_low P, for Q = prod[i, j] and P = prod[j, l].

        Row r of H is column r of S up to the diagonal, then row r of S.
        """
        s = self._s(i, j, l)
        return IntMat._new(tuple([col[:r] + row[r:] for r, (row, col) in enumerate(zip(s, zip(*s)))]))

    def form(self, i: int, j: int, l: int) -> IntVec:
        """F(Q, P) = (P^T (B_Q)_low P)^diag for Q = prod[i, j] and P = prod[j, l]."""
        return tuple([row[r] for r, row in enumerate(self._s(i, j, l))])

    def _s(self, i: int, j: int, l: int) -> tuple[IntVec, ...]:
        """S = P^T (B_Q)_low P for Q = prod[i, j] and P = prod[j, l], from the nonzeros of both."""
        p = self.prod[j, l]
        return _congruence(_lower_terms(self.prod[i, j]), _rows(p), 2 * p.n)

    def inv_transpose(self, cuts: Sequence[int], v: Sequence[int]) -> IntVec:
        """(prod[cuts[0], cuts[-1]])^{-T} v, one piece prod[p, q] between consecutive cuts at a time.

        X^{-T} = iso(X) I X I, and I I = E, so for X = X_1...X_r this is
        iso(X) I X_1 (... (X_r (I v))): the product X itself is never built,
        each X_k is applied from its row nonzeros (`_apply`), and the halves
        are swapped twice in all, not twice per piece as `twisted_action`
        per piece would.
        """
        n = len(v) // 2
        v = tuple(v[n:]) + tuple(v[:n])
        iso = 1
        for p, q in reversed(list(zip(cuts, cuts[1:]))):
            x = self.prod[p, q]
            v = _apply(x, v)
            iso *= x.iso
        v = v[n:] + v[:n]
        return v if iso == 1 else tuple([-t for t in v])

    def k(self, i: int, j: int, l: int, m: int) -> IntVec:
        """m_{A,B,C} for A = prod[i, j], B = prod[j, l], C = prod[l, m], from H = H_{A,B} alone:

            m = -(ABC)^{-T} 1/2 [(C^T H C)^diag - C^T H^diag].

        Proof, from the four-form closed form
        m = 1/2 (ABC)^{-T} (w1 + w2 - iso(A) w3 - w4) with F(Q, P) =
        (P^T L_Q P)^diag, L_Q = (B_Q)_low, w1 = C^T F(A, B),
        w2 = F(AB, C), w3 = F(B, C), w4 = F(A, BC).  Let S = B^T L_A B,
        so S^diag = H^diag, w1 = C^T H^diag and w4 = (C^T S C)^diag.
        `twogroup.obj_product` gives B_{AB} = B^T B_A B + iso(A) B_B, and
        B^T B_A B = S - S^T as B_A = L_A - L_A^T.  The strictly lower part
        of S - S^T is S_low - S_up^T = S - H, and that of iso(A) B_B is
        iso(A) L_B, so L_{AB} = S - H + iso(A) L_B and
        w2 = w4 - (C^T H C)^diag + iso(A) w3.  Hence
        w1 + w2 - iso(A) w3 - w4 = C^T H^diag - (C^T H C)^diag.

        The bracket is `correction_bracket(H, C)`, even as H is symmetric;
        an odd entry is an internal fault and raises ArithmeticError.
        """
        h = self._h.get((i, j, l))
        if h is None:
            h = self._h[i, j, l] = self.h(i, j, l)
        twice = correction_bracket(h, self.prod[l, m].mat)
        if any(v % 2 for v in twice):
            raise ArithmeticError("k-invariant half-prefactor did not divide evenly")
        return self.inv_transpose((i, j, l, m), [-(v // 2) for v in twice])

    def gamma(self, i: int, j: int, l: int) -> IntVec:
        """gamma_{A,B} = -(AB)^{-T} F(A, B) for A = prod[i, j] and B = prod[j, l]."""
        return self.inv_transpose((i, j, l), [-v for v in self.form(i, j, l)])


def k_cocycle(a: PseudoOrthogonal, b: PseudoOrthogonal, c: PseudoOrthogonal) -> IntVec:
    """The k-invariant cocycle m_{A,B,C} in Z^{2n}, from H_{A,B}; integrality asserted."""
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

    I swaps the two halves of a vector, so this is swap(A swap(v)), with
    A applied from its row nonzeros (`_apply`).
    """
    n = a.n
    v = tuple(v)
    if len(v) != 2 * n:
        raise ValueError("dimension mismatch in matrix-vector product")
    w = _apply(a, v[n:] + v[:n])
    return w[n:] + w[:n]


class _Actions(dict):
    """acts[v] = I A I v for one element A, computed on first lookup.

    The action is a function of (A, v) alone, so the memo is exact.
    """

    __slots__ = ("a",)

    def __init__(self, a: PseudoOrthogonal):
        super().__init__()
        self.a = a

    def __missing__(self, v: IntVec) -> IntVec:
        w = self[v] = twisted_action(self.a, v)
        return w


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

    The four gamma terms come from one chain and read form diagonals F;
    m comes from a separate `k_cocycle` call and reads H_{A,B}.  The two
    sides are different formulas, equal by the lower-split identity of
    the module docstring, so a wrong F or H fails here.
    """
    ch = _Chain((a, b, c))
    lhs = twisted_action(a, ch.gamma(1, 2, 3))
    lhs = _vec_sub(lhs, ch.gamma(0, 2, 3))
    lhs = _vec_add(lhs, ch.gamma(0, 1, 3))
    lhs = _vec_sub(lhs, ch.gamma(0, 1, 2))
    rhs = tuple(2 * v for v in k_cocycle(a, b, c))
    return lhs == rhs


def _cayley_table(elems: Sequence[PseudoOrthogonal]) -> list[list[int]]:
    """table[a][b] = the index of elems[a] * elems[b]; ValueError if it is not in `elems`."""
    index = {g: i for i, g in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            ab = index.get(a * b)
            if ab is None:
                raise ValueError("elements are not closed under multiplication")
            row.append(ab)
        table.append(row)
    return table


def _m_table(
    elems: Sequence[PseudoOrthogonal], table: list[list[int]], acted: list[_Actions]
) -> list[list[list[IntVec]]]:
    """m[a][b][c] = m_{a,b,c} over a finite group with Cayley table `table`.

    One half-bracket per distinct (H_{a,b} value, c), each m read from
    `acted` of the Cayley product abc; `finite_group_failures` proves it.
    """
    brackets: dict[IntMat, list[tuple[IntVec, IntVec]]] = {}
    m = []
    for ia, a in enumerate(elems):
        m_a = []
        for ib, b in enumerate(elems):
            h = _Chain((a, b)).h(0, 1, 2)
            signed = brackets.get(h)
            if signed is None:
                signed = brackets[h] = []
                for c in elems:
                    twice = correction_bracket(h, c.mat)
                    if any(v % 2 for v in twice):
                        raise ArithmeticError("k-invariant half-prefactor did not divide evenly")
                    # (-h, h): the vector I X I is applied to when iso(X) is 1, -1
                    signed.append((tuple([-(v // 2) for v in twice]), tuple([v // 2 for v in twice])))
            m_a.append(
                [
                    acted[x][neg if elems[x].iso == 1 else pos]
                    for x, (neg, pos) in zip(table[table[ia][ib]], signed)
                ]
            )
        m.append(m_a)
    return m


def _codes(vecs: list[IntVec], images: list[list[IntVec]]) -> tuple[list[int], list[list[int]]]:
    """The codes sum_i v_i base^i of `vecs` and of each element's `images` of them, base = 12 M + 1.

    M is the largest absolute entry, at least 1, of any vector of `vecs`
    or `images`; the module docstring proves that this base is exact.
    """
    big = max(max(map(abs, v), default=0) for v in chain(vecs, *images))
    base = 12 * max(big, 1) + 1

    def code(v: IntVec) -> int:
        c = 0
        for x in reversed(v):
            c = c * base + x
        return c

    return [code(v) for v in vecs], [[code(w) for w in img] for img in images]


def finite_group_failures(elems: Sequence[PseudoOrthogonal]) -> list[dict]:
    """Decide m = 0, delta m = 0 and delta gamma = 2m over a finite group, from tables.

    `elems` must be non-empty and closed under multiplication; an empty
    list or a product outside it raises ValueError.  With a, b, c, d
    indices into `elems` and ab the index of elems[a] * elems[b] (the
    Cayley table), the failure records are, in this order:

    - `n1-vanishing` at each triple (a, b, c) in lexicographic order with
      m_{a,b,c} != 0;
    - `cocycle-identity` at each quadruple (a, b, c, d) in lexicographic
      order where
      I A I m_{b,c,d} - m_{ab,c,d} + m_{a,bc,d} - m_{a,b,cd} + m_{a,b,c} != 0;
    - `n1-two-torsion` at each triple (a, b, c) in lexicographic order
      where I A I g_{b,c} - g_{ab,c} + g_{a,bc} - g_{a,b} != 2 m_{a,b,c}.

    Each piece of work is done once.  H_{a,b} is `_Chain.h` once per
    ordered pair, g_{a,b} is `gamma` once per pair, and I A I v is
    `twisted_action` once per element a and distinct vector v, kept for
    the m table and both identities.  m_{a,b,c} (`_m_table`) depends on
    the triple only through the value of H = H_{a,b}, through c and
    through X = abc, the Cayley product: by `_Chain.k`'s formula
    m = -X^{-T} h with h = 1/2 bracket(H, C), and X^{-T} = iso(X) I X I
    (`_Chain.inv_transpose`), so m = I X I (-iso(X) h), read from the
    twisted-action memo of X.  The bracket reads nothing but H and C's
    matrix, so keeping it by (H value, c) is exact; the memo of I X I v
    is keyed by (element, vector), so it is exact too.  The brackets of
    a new H value are computed, and checked to be even, for every c at
    the first pair that has it, so an odd one raises ArithmeticError at
    the same first triple as a check per triple.  `_Chain.h`,
    `correction_bracket`, `gamma` and `twisted_action` are looked up at
    call time.

    The second list is `check_cocycle_identity` at every quadruple: each
    of its five terms is m at a triple of products of the 4-chain
    (a, b, c, d), and such a product equals the Cayley product as a
    group element, while m is a function of the element triple alone
    (the chain reads nothing but the elements' matrices and signs), and
    so is H_{A,B} of the pair.  The third list is `check_two_torsion` at
    every triple, for the same reason applied to its four gamma terms
    of the 3-chain (a, b, c).

    Each table is coded once, as the module docstring sets out, and the
    three scans compare integer codes; the proof there that a code is 0
    exactly when its vector is makes each record exact.

    Blind spot: at n=1 every column of an element has one nonzero entry,
    so (C^T H C)^diag and C^T H^diag read only H's diagonal, and no record
    here can see H's off-diagonal entries.  A wrong H that keeps the
    diagonal passes this check; the seeded `cocycle` and `torsion` suites
    at n=2 catch it (`tests/test_kinvariant.py` pins both).
    """
    if not elems:
        raise ValueError("no elements: a finite group has at least its identity")
    table = _cayley_table(elems)
    count = len(elems)
    idx = range(count)
    acted = [_Actions(a) for a in elems]
    m = _m_table(elems, table, acted)
    g = [[gamma(a, b) for b in elems] for a in elems]
    # each distinct m or gamma vector once, by its index in `vecs`
    ids: dict[IntVec, int] = {}
    m_ids = [[[ids.setdefault(v, len(ids)) for v in m_a_b] for m_a_b in m_a] for m_a in m]
    g_ids = [[ids.setdefault(v, len(ids)) for v in g_a] for g_a in g]
    vecs = list(ids)
    codes, acted_codes = _codes(vecs, [[act_a[v] for v in vecs] for act_a in acted])
    cm = [[[codes[i] for i in m_a_b] for m_a_b in m_a] for m_a in m_ids]
    cg = [[codes[i] for i in g_a] for g_a in g_ids]
    failures = [
        {"trial": 0, "check": "n1-vanishing", "triple": [ia, ib, ic]}
        for ia in idx
        for ib in idx
        for ic in idx
        if cm[ia][ib][ic]
    ]
    # by_row[c](s) = (s[cd] for each d); m_by_id[b][c](s) = (s[id of m_{b,c,d}] for each d)
    by_row = [_gather(row) for row in table]
    m_by_id = [[_gather(m_b_c) for m_b_c in m_b] for m_b in m_ids]
    for ia in idx:
        act_a, cm_a, row_a = acted_codes[ia], cm[ia], table[ia]
        for ib in idx:
            cm_a_b, cm_ab, row_b, m_b = cm_a[ib], cm[row_a[ib]], table[ib], m_by_id[ib]
            for ic in idx:
                # along d: I A I m_{b,c,d} + m_{a,bc,d} - m_{ab,c,d} - m_{a,b,cd} = -m_{a,b,c}
                plus = map(add, m_b[ic](act_a), cm_a[row_b[ic]])
                lhs = list(map(sub, plus, map(add, cm_ab[ic], by_row[ic](cm_a_b))))
                want = -cm_a_b[ic]
                if lhs.count(want) != count:
                    failures.extend(
                        {"trial": 0, "check": "cocycle-identity", "quadruple": [ia, ib, ic, idd]}
                        for idd, x in enumerate(lhs)
                        if x != want
                    )
    g_by_id = [_gather(g_b) for g_b in g_ids]  # g_by_id[b](s) = (s[id of g_{b,c}] for each c)
    for ia in idx:
        act_a, cg_a, cm_a, row_a = acted_codes[ia], cg[ia], cm[ia], table[ia]
        for ib in idx:
            # along c: I A I g_{b,c} + g_{a,bc} - g_{ab,c} - 2 m_{a,b,c} = g_{a,b}
            twice_m = [2 * x for x in cm_a[ib]]
            plus = map(add, g_by_id[ib](act_a), by_row[ib](cg_a))
            lhs = list(map(sub, plus, map(add, cg[row_a[ib]], twice_m)))
            want = cg_a[ib]
            if lhs.count(want) != count:
                failures.extend(
                    {"trial": 0, "check": "n1-two-torsion", "triple": [ia, ib, ic]}
                    for ic, x in enumerate(lhs)
                    if x != want
                )
    return failures


# -- distinguished subgroups ------------------------------------------


def z_elements(n: int) -> list[PseudoOrthogonal]:
    return [PseudoOrthogonal.identity(n), flip_element(n)]


def v_elements(n: int) -> list[PseudoOrthogonal]:
    """All 2^n products of the commuting involutions V_1..V_n."""
    elems = [PseudoOrthogonal.identity(n)]
    for i in range(1, n + 1):
        elems = elems + [e * perm_v(n, i) for e in elems]
    return elems


# The generators of each subgroup that `subgroup_vanishing_failure` certifies.
_GENERATORS = {
    "GL": lambda n: [embed_gl(g) for g in gl_generators(n)],
    "SO": lambda n: [embed_so(b) for b in so_basis(n)],
}


def subgroup_vanishing_failure(tag: str, n: int) -> dict | None:
    """Decide m == 0 on the whole tagged rank-n subgroup (GL, SO, Z or V); None if it holds.

    GL and SO: with G = `_GENERATORS[tag](n)`, the certificate is iso(h) = 1
    and h^T L_g h == L_g, L_g = (B_g)_low, for all g, h in G; a failure
    names the first failing pair as `generators`, indices into G.  It gives
    m = 0 on the group that G generates:

    - B_{AB} = iso(A) B_B + B^T B_A B, and iso = 1 on the whole group;
    - each generator, and so its inverse, fixes every L_g, hence every
      B_g = L_g - L_g^T;
    - by induction on words, B_{QP} = B_Q + B_P and B_{h^-1} = -B_h, so
      every L_Q is an integer combination of the L_g and P^T L_Q P = L_Q;
    - each form F(Q, P) = (P^T L_Q P)^diag of `k_cocycle` is then the
      diagonal of the strictly lower L_Q, which is 0; so is m.

    h^T L_g h is `_congruence` over the nonzero entries of L_g and h's
    rows, the S of `_Chain`; a generator with L_g = 0 needs none: every GL
    one, as B_{D_g} = 0.

    Z and V: every V element is block-diagonal over the coordinate pairs
    (i, i+n), each block E or the n=1 flip, with iso = 1.  J, I, B_A, its
    lower split (i < i+n keeps the order within a pair) and every product
    keep those blocks, so m at a V triple is, pair by pair, m at a triple of
    z_elements(1): its 8 triples decide V for every n.  Z lies in V, as
    flip_element(n) = V_1...V_n.  A failure names the triple as `triple`,
    indices into z_elements(1).
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if tag in _GENERATORS:
        gens = _GENERATORS[tag](n)
        dim = 2 * n
        for ig, g in enumerate(gens):
            low, terms = b_split(g)[1].data, _lower_terms(g)
            for ih, h in enumerate(gens):
                if h.iso != 1 or (terms and _congruence(terms, _rows(h), dim) != low):
                    return {"subgroup": tag, "generators": [ig, ih]}
        return None
    if tag not in ("Z", "V"):
        raise ValueError(f"unknown subgroup tag {tag!r}")
    elems = z_elements(1)
    for t in product(range(2), repeat=3):
        if k_cocycle(*(elems[i] for i in t)) != (0, 0):
            return {"subgroup": tag, "triple": list(t)}
    return None


def check_vanishing_on_subgroup(tag: str, n: int, trials: int = 0, seed: int = 0) -> bool:
    """m == 0 on the whole tagged subgroup; `trials` and `seed` are accepted and ignored."""
    return subgroup_vanishing_failure(tag, n) is None


# -- the mod-2 double cover -------------------------------------------


class DoubleCoverElement(Record):
    """Element (u, A) of the extension of O+-(n,n,Z) by (Z/2Z)^{2n}."""

    __slots__ = ("u", "a")
    u: IntVec
    a: PseudoOrthogonal

    def _check(self):
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
