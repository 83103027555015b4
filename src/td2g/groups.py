"""The integral split pseudo-orthogonal group O+-(n,n,Z).

Elements are integer 2n x 2n matrices A preserving the split symmetric
pairing I = [[0, E_n], [E_n, 0]] up to a sign: A^T I A = iso(A) * I with
iso(A) in {+1, -1}.  Since I^2 = E, the sign is read off from
A^T I A I = iso(A) * E.  iso is a group homomorphism, iso(A^T) = iso(A),
and A^{-1} = iso(A) * I A^T I, which gives inversion without an adjugate.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg, sub
from typing import Sequence

from .intlinalg import IntMat, _gustavson, _row_nonzeros, unimodular_inverse
from .rng import XorShift64Star

__all__ = [
    "MembershipError",
    "PseudoOrthogonal",
    "pairing_matrix",
    "j_matrix",
    "check_membership",
    "embed_gl",
    "embed_so",
    "perm_v",
    "flip_element",
    "minus_identity",
    "rotation_n1",
    "enumerate_n1",
    "random_word",
    "standard_generators",
    "gl_generators",
    "so_basis",
]


class MembershipError(ValueError):
    """Raised when a matrix does not lie in O+-(n,n,Z)."""


@lru_cache(maxsize=None)
def pairing_matrix(n: int) -> IntMat:
    """The split form I = [[0, E_n], [E_n, 0]], built once per n."""
    e = IntMat.identity(n)
    z = IntMat.zeros(n)
    return IntMat.from_blocks(z, e, e, z)


@lru_cache(maxsize=None)
def j_matrix(n: int) -> IntMat:
    """The half-pairing J = [[0, 0], [E_n, 0]]; I = J + J^T; built once per n."""
    e = IntMat.identity(n)
    z = IntMat.zeros(n)
    return IntMat.from_blocks(z, z, e, z)


def _scalar_multiple_of(m: IntMat, ref: IntMat) -> int | None:
    """If m == c*ref for an integer c, return c, else None."""
    c = None
    for row_m, row_r in zip(m.data, ref.data):
        for x, r in zip(row_m, row_r):
            if r == 0:
                if x != 0:
                    return None
            else:
                if x % r != 0:
                    return None
                q = x // r
                if c is None:
                    c = q
                elif q != c:
                    return None
    return c


class PseudoOrthogonal:
    """An element of O+-(n,n,Z) with its cached sign iso(A).

    The public constructor always checks the shape and membership and
    computes iso(A).  `_new` trusts a matrix and sign that this module
    built: a product, inverse or transpose of members, whose sign follows
    from theirs (iso is a homomorphism and iso(A^T) = iso(A)), or an
    element of closed form (E, I, -E, V_i, the rotation, and the GL and so
    embeddings of their checked inputs), whose sign is known.

    `_b_split` holds B_A, (B_A)_low and the nonzero entries of (B_A)_low
    once `twogroup.b_split` has computed them for this element, `_inverse`
    the inverse once `inverse` has, `_columns` the nonzero entries of each
    column other than e_j once `random_word` has read them, and `_rows`
    the nonzero entries of each row (`intlinalg._row_nonzeros`) once
    `_rows` has read them, or from birth for a group product, which
    multiplies its factors' rows and lists its own (for further products,
    `twogroup.b_matrix`, and the congruences P^T L P and matrix-vector
    products of `kinvariant`); all four are None before and take no part
    in equality, hashing or repr.
    """

    __slots__ = ("n", "mat", "iso", "_b_split", "_inverse", "_columns", "_rows")

    def __init__(self, mat: IntMat):
        if not mat.is_square or mat.rows % 2 != 0:
            raise MembershipError("matrix must be square of even size 2n")
        _fill(self, mat, _compute_iso(mat, mat.rows // 2))

    @classmethod
    def _new(cls, mat: IntMat, iso: int) -> "PseudoOrthogonal":
        """Unchecked constructor; `mat` must lie in O+-(n,n,Z) with sign `iso`."""
        return _fill(object.__new__(cls), mat, iso)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoOrthogonal is immutable")

    def __delattr__(self, name):
        raise AttributeError("PseudoOrthogonal is immutable")

    @classmethod
    def identity(cls, n: int) -> "PseudoOrthogonal":
        return cls._new(IntMat.identity(2 * n), 1)

    def __mul__(self, other: "PseudoOrthogonal") -> "PseudoOrthogonal":
        if not isinstance(other, PseudoOrthogonal):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        mat = IntMat._new(_gustavson(_rows(self), _rows(other), 2 * self.n))
        return _fill(object.__new__(PseudoOrthogonal), mat, self.iso * other.iso, _row_nonzeros(mat))

    def inverse(self) -> "PseudoOrthogonal":
        if self._inverse is None:
            inv = _conj_pairing(self.mat.transpose()).scale(self.iso)
            object.__setattr__(self, "_inverse", PseudoOrthogonal._new(inv, self.iso))
        return self._inverse

    def transpose(self) -> "PseudoOrthogonal":
        return PseudoOrthogonal._new(self.mat.transpose(), self.iso)

    def __eq__(self, other) -> bool:
        return isinstance(other, PseudoOrthogonal) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"PseudoOrthogonal(n={self.n}, iso={self.iso}, {self.mat!r})"


def _fill(g: PseudoOrthogonal, mat: IntMat, iso: int, rows: list | None = None) -> PseudoOrthogonal:
    object.__setattr__(g, "n", mat.rows // 2)
    object.__setattr__(g, "mat", mat)
    object.__setattr__(g, "iso", iso)
    object.__setattr__(g, "_b_split", None)
    object.__setattr__(g, "_inverse", None)
    object.__setattr__(g, "_columns", None)
    object.__setattr__(g, "_rows", rows)
    return g


def _conj_pairing(m: IntMat) -> IntMat:
    """I M I for a 2n x 2n matrix M: I swaps the halves, so swap M's row and column halves."""
    n = m.rows // 2
    d = m.data
    return IntMat._new(tuple(r[n:] + r[:n] for r in d[n:] + d[:n]))


def _compute_iso(mat: IntMat, n: int) -> int:
    i = pairing_matrix(n)
    gram = mat.transpose() * i * mat
    if gram == i:
        return 1
    if gram == -i:
        return -1
    c = _scalar_multiple_of(gram, i)
    if c is not None:
        raise MembershipError(
            f"A^T I A is proportional to the pairing with scalar {c}, not +-1"
        )
    raise MembershipError("A^T I A is not proportional to the pairing")


def check_membership(a: IntMat) -> PseudoOrthogonal:
    """Validate a matrix as an element of O+-(n,n,Z) and compute its iso sign."""
    return PseudoOrthogonal(a)


def embed_gl(g: IntMat) -> PseudoOrthogonal:
    """D_g = diag(g, (g^T)^{-1}), the GL(n,Z) embedding; iso = +1."""
    if not g.is_square:
        raise ValueError("GL embedding requires a square matrix")
    gti = unimodular_inverse(g.transpose())
    z = IntMat.zeros(g.rows)
    return PseudoOrthogonal._new(IntMat.from_blocks(g, z, z, gti), 1)


def embed_so(b: IntMat) -> PseudoOrthogonal:
    """e^b = [[E, 0], [b, E]] for skew-symmetric integer b; additive in b."""
    if not b.is_square or b != -b.transpose():
        raise ValueError("so embedding requires a skew-symmetric matrix")
    e = IntMat.identity(b.rows)
    z = IntMat.zeros(b.rows)
    return PseudoOrthogonal._new(IntMat.from_blocks(e, z, b, e), 1)


def perm_v(n: int, i: int) -> PseudoOrthogonal:
    """V_i: the involution swapping slots i and i+n (1-indexed), iso = +1."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    m = [[1 if r == c else 0 for c in range(2 * n)] for r in range(2 * n)]
    a, b = i - 1, i - 1 + n
    m[a][a] = m[b][b] = 0
    m[a][b] = m[b][a] = 1
    return PseudoOrthogonal._new(IntMat(m), 1)


def flip_element(n: int) -> PseudoOrthogonal:
    """The pairing matrix I itself, as a group element (iso = +1)."""
    return PseudoOrthogonal._new(pairing_matrix(n), 1)


def minus_identity(n: int) -> PseudoOrthogonal:
    return PseudoOrthogonal._new(IntMat.identity(2 * n).scale(-1), 1)


def rotation_n1() -> PseudoOrthogonal:
    """The order-4 rotation [[0,-1],[1,0]] in O+-(1,1,Z); iso = -1."""
    return PseudoOrthogonal._new(IntMat([[0, -1], [1, 0]]), -1)


def enumerate_n1() -> list[PseudoOrthogonal]:
    """All eight elements of O+-(1,1,Z); the first four have iso = +1, the last four -1."""
    tables = (
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((0, 1), (1, 0)),
        ((0, -1), (-1, 0)),
        ((0, -1), (1, 0)),
        ((0, 1), (-1, 0)),
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
    )
    return [PseudoOrthogonal._new(IntMat._new(t), 1 if k < 4 else -1) for k, t in enumerate(tables)]


def _columns(g: PseudoOrthogonal) -> tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]:
    """Each column j of g that is not e_j, as (j, i, x, rest); kept on g.

    (i, x) is the column's first nonzero entry (row, value) and `rest`
    the others.
    """
    changes = g._columns
    if changes is None:
        changes = []
        for j, col in enumerate(zip(*g.mat.data)):
            (i, x), *rest = [(i, x) for i, x in enumerate(col) if x]
            if (i, x) != (j, 1) or rest:
                changes.append((j, i, x, tuple(rest)))
        changes = tuple(changes)
        object.__setattr__(g, "_columns", changes)
    return changes


def _rows(g: PseudoOrthogonal) -> list[list[tuple[int, int]]]:
    """The (column, entry) pairs of the nonzero entries of each row of g; kept on g."""
    rows = g._rows
    if rows is None:
        rows = _row_nonzeros(g.mat)
        object.__setattr__(g, "_rows", rows)
    return rows


def random_word(
    generators: Sequence[PseudoOrthogonal],
    length: int,
    seed: int | XorShift64Star,
) -> PseudoOrthogonal:
    """Deterministic product of `length` uniform picks g or g^{-1} from `generators`.

    The product is accumulated as a list of columns, and each letter g
    acts on it by column operations: column j of M g is the sum of
    value * (column row of M) over the nonzero entries (row, value) of
    g's column j, so only the columns of g other than e_j change anything.
    A transvection, shift, V_i or diag(-1, 1, ...) changes two columns,
    and every changed column of a standard generator or its inverse has
    one or two nonzeros.  A one-letter word is the letter itself and the
    empty word the identity.
    """
    if not generators:
        raise ValueError("empty generator list")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators of mixed rank")
    rng = seed if isinstance(seed, XorShift64Star) else XorShift64Star(seed)
    letters = []
    for _ in range(length):
        g = generators[rng.below(len(generators))]
        if rng.below(2):
            g = g.inverse()
        letters.append(g)
    if len(letters) < 2:
        return letters[0] if letters else PseudoOrthogonal.identity(n)
    first = letters[0]
    cols = tuple(zip(*first.mat.data))
    iso = first.iso
    for g in letters[1:]:
        out = list(cols)
        for j, i, x, rest in _columns(g):
            col = cols[i]
            if x == -1:
                col = tuple(map(neg, col))
            elif x != 1:
                col = tuple([x * v for v in col])
            for k, y in rest:
                if y == 1:
                    col = tuple(map(add, col, cols[k]))
                elif y == -1:
                    col = tuple(map(sub, col, cols[k]))
                else:
                    col = tuple([u + y * v for u, v in zip(col, cols[k])])
            out[j] = col
        cols = out
        iso *= g.iso
    return PseudoOrthogonal._new(IntMat._new(tuple(zip(*cols))), iso)


def gl_generators(n: int) -> list[IntMat]:
    """Transvections E + E_ij (i != j) and diag(-1,1,...), generating GL(n,Z)."""
    gens = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                gens.append(IntMat.identity(n) + IntMat.basis(n, i, j))
    neg = [[(-1 if r == 0 else 1) if r == c else 0 for c in range(n)] for r in range(n)]
    gens.append(IntMat(neg))
    return gens


def so_basis(n: int) -> list[IntMat]:
    """The elementary skew matrices E_ij - E_ji for i < j."""
    return [
        IntMat.basis(n, i, j) - IntMat.basis(n, j, i)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


@lru_cache(maxsize=None)
def standard_generators(n: int) -> tuple[PseudoOrthogonal, ...]:
    """Test-word generator set: GL transvections, elementary so shifts, V_i, I, -E (and R at n=1).

    Built once per rank and process; the elements are immutable, so every
    caller shares them and the inverses and splits cached on them.  No
    claim is made that these generate all of O+-(n,n,Z); test coverage is
    over the subgroup they generate.
    """
    gens = [flip_element(n), minus_identity(n)]
    gens.extend(perm_v(n, i) for i in range(1, n + 1))
    gens.extend(embed_gl(g) for g in gl_generators(n))
    gens.extend(embed_so(b) for b in so_basis(n))
    if n == 1:
        gens.append(rotation_n1())
    return tuple(gens)
