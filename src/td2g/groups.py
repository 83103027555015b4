"""The integral split pseudo-orthogonal group O+-(n,n,Z).

Elements are integer 2n x 2n matrices A preserving the split symmetric
pairing I = [[0, E_n], [E_n, 0]] up to a sign: A^T I A = iso(A) * I with
iso(A) in {+1, -1}.  Since I^2 = E, the sign is read off from
A^T I A I = iso(A) * E.  iso is a group homomorphism, iso(A^T) = iso(A),
and A^{-1} = iso(A) * I A^T I, which gives inversion without an adjugate.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .intlinalg import IntMat, unimodular_inverse
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

    `_b_split` holds (B_A, (B_A)_low) once `twogroup.b_split` has computed
    them for this element, and None before; it takes no part in equality,
    hashing or repr.
    """

    __slots__ = ("n", "mat", "iso", "_b_split")

    def __init__(self, mat: IntMat, *, _iso: int | None = None):
        if not mat.is_square or mat.rows % 2 != 0:
            raise MembershipError("matrix must be square of even size 2n")
        n = mat.rows // 2
        if _iso is None:
            _iso = _compute_iso(mat, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "iso", _iso)
        object.__setattr__(self, "_b_split", None)

    def __setattr__(self, name, value):
        raise AttributeError("PseudoOrthogonal is immutable")

    @classmethod
    def identity(cls, n: int) -> "PseudoOrthogonal":
        return cls(IntMat.identity(2 * n), _iso=1)

    def __mul__(self, other: "PseudoOrthogonal") -> "PseudoOrthogonal":
        if not isinstance(other, PseudoOrthogonal):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return PseudoOrthogonal(self.mat * other.mat, _iso=self.iso * other.iso)

    def inverse(self) -> "PseudoOrthogonal":
        i = pairing_matrix(self.n)
        inv = (i * self.mat.transpose() * i).scale(self.iso)
        return PseudoOrthogonal(inv, _iso=self.iso)

    def transpose(self) -> "PseudoOrthogonal":
        return PseudoOrthogonal(self.mat.transpose(), _iso=self.iso)

    def inv_transpose_mat(self) -> IntMat:
        """(A^T)^{-1} = iso(A) * I A I, as a plain matrix."""
        i = pairing_matrix(self.n)
        return (i * self.mat * i).scale(self.iso)

    def __eq__(self, other) -> bool:
        return isinstance(other, PseudoOrthogonal) and self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"PseudoOrthogonal(n={self.n}, iso={self.iso}, {self.mat!r})"


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
    return PseudoOrthogonal(IntMat.from_blocks(g, z, z, gti), _iso=1)


def embed_so(b: IntMat) -> PseudoOrthogonal:
    """e^b = [[E, 0], [b, E]] for skew-symmetric integer b; additive in b."""
    if not b.is_square or b != -b.transpose():
        raise ValueError("so embedding requires a skew-symmetric matrix")
    e = IntMat.identity(b.rows)
    z = IntMat.zeros(b.rows)
    return PseudoOrthogonal(IntMat.from_blocks(e, z, b, e), _iso=1)


def perm_v(n: int, i: int) -> PseudoOrthogonal:
    """V_i: the involution swapping slots i and i+n (1-indexed), iso = +1."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    m = [[1 if r == c else 0 for c in range(2 * n)] for r in range(2 * n)]
    a, b = i - 1, i - 1 + n
    m[a][a] = m[b][b] = 0
    m[a][b] = m[b][a] = 1
    return PseudoOrthogonal(IntMat(m), _iso=1)


def flip_element(n: int) -> PseudoOrthogonal:
    """The pairing matrix I itself, as a group element (iso = +1)."""
    return PseudoOrthogonal(pairing_matrix(n), _iso=1)


def minus_identity(n: int) -> PseudoOrthogonal:
    return PseudoOrthogonal(IntMat.identity(2 * n).scale(-1), _iso=1)


def rotation_n1() -> PseudoOrthogonal:
    """The order-4 rotation [[0,-1],[1,0]] in O+-(1,1,Z); iso = -1."""
    return PseudoOrthogonal(IntMat([[0, -1], [1, 0]]), _iso=-1)


def enumerate_n1() -> list[PseudoOrthogonal]:
    """All eight elements of O+-(1,1,Z); the first four have iso = +1."""
    tables = [
        [[1, 0], [0, 1]],
        [[-1, 0], [0, -1]],
        [[0, 1], [1, 0]],
        [[0, -1], [-1, 0]],
        [[0, -1], [1, 0]],
        [[0, 1], [-1, 0]],
        [[1, 0], [0, -1]],
        [[-1, 0], [0, 1]],
    ]
    return [check_membership(IntMat(t)) for t in tables]


def random_word(
    generators: Sequence[PseudoOrthogonal],
    length: int,
    seed: int | XorShift64Star,
) -> PseudoOrthogonal:
    """Deterministic product of `length` uniform picks g or g^{-1} from `generators`."""
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


def standard_generators(n: int) -> list[PseudoOrthogonal]:
    """Test-word generator set: GL transvections, elementary so shifts, V_i, I, -E (and R at n=1).

    No claim is made that these generate all of O+-(n,n,Z); test coverage
    is over the subgroup they generate.
    """
    gens = [flip_element(n), minus_identity(n)]
    gens.extend(perm_v(n, i) for i in range(1, n + 1))
    gens.extend(embed_gl(g) for g in gl_generators(n))
    gens.extend(embed_so(b) for b in so_basis(n))
    if n == 1:
        gens.append(rotation_n1())
    return gens
