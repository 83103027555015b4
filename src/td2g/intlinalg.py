"""Exact integer matrices, rational vectors, and phases in Q/Z.

Everything here is exact: matrix entries are arbitrary-precision Python
ints, vector entries are fractions.Fraction, and a phase is a reduced
rational in [0,1) representing an element of U(1) = R/Z written
additively.  Floats are deliberately unsupported.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rational = int | Fraction

__all__ = [
    "IntMat",
    "RatVec",
    "Phase",
    "unimodular_inverse",
    "strict_lower_split",
    "diag_vec",
    "phase_bilinear",
]


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry required, got {x!r}")
    return x


def _as_dim(k) -> int:
    if _as_int(k) < 1:
        raise ValueError("matrix must have at least one row and column")
    return k


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float entries are not allowed; use Fraction")
    return Fraction(x)


class IntMat:
    """Immutable integer matrix with exact arithmetic.

    The public constructor validates its input.  Everything computed from
    existing IntMat data goes through `_new`, which trusts it.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]]):
        rows = tuple(tuple(_as_int(x) for x in row) for row in data)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)

    @staticmethod
    def _new(rows: tuple[tuple[int, ...], ...]) -> "IntMat":
        """Unchecked constructor; `rows` must be a non-empty rectangular tuple of int tuples."""
        m = _alloc(IntMat)
        _set_rows(m, len(rows))
        _set_cols(m, len(rows[0]))
        _set_data(m, rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMat is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, k: int) -> "IntMat":
        _as_dim(k)
        return cls._new(tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @classmethod
    def zeros(cls, r: int, c: int | None = None) -> "IntMat":
        c = r if c is None else c
        row = (0,) * _as_dim(c)
        return cls._new((row,) * _as_dim(r))

    @classmethod
    def from_blocks(cls, a: "IntMat", b: "IntMat", c: "IntMat", d: "IntMat") -> "IntMat":
        """Assemble [[a, b], [c, d]]."""
        if a.rows != b.rows or c.rows != d.rows or a.cols != c.cols or b.cols != d.cols:
            raise ValueError("incompatible block shapes")
        top = tuple(ra + rb for ra, rb in zip(a.data, b.data))
        bot = tuple(rc + rd for rc, rd in zip(c.data, d.data))
        return cls._new(top + bot)

    @classmethod
    def basis(cls, k: int, i: int, j: int) -> "IntMat":
        """k-by-k matrix with a single 1 in (1-indexed) position (i, j)."""
        m = [[0] * k for _ in range(_as_dim(k))]
        m[i - 1][j - 1] = 1
        return cls._new(tuple(map(tuple, m)))

    # -- basics ------------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMat) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMat({[list(r) for r in self.data]})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMat":
        return IntMat._new(tuple(zip(*self.data)))

    @property
    def T(self) -> "IntMat":
        return self.transpose()

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "IntMat") -> "IntMat":
        self._same_shape(other)
        return IntMat._new(
            tuple([tuple([x + y for x, y in zip(r, s)]) for r, s in zip(self.data, other.data)])
        )

    def __sub__(self, other: "IntMat") -> "IntMat":
        self._same_shape(other)
        return IntMat._new(
            tuple([tuple([x - y for x, y in zip(r, s)]) for r, s in zip(self.data, other.data)])
        )

    def __neg__(self) -> "IntMat":
        return IntMat._new(tuple([tuple([-x for x in r]) for r in self.data]))

    def scale(self, k: int) -> "IntMat":
        if not isinstance(k, int):
            raise TypeError(f"integer scalar required, got {k!r}")
        return IntMat._new(tuple([tuple([k * x for x in r]) for r in self.data]))

    def __mul__(self, other: "IntMat") -> "IntMat":
        if not isinstance(other, IntMat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})"
            )
        bt = tuple(zip(*other.data))
        return IntMat._new(
            tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in self.data])
        )

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple([sum(map(mul, row, v)) for row in self.data])

    def mul_ratvec(self, v: "RatVec") -> "RatVec":
        if v.dim != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return RatVec(
            tuple(sum((x * y for x, y in zip(row, v.entries)), Fraction(0)) for row in self.data)
        )

    # -- determinant (Bareiss fraction-free elimination) --------------

    def det(self) -> int:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                mik = m[i][k]
                row_i = m[i]
                row_k = m[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
                row_i[k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def _same_shape(self, other: "IntMat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


# IntMat._new writes the slots through their descriptors, which is cheaper
# than the attribute lookup of object.__setattr__ on every product.
_alloc = object.__new__
_set_rows = IntMat.rows.__set__
_set_cols = IntMat.cols.__set__
_set_data = IntMat.data.__set__


class RatVec:
    """Immutable vector of exact rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rational]):
        object.__setattr__(
            self, "entries", tuple(_as_fraction(x) for x in entries)
        )
        if not self.entries:
            raise ValueError("empty vector")

    def __setattr__(self, name, value):
        raise AttributeError("RatVec is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatVec) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"RatVec({[str(e) for e in self.entries]})"

    def __add__(self, other: "RatVec") -> "RatVec":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RatVec(tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatVec") -> "RatVec":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RatVec(tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatVec":
        return RatVec(tuple(-x for x in self.entries))

    def scale(self, k: Rational) -> "RatVec":
        k = _as_fraction(k)
        return RatVec(tuple(k * x for x in self.entries))

    def dot(self, other: "RatVec | Sequence[Rational]") -> Fraction:
        entries = other.entries if isinstance(other, RatVec) else other
        if len(entries) != self.dim:
            raise ValueError("dimension mismatch")
        return sum((x * _as_fraction(y) for x, y in zip(self.entries, entries)), Fraction(0))

    def concat(self, other: "RatVec") -> "RatVec":
        return RatVec(self.entries + other.entries)

    def split(self, k: int) -> tuple["RatVec", "RatVec"]:
        return RatVec(self.entries[:k]), RatVec(self.entries[k:])

    @classmethod
    def zero(cls, dim: int) -> "RatVec":
        return cls([Fraction(0)] * dim)

    @classmethod
    def from_ints(cls, v: Sequence[int]) -> "RatVec":
        return cls([Fraction(x) for x in v])


class Phase:
    """An element of U(1) = R/Z, stored as a reduced rational in [0,1).

    The representation is canonical: two phases are equal iff their
    stored fractions are identical.
    """

    __slots__ = ("frac",)

    def __init__(self, value: Rational = 0):
        f = _as_fraction(value)
        object.__setattr__(self, "frac", f % 1)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        return self.frac.denominator

    def is_zero(self) -> bool:
        return self.frac == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Phase):
            return self.frac == other.frac
        if isinstance(other, (int, Fraction)):
            return self.frac == Fraction(other) % 1
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.frac)

    def __repr__(self) -> str:
        return f"Phase({self.frac})"

    def __add__(self, other: "Phase | Rational") -> "Phase":
        other_f = other.frac if isinstance(other, Phase) else _as_fraction(other)
        return Phase(self.frac + other_f)

    def __sub__(self, other: "Phase | Rational") -> "Phase":
        other_f = other.frac if isinstance(other, Phase) else _as_fraction(other)
        return Phase(self.frac - other_f)

    def __neg__(self) -> "Phase":
        return Phase(-self.frac)

    def scale(self, k: int) -> "Phase":
        return Phase(self.frac * k)


# -- module-level operations ------------------------------------------


def unimodular_inverse(a: IntMat) -> IntMat:
    """Exact integer inverse of a matrix with determinant +-1.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [A | E]: every
    division is exact, and the elimination ends at [p E | p A^{-1}] with
    p = +-det(A) = +-1, so A^{-1} = p times the right block.
    """
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
    return IntMat._new(tuple([tuple([prev * x for x in row[k:]]) for row in m]))


def strict_lower_split(b: IntMat) -> IntMat:
    """Strictly lower-triangular L with b == L - L^T, for skew-symmetric b."""
    if not b.is_square:
        raise ValueError("split of a non-square matrix")
    if b != -b.transpose():
        raise ValueError("split requires a skew-symmetric matrix")
    return IntMat._new(
        tuple(
            [tuple([x if i > j else 0 for j, x in enumerate(row)]) for i, row in enumerate(b.data)]
        )
    )


def diag_vec(a: IntMat) -> tuple[int, ...]:
    """Diagonal of a square matrix, as an integer vector."""
    if not a.is_square:
        raise ValueError("diagonal of a non-square matrix")
    return tuple(a.data[i][i] for i in range(a.rows))


def phase_bilinear(x: IntMat, a: RatVec, b: RatVec) -> Phase:
    """The phase a^T x b mod 1, evaluated exactly."""
    if a.dim != x.rows or b.dim != x.cols:
        raise ValueError("dimension mismatch in bilinear pairing")
    total = Fraction(0)
    for ai, row in zip(a.entries, x.data):
        if ai == 0:
            continue
        total += ai * sum((c * bj for c, bj in zip(row, b.entries)), Fraction(0))
    return Phase(total)
