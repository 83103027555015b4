"""Exact integer matrices, rational vectors, and phases in Q/Z.

Everything here is exact: matrix entries are arbitrary-precision Python
ints, vector entries are fractions.Fraction, and a phase is a reduced
rational in [0,1) representing an element of U(1) = R/Z written
additively.  Floats are deliberately unsupported.

Matrix products use one sparse row kernel (Gustavson's method,
`_gustavson`): it reads the nonzero entries of each row of both factors
and forms only the products of two nonzero entries, since group words
and generators are mostly zeros.  `IntMat.__mul__` lists both factors'
row nonzeros for each product; a group product
(`groups.PseudoOrthogonal.__mul__`) reads them from the row cache of
each element and leaves the product's row nonzeros on the product, so a
word chain lists each element's rows once.  B_A, the congruences
P^T L P of the k-invariant and the composition bracket sum over nonzero
entries directly (`twogroup`, `kinvariant`), with no product.

Rational hot paths put their inputs over one common denominator
(`common_denominator`), accumulate integers and build one Fraction per
output entry; the trusted constructors `RatVec._new` and `Phase._new`
wrap those results without re-checking them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul
from typing import Iterable, Sequence

Rational = int | Fraction

__all__ = [
    "Record",
    "IntMat",
    "RatVec",
    "Phase",
    "unimodular_inverse",
    "strict_lower_split",
    "diag_vec",
    "common_denominator",
    "phase_bilinear",
]


def _gather(ix: Sequence):
    """s -> (s[ix[0]], s[ix[1]], ...) as one C call: a tuple for any length of `ix`, () for none.

    `itemgetter` alone returns a bare item for one index and raises for none.
    """
    if len(ix) > 1:
        return itemgetter(*ix)
    if ix:
        i = ix[0]
        return lambda s: (s[i],)
    return lambda s: ()


def _row_nonzeros(m: IntMat) -> list[list[tuple[int, int]]]:
    """The (column, entry) pairs of the nonzero entries of each row of `m`."""
    # Plain loops: a nested comprehension costs a function call per row.
    out = []
    for row in m.data:
        nz = []
        for j, x in enumerate(row):
            if x:
                nz.append((j, x))
        out.append(nz)
    return out


def _gustavson(
    a_rows: Sequence[Sequence[tuple[int, int]]], b_rows: Sequence[Sequence[tuple[int, int]]], ncols: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of A B, from the row nonzeros of A and of B (as `_row_nonzeros` lists them).

    Gustavson's row kernel: row i of A B is the sum of a B_k over the
    nonzero entries a = A_ik, so only products of two nonzero entries
    are formed.  B has `ncols` columns.
    """
    out = []
    for a_i in a_rows:
        acc = [0] * ncols
        for k, a in a_i:
            for j, b in b_rows[k]:
                acc[j] += a * b
        out.append(tuple(acc))
    return tuple(out)


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry required, got {x!r}")
    return x


def _as_dim(k) -> int:
    if _as_int(k) < 1:
        raise ValueError("matrix must have at least one row and column")
    return k


def _as_fraction(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"int or Fraction entry required, got {x!r}")
    return Fraction(x)


class Record:
    """Immutable record over the field names in a subclass's `__slots__`.

    Construction is positional or by keyword; equality and hash go by
    the fields, and only a record of the same class is equal; the repr is
    `Name(field=value, ...)`.  Assignment and deletion raise
    AttributeError.  A subclass validates, and may normalise, its fields
    in `_check`, which the constructor runs last.  `_new` is the trusted
    constructor: it takes every field in slot order and runs no `_check`.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self).__name__
        names = self.__slots__
        rest = names[len(args) :]
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in rest:
                what = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls}() got {what} argument {name!r}")
        for name in rest:
            if name not in kwargs:
                raise TypeError(f"{cls}() missing argument {name!r}")
        self._write(args + tuple([kwargs[name] for name in rest]))
        self._check()

    @classmethod
    def _new(cls, *values):
        """Unchecked constructor; `values` are every field, in slot order."""
        return object.__new__(cls)._write(values)

    def _write(self, values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _check(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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

    def __delattr__(self, name):
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
        return IntMat._new(_gustavson(_row_nonzeros(self), _row_nonzeros(other), other.cols))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple([sum(map(mul, row, v)) for row in self.data])

    def mul_ratvec(self, v: "RatVec") -> "RatVec":
        if v.dim != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        d, (nums,) = common_denominator((v.entries,))
        return RatVec._new(tuple([Fraction(x, d) for x in self.mul_vec(nums)]))

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


class RatVec:
    """Immutable vector of exact rationals.

    The public constructor validates its input.  Results computed from
    existing RatVec data go through `_new`, which trusts it.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Rational]):
        object.__setattr__(
            self, "entries", tuple(_as_fraction(x) for x in entries)
        )
        if not self.entries:
            raise ValueError("empty vector")

    @staticmethod
    def _new(entries: tuple[Fraction, ...]) -> "RatVec":
        """Unchecked constructor; `entries` must be a non-empty tuple of Fractions."""
        v = _alloc(RatVec)
        _set_entries(v, entries)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("RatVec is immutable")

    def __delattr__(self, name):
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
        return RatVec._new(tuple([x + y for x, y in zip(self.entries, other.entries)]))

    def __sub__(self, other: "RatVec") -> "RatVec":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RatVec._new(tuple([x - y for x, y in zip(self.entries, other.entries)]))

    def __neg__(self) -> "RatVec":
        return RatVec._new(tuple([-x for x in self.entries]))

    def scale(self, k: Rational) -> "RatVec":
        k = _as_fraction(k)
        return RatVec._new(tuple([k * x for x in self.entries]))

    def dot(self, other: "RatVec | Sequence[Rational]") -> Fraction:
        entries = other.entries if isinstance(other, RatVec) else other
        if len(entries) != self.dim:
            raise ValueError("dimension mismatch")
        return sum((x * _as_fraction(y) for x, y in zip(self.entries, entries)), Fraction(0))

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

    @staticmethod
    def _new(frac: Fraction) -> "Phase":
        """Unchecked constructor; `frac` must be a Fraction in [0,1)."""
        p = _alloc(Phase)
        _set_frac(p, frac)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __delattr__(self, name):
        raise AttributeError("Phase is immutable")

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
        return Phase._new((self.frac + other_f) % 1)

    def __sub__(self, other: "Phase | Rational") -> "Phase":
        other_f = other.frac if isinstance(other, Phase) else _as_fraction(other)
        return Phase._new((self.frac - other_f) % 1)

    def __neg__(self) -> "Phase":
        return Phase._new(-self.frac % 1)

    def scale(self, k: int) -> "Phase":
        return Phase._new(self.frac * _as_int(k) % 1)


# The trusted constructors (`_new`) write the slots through their
# descriptors, which is cheaper than the attribute lookup of
# object.__setattr__ on every result.
_alloc = object.__new__
_set_rows = IntMat.rows.__set__
_set_cols = IntMat.cols.__set__
_set_data = IntMat.data.__set__
_set_entries = RatVec.entries.__set__
_set_frac = Phase.frac.__set__


# -- module-level operations ------------------------------------------


def unimodular_inverse(a: IntMat) -> IntMat:
    """Exact integer inverse of a matrix with determinant +-1.

    One fraction-free Gauss-Jordan pass (Bareiss) on [A | E]: every
    division is exact, and the elimination ends at [p E | p A^{-1}] with p,
    the last pivot, equal to +-det(A).  So A is unimodular exactly when
    p = +-1, and then A^{-1} = p times the right block.  A row with a zero
    in the pivot column is left alone when the pivot equals the previous
    one, since the update would not change it.  `det` runs only to name
    the determinant of a refused matrix.
    """
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    k = a.rows
    m = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(a.data)]
    prev = 1
    for c in range(k):
        if m[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if m[r][c] != 0), None)
            if swap is None:
                break
            m[c], m[swap] = m[swap], m[c]
        row_c = m[c]
        pivot = row_c[c]
        for r in range(k):
            f = m[r][c]
            if r != c and (f or pivot != prev):
                m[r] = [(x * pivot - f * y) // prev for x, y in zip(m[r], row_c)]
        prev = pivot
    else:
        if prev in (1, -1):
            return IntMat._new(tuple([tuple([prev * x for x in row[k:]]) for row in m]))
    raise ValueError(f"matrix is not unimodular (det = {a.det()})")


def strict_lower_split(b: IntMat) -> IntMat:
    """Strictly lower-triangular L with b == L - L^T, for skew-symmetric b.

    One pass: row i is tested against column i up to the diagonal
    (b_ij + b_ji == 0 for j <= i covers every pair) and cut there.
    """
    if not b.is_square:
        raise ValueError("split of a non-square matrix")
    rows = b.data
    zeros = (0,) * b.cols
    low = []
    for i, (row, col) in enumerate(zip(rows, zip(*rows))):
        if any(map(add, row[: i + 1], col[: i + 1])):
            raise ValueError("split requires a skew-symmetric matrix")
        low.append(row[:i] + zeros[i:])
    return IntMat._new(tuple(low))


def diag_vec(a: IntMat) -> tuple[int, ...]:
    """Diagonal of a square matrix, as an integer vector."""
    if not a.is_square:
        raise ValueError("diagonal of a non-square matrix")
    return tuple(a.data[i][i] for i in range(a.rows))


def common_denominator(
    rows: Iterable[Sequence[Rational]],
) -> tuple[int, list[tuple[int, ...]]]:
    """(d, nums) with d the lcm of every entry's denominator and each row == nums[r] / d."""
    rows = list(rows)
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, [tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows]


def phase_bilinear(x: IntMat, a: RatVec, b: RatVec) -> Phase:
    """The phase a^T x b mod 1, evaluated exactly."""
    if a.dim != x.rows or b.dim != x.cols:
        raise ValueError("dimension mismatch in bilinear pairing")
    da, (na,) = common_denominator((a.entries,))
    db, (nb,) = common_denominator((b.entries,))
    d = da * db
    return Phase._new(Fraction(sum(map(mul, na, x.mul_vec(nb))) % d, d))
