from fractions import Fraction

import pytest

from td2g.intlinalg import IntMat, RatVec
from td2g.groups import random_word, standard_generators
from td2g.rng import XorShift64Star


def rand_ratvec(rng: XorShift64Star, dim: int, max_num: int = 5, max_den: int = 7) -> RatVec:
    return RatVec([rng.fraction(max_num, max_den) for _ in range(dim)])


def rand_intvec(rng: XorShift64Star, dim: int, bound: int = 5) -> tuple[int, ...]:
    return tuple(rng.int_in(-bound, bound) for _ in range(dim))


def words(n: int, count: int, seed: int, length: int = 6):
    gens = standard_generators(n)
    rng = XorShift64Star(seed)
    return [random_word(gens, length, rng) for _ in range(count)]


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


@pytest.fixture
def rng():
    return XorShift64Star(0xC0FFEE)
