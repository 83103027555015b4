from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from td2g.intlinalg import (
    IntMat,
    Phase,
    RatVec,
    diag_vec,
    phase_bilinear,
    strict_lower_split,
    unimodular_inverse,
)
from td2g.groups import j_matrix, pairing_matrix, perm_v, embed_gl
from conftest import fraction_inverse


small_ints = st.integers(min_value=-30, max_value=30)


def skew(entries, k):
    m = [[0] * k for _ in range(k)]
    pos = 0
    for i in range(k):
        for j in range(i + 1, k):
            m[i][j] = entries[pos]
            m[j][i] = -entries[pos]
            pos += 1
    return IntMat(m)


class TestMatMul:
    def test_pairing_is_involution(self):
        for n in (1, 2, 3):
            i = pairing_matrix(n)
            assert i * i == IntMat.identity(2 * n)

    def test_j_squares_to_zero(self):
        for n in (1, 2, 3):
            j = j_matrix(n)
            assert j * j == IntMat.zeros(2 * n)

    def test_ij_product_n1(self):
        # hand multiplication: [[0,1],[1,0]] * [[0,0],[1,0]]
        assert pairing_matrix(1) * j_matrix(1) == IntMat([[1, 0], [0, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntMat.identity(2) * IntMat.identity(3)


class TestUnimodularInverse:
    def test_identity(self):
        assert unimodular_inverse(IntMat.identity(4)) == IntMat.identity(4)

    def test_pairing(self):
        assert unimodular_inverse(pairing_matrix(2)) == pairing_matrix(2)

    def test_gl_block_example(self):
        # D_A for A = [[1,1],[0,1]] inverts to D_{A^{-1}}, A^{-1} = [[1,-1],[0,1]]
        d = embed_gl(IntMat([[1, 1], [0, 1]])).mat
        d_inv_expected = embed_gl(IntMat([[1, -1], [0, 1]])).mat
        assert unimodular_inverse(d) == d_inv_expected

    def test_against_fraction_oracle(self):
        m = IntMat([[2, 1, 0], [1, 1, 0], [3, -2, 1]])
        assert m.det() in (1, -1)
        inv = unimodular_inverse(m)
        oracle = fraction_inverse(m)
        assert [[Fraction(x) for x in row] for row in inv.data] == oracle

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            unimodular_inverse(IntMat([[1, 0, 0], [0, 1, 0]]))

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(IntMat([[2, 0], [0, 1]]))

    @given(st.lists(small_ints, min_size=3, max_size=3))
    def test_two_sided_inverse(self, params):
        a, b, c = params
        # unipotent upper triangular: always unimodular
        m = IntMat([[1, a, b], [0, 1, c], [0, 0, 1]])
        inv = unimodular_inverse(m)
        assert m * inv == IntMat.identity(3)
        assert inv * m == IntMat.identity(3)


class TestStrictLowerSplit:
    def test_pairing_defect_splits_to_j(self):
        for n in (1, 2, 3):
            b = j_matrix(n) - j_matrix(n).transpose()
            assert strict_lower_split(b) == j_matrix(n)

    def test_zero(self):
        assert strict_lower_split(IntMat.zeros(4)) == IntMat.zeros(4)

    def test_swap_involution_defect(self):
        # B_{V_i} = E_{i+n,i} - E_{i,i+n} splits to E_{i+n,i}
        n = 3
        from td2g.twogroup import b_matrix

        for i in (1, 2, 3):
            b = b_matrix(perm_v(n, i))
            assert b == IntMat.basis(2 * n, i + n, i) - IntMat.basis(2 * n, i, i + n)
            assert strict_lower_split(b) == IntMat.basis(2 * n, i + n, i)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            strict_lower_split(IntMat.identity(2))

    @given(st.lists(small_ints, min_size=6, max_size=6))
    def test_roundtrip(self, entries):
        b = skew(entries, 4)
        low = strict_lower_split(b)
        assert low - low.transpose() == b
        assert all(low.data[i][j] == 0 for i in range(4) for j in range(i, 4))


class TestDiagVec:
    def test_identity(self):
        assert diag_vec(IntMat.identity(5)) == (1,) * 5

    def test_pairing_n1(self):
        assert diag_vec(pairing_matrix(1)) == (0, 0)

    def test_swap_multiplicator_matrix(self):
        n = 2
        h = IntMat.basis(2 * n, 1, n + 1) + IntMat.basis(2 * n, n + 1, 1)
        assert diag_vec(h) == (0,) * (2 * n)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            diag_vec(IntMat([[1, 2, 3], [4, 5, 6]]))


class TestPhaseBilinear:
    def test_integer_vectors_vanish(self):
        j = j_matrix(2)
        a = RatVec.from_ints((1, -2, 3, 7))
        b = RatVec.from_ints((0, 4, -1, 2))
        assert phase_bilinear(j, a, b).is_zero()

    def test_pairs_second_slot_with_first(self):
        j = j_matrix(1)
        assert phase_bilinear(
            j, RatVec([Fraction(1, 2), 0]), RatVec([0, Fraction(1, 3)])
        ).is_zero()
        assert phase_bilinear(
            j, RatVec([0, Fraction(1, 2)]), RatVec([Fraction(1, 3), 0])
        ) == Phase(Fraction(1, 6))

    def test_direct_sum_oracle(self, rng):
        # independent double loop against the packed implementation
        x = IntMat([[2, -1, 0, 3], [0, 1, 1, 0], [5, 0, -2, 1], [0, 0, 7, 1]])
        for _ in range(20):
            a = RatVec([rng.fraction() for _ in range(4)])
            b = RatVec([rng.fraction() for _ in range(4)])
            total = Fraction(0)
            for i in range(4):
                for j in range(4):
                    total += a.entries[i] * x.data[i][j] * b.entries[j]
            assert phase_bilinear(x, a, b) == Phase(total)

    def test_biadditive(self, rng):
        x = j_matrix(2)
        for _ in range(20):
            a1 = RatVec([rng.fraction() for _ in range(4)])
            a2 = RatVec([rng.fraction() for _ in range(4)])
            b = RatVec([rng.fraction() for _ in range(4)])
            assert phase_bilinear(x, a1 + a2, b) == phase_bilinear(x, a1, b) + phase_bilinear(x, a2, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_bilinear(j_matrix(1), RatVec([1, 2, 3]), RatVec([1, 2]))


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=60)


class TestPhase:
    @given(fracs, fracs)
    def test_commutative(self, a, b):
        assert Phase(a) + Phase(b) == Phase(b) + Phase(a)

    @given(fracs, fracs, fracs)
    def test_associative(self, a, b, c):
        assert (Phase(a) + Phase(b)) + Phase(c) == Phase(a) + (Phase(b) + Phase(c))

    @given(fracs)
    def test_canonical_representation(self, a):
        p = Phase(a)
        q = Phase(a + 3)
        assert 0 <= p.frac < 1
        assert p == q and hash(p) == hash(q)
        assert p.frac == q.frac

    @given(fracs)
    def test_negation(self, a):
        assert (Phase(a) + (-Phase(a))).is_zero()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Phase(0.5)

    def test_scale(self):
        assert Phase(Fraction(1, 3)).scale(2) == Phase(Fraction(2, 3))
        assert Phase(Fraction(1, 3)).scale(3).is_zero()


class TestIntMat:
    def test_entries_must_be_int(self):
        for data in ([[1.5, 0], [0, 1]], [[True, 0], [0, 1]], [[1, Fraction(1)], [0, 1]]):
            with pytest.raises(TypeError):
                IntMat(data)

    def test_rejects_ragged_and_empty(self):
        for data in ([[1, 2], [3]], [], [[]], [[], []]):
            with pytest.raises(ValueError):
                IntMat(data)

    def test_derived_constructors_check_their_arguments(self):
        for make in (
            lambda: IntMat.identity(0),
            lambda: IntMat.zeros(2, 0),
            lambda: IntMat.basis(0, 1, 1),
        ):
            with pytest.raises(ValueError):
                make()
        with pytest.raises(TypeError):
            IntMat.identity(2).scale(Fraction(1, 2))

    @given(
        st.lists(small_ints, min_size=6, max_size=6),
        st.lists(small_ints, min_size=6, max_size=6),
    )
    def test_results_equal_checked_construction(self, p, q):
        # every matrix built by the unchecked constructor equals, hashes and
        # prints as the checked constructor's matrix of the same entries
        a = IntMat([p[:3], p[3:]])
        b = IntMat([q[:2], q[2:4], q[4:]])
        c = IntMat([q[:3], q[3:]])
        ab = a * b
        results = (
            ab, b * a, a + c, a - c, -a, a.scale(-3), a.transpose(),
            strict_lower_split(ab - ab.transpose()), IntMat.from_blocks(ab, ab, ab, ab),
        )
        for m in results:
            checked = IntMat(m.data)
            assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
            assert (m.rows, m.cols) == (checked.rows, checked.cols)
            assert all(type(x) is int for row in m.data for x in row)

    def test_immutable(self):
        m = IntMat.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_det_matches_cofactor_on_small(self):
        m = IntMat([[3, 1, -2], [0, 2, 5], [4, -1, 1]])
        # cofactor expansion along the first row, by hand
        expected = 3 * (2 * 1 - 5 * (-1)) - 1 * (0 * 1 - 5 * 4) + (-2) * (0 * (-1) - 2 * 4)
        assert m.det() == expected

    def test_det_singular(self):
        assert IntMat([[1, 2], [2, 4]]).det() == 0
