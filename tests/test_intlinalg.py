from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from td2g.intlinalg import (
    IntMat,
    Phase,
    RatVec,
    common_denominator,
    diag_vec,
    phase_bilinear,
    strict_lower_split,
    _gather,
    unimodular_inverse,
)
from td2g.groups import embed_gl, gl_generators, j_matrix, pairing_matrix, perm_v, standard_generators
from td2g.twogroup import b_split, quadratic_phase
from conftest import (
    fraction_inverse,
    reference_matmul,
    reference_phase_bilinear,
    reference_quadratic_phase,
    reference_unimodular_inverse,
    words,
)

# Entries the rational kernels must handle: zero, negative, integral and
# large-denominator values.
EDGE_FRACTIONS = (
    Fraction(0),
    Fraction(-7, 3),
    Fraction(4),
    Fraction(5, 10**12 + 39),
    Fraction(-(10**15), 999_999_937),
)


def edge_ratvec(rng, dim: int) -> RatVec:
    return RatVec(
        [EDGE_FRACTIONS[rng.below(5)] if rng.below(2) else rng.fraction(9, 13) for _ in range(dim)]
    )


small_ints = st.integers(min_value=-30, max_value=30)

# Matrix entries for the product kernel: mostly zeros, as in group words,
# plus small and negative values and values far above 2**64.
BIG = 2**64
product_entries = st.one_of(
    st.just(0),
    st.just(0),
    small_ints,
    st.integers(min_value=-(BIG**3), max_value=BIG**3),
)


@st.composite
def product_factors(draw):
    """An r x k and a k x c matrix, each side between 1 and 6."""
    r, k, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    a = draw(st.lists(st.lists(product_entries, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(product_entries, min_size=c, max_size=c), min_size=k, max_size=k))
    return IntMat(a), IntMat(b)


MIXED = IntMat([[BIG + 1, 0, -7], [0, 0, 0], [-3 * BIG, 2, 0]])
PRODUCT_CASES = {
    "row-times-column": (IntMat([[1, -2, 0, BIG]]), IntMat([[3], [0], [5], [-BIG]])),
    "column-times-row": (IntMat([[2], [0], [-BIG]]), IntMat([[0, 4, -1]])),
    "zero-times-zero": (IntMat.zeros(3), IntMat.zeros(3)),
    "zero-times-dense": (IntMat.zeros(3), MIXED),
    "dense-times-zero": (MIXED, IntMat.zeros(3, 2)),
    "identity-left": (IntMat.identity(3), MIXED),
    "identity-right": (MIXED, IntMat.identity(3)),
    "zero-row-and-column": (MIXED, MIXED.transpose()),
    "zero-row-of-right-factor": (IntMat([[1, 5, 2], [-1, 9, 0]]), MIXED),
    "negative-entries": (-MIXED, IntMat([[-1, -2], [0, -3], [-4, 0]])),
    "above-2-64": (IntMat([[BIG**2, -BIG], [BIG, 1]]), IntMat([[-BIG, 3], [BIG**2, -1]])),
}


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
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2x2\) \* \(3x3\)"):
            IntMat.identity(2) * IntMat.identity(3)
        with pytest.raises(ValueError, match=r"dimension mismatch: \(1x3\) \* \(1x3\)"):
            IntMat([[1, 0, 2]]) * IntMat([[0, 0, 1]])

    def test_non_matrix_operand(self):
        m = IntMat.identity(2)
        assert m.__mul__(3) is NotImplemented
        for bad in (3, Fraction(1, 2), [[1, 0], [0, 1]]):
            with pytest.raises(TypeError):
                m * bad

    @pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
    def test_matches_dense_reference(self, case):
        a, b = PRODUCT_CASES[case]
        assert a * b == reference_matmul(a, b)

    @given(product_factors())
    def test_matches_dense_reference_on_random_factors(self, factors):
        a, b = factors
        assert a * b == reference_matmul(a, b)

    def test_matches_dense_reference_on_group_words(self):
        # short and long words in standard_generators(6) and three (B_A)_low splits
        ws = words(6, 6, seed=71) + words(6, 3, seed=72, length=40)
        mats = [w.mat for w in ws] + [b_split(w)[1] for w in ws[:3]]
        for a in mats:
            for b in mats:
                assert a * b == reference_matmul(a, b)


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_two_pass_reference_on_generators_and_words(self, n):
        mats = [g.mat for g in standard_generators(n)]
        mats += [g.transpose() for g in gl_generators(n)]
        mats += [w.mat for w in words(n, 6, 1_000 + n, length=8)]
        for m in mats:
            assert unimodular_inverse(m) == reference_unimodular_inverse(m)

    @pytest.mark.parametrize(
        "rows, inverse",
        [
            # pivot 2 at the first column, final pivot 1
            ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
            # zero pivot at the first column
            ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
            # zero pivot at the second column, after the first was eliminated; det = -1
            ([[1, 2, 0], [1, 2, 1], [0, 1, 0]], [[1, 0, -2], [0, 0, 1], [-1, 1, 0]]),
        ],
    )
    def test_mid_elimination_pivot_and_row_swap(self, rows, inverse):
        m = IntMat(rows)
        inv = unimodular_inverse(m)
        assert inv == IntMat(inverse) == reference_unimodular_inverse(m)
        assert m * inv == IntMat.identity(m.rows) == inv * m
        assert [[Fraction(x) for x in row] for row in inv.data] == fraction_inverse(m)

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([[1, 1], [1, 1]], 0),
            ([[0, 0], [0, 1]], 0),
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
            ([[2, 0], [0, 1]], 2),
            ([[0, 1], [2, 0]], -2),
        ],
    )
    def test_refusal_messages_name_the_determinant(self, rows, det):
        m = IntMat(rows)
        message = f"matrix is not unimodular (det = {det})"
        for inverse in (unimodular_inverse, reference_unimodular_inverse):
            with pytest.raises(ValueError) as exc:
                inverse(m)
            assert str(exc.value) == message

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

    def test_matches_reference_on_edge_entries(self, rng):
        for k in (1, 2, 4, 6):
            zero = RatVec.zero(k)
            for _ in range(15):
                x = IntMat([[rng.int_in(-9, 9) for _ in range(k)] for _ in range(k)])
                a, b = edge_ratvec(rng, k), edge_ratvec(rng, k)
                assert phase_bilinear(x, a, b) == reference_phase_bilinear(x, a, b)
                assert phase_bilinear(x, zero, b).is_zero()
                assert phase_bilinear(x, a, zero).is_zero()


class TestQuadraticPhase:
    def test_matches_reference_on_edge_entries(self, rng):
        for k in (2, 4, 6):
            for _ in range(15):
                x = IntMat([[rng.int_in(-9, 9) for _ in range(k)] for _ in range(k)])
                h = x + x.transpose()
                v = edge_ratvec(rng, k)
                int_lin = tuple(rng.int_in(-5, 5) for _ in range(k))
                # rational characters appear only in negative controls, but
                # the kernel must still be exact on them
                rat_lin = tuple(EDGE_FRACTIONS[rng.below(5)] + rng.fraction(3, 8) for _ in range(k))
                for lin in ((0,) * k, int_lin, rat_lin):
                    assert quadratic_phase(h, lin, v) == reference_quadratic_phase(h, lin, v)
                assert quadratic_phase(h, rat_lin, RatVec.zero(k)).is_zero()

    def test_vanishes_on_the_lattice(self, rng):
        h = IntMat([[3, 1], [1, -5]])
        for _ in range(10):
            v = RatVec.from_ints((rng.int_in(-20, 20), rng.int_in(-20, 20)))
            assert quadratic_phase(h, (2, -7), v).is_zero()


class TestCommonDenominator:
    def test_numerators_over_lcm(self):
        rows = [(Fraction(1, 6), Fraction(-3, 4)), (Fraction(0), 2), (Fraction(5, 9),)]
        d, nums = common_denominator(rows)
        assert d == 36
        assert nums == [(6, -27), (0, 72), (20,)]
        assert all(type(x) is int for row in nums for x in row)

    def test_empty_and_integral(self):
        assert common_denominator([]) == (1, [])
        assert common_denominator([(3, -4)]) == (1, [(3, -4)])


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

    def test_rational_constructors_take_only_int_and_fraction(self):
        for bad in ("1/3", "0.75", True, 0.5, Decimal("0.1"), None, 1j):
            with pytest.raises(TypeError):
                RatVec([Fraction(1, 3), bad])
            with pytest.raises(TypeError):
                Phase(bad)
            with pytest.raises(TypeError):
                RatVec([1, 2]).scale(bad)
            with pytest.raises(TypeError):
                Phase(Fraction(1, 3)) + bad
        with pytest.raises(TypeError):
            Phase(Fraction(1, 3)).scale(Fraction(1, 2))
        assert RatVec([1, Fraction(2, 4)]).entries == (Fraction(1), Fraction(1, 2))
        assert Phase(-3) == Phase(0) and Phase(Fraction(7, 3)).frac == Fraction(1, 3)

    @given(
        st.lists(fracs, min_size=4, max_size=4),
        st.lists(fracs, min_size=4, max_size=4),
        st.integers(min_value=-9, max_value=9),
    )
    def test_trusted_results_equal_checked_construction(self, p, q, k):
        # every vector and phase built by a trusted constructor equals,
        # hashes and prints as the checked constructor's of the same value
        u, v = RatVec(p), RatVec(q)
        x = IntMat([[2, -1, 0, 3], [0, 1, 1, 0], [5, 0, -2, 1], [0, 0, 7, 1]])
        h = x + x.transpose()
        vectors = (
            u + v, u - v, -u, u.scale(Fraction(k, 7)), u.scale(k), RatVec(u.entries + v.entries),
            x.mul_ratvec(u),
        )
        for w in vectors:
            checked = RatVec(w.entries)
            assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)
            assert all(type(e) is Fraction for e in w.entries)
        phases = (
            Phase(p[0]) + Phase(q[0]), Phase(p[1]) - q[1], Phase(p[2]) + k, -Phase(p[3]),
            Phase(q[2]).scale(k), phase_bilinear(x, u, v), quadratic_phase(h, (k, 1, 0, -2), u),
        )
        for ph in phases:
            checked = Phase(ph.frac)
            assert ph == checked and hash(ph) == hash(checked) and repr(ph) == repr(checked)
            assert type(ph.frac) is Fraction and 0 <= ph.frac < 1

    def test_scale(self):
        assert Phase(Fraction(1, 3)).scale(2) == Phase(Fraction(2, 3))
        assert Phase(Fraction(1, 3)).scale(3).is_zero()


class TestGather:
    def test_any_length_gives_a_tuple(self):
        s = "abcdef"
        assert _gather([])(s) == ()
        assert _gather([4])(s) == ("e",)
        assert _gather([5, 0, 5])(s) == ("f", "a", "f")
        table = {(1, 2): 7, (3, 4): 8}
        assert _gather([(1, 2)])(table) == (7,)
        assert _gather([(3, 4), (1, 2)])(table) == (8, 7)
        with pytest.raises(KeyError):
            _gather([(9, 9)])(table)

    def test_one_helper(self):
        from td2g import kinvariant, tdcocycle

        assert kinvariant._gather is _gather and tdcocycle._gather is _gather


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
