import pytest

from td2g.groups import (
    MembershipError,
    PseudoOrthogonal,
    _columns,
    check_membership,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    gl_generators,
    j_matrix,
    minus_identity,
    pairing_matrix,
    perm_v,
    random_word,
    rotation_n1,
    so_basis,
    standard_generators,
)
from td2g.intlinalg import IntMat, _row_nonzeros, unimodular_inverse
from td2g.rng import XorShift64Star, substream_seeds
from conftest import reference_matmul, reference_random_word, rotation, words


class TestMembership:
    def test_pairing_matrix_is_isometry(self):
        for n in (1, 2, 3):
            assert check_membership(pairing_matrix(n)).iso == 1

    def test_rotation_is_pseudo_isometry(self):
        elem = check_membership(IntMat([[0, -1], [1, 0]]))
        assert elem.iso == -1

    def test_identity(self):
        assert check_membership(IntMat.identity(4)).iso == 1

    def test_j_is_not_a_member(self):
        with pytest.raises(MembershipError):
            check_membership(j_matrix(2))

    def test_odd_dimension(self):
        with pytest.raises(MembershipError):
            check_membership(IntMat.identity(3))

    def test_reports_wrong_scalar(self):
        with pytest.raises(MembershipError, match="scalar 4"):
            check_membership(IntMat.identity(4).scale(2))

    def test_reports_off_pattern(self):
        with pytest.raises(MembershipError, match="not proportional"):
            check_membership(IntMat([[1, 1], [0, 1]]))

    def test_membership_implies_unimodular(self, rng):
        for w in words(2, 10, 31):
            assert w.mat.det() in (1, -1)


class TestEmbedGL:
    def test_identity(self):
        assert embed_gl(IntMat.identity(2)).mat == IntMat.identity(4)

    def test_transvection_block_form(self):
        # frozen from the Gauss-Jordan oracle: (g^T)^{-1} = [[1,0],[-1,1]]
        d = embed_gl(IntMat([[1, 1], [0, 1]]))
        assert d.mat == IntMat(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
        )
        assert d.iso == 1

    def test_n1_sign(self):
        assert embed_gl(IntMat([[-1]])).mat == IntMat([[-1, 0], [0, -1]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            embed_gl(IntMat([[2, 0], [0, 1]]))

    def test_homomorphism(self, rng):
        gens = gl_generators(3)
        for _ in range(10):
            g1 = gens[rng.below(len(gens))]
            g2 = gens[rng.below(len(gens))]
            assert embed_gl(g1) * embed_gl(g2) == embed_gl(g1 * g2)


class TestEmbedSO:
    def test_zero(self):
        assert embed_so(IntMat.zeros(2)).mat == IntMat.identity(4)

    def test_block_form(self):
        b = IntMat([[0, 1], [-1, 0]])
        e = embed_so(b)
        assert e.mat == IntMat(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [-1, 0, 0, 1]]
        )
        assert e.iso == 1

    def test_additive(self):
        b = IntMat([[0, 3], [-3, 0]])
        assert embed_so(b) * embed_so(-b) == PseudoOrthogonal.identity(2)
        b2 = IntMat([[0, -1], [1, 0]])
        assert embed_so(b) * embed_so(b2) == embed_so(b + b2)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            embed_so(IntMat.identity(2))


class TestPermV:
    def test_n1_is_pairing(self):
        assert perm_v(1, 1).mat == pairing_matrix(1)

    def test_swaps_slots(self):
        v = perm_v(2, 1)
        assert v.mat.mul_vec((1, 0, 0, 0)) == (0, 0, 1, 0)
        assert v.mat.mul_vec((0, 0, 1, 0)) == (1, 0, 0, 0)
        assert v.mat.mul_vec((0, 1, 0, 0)) == (0, 1, 0, 0)

    def test_involution(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                assert perm_v(n, i) * perm_v(n, i) == PseudoOrthogonal.identity(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            perm_v(2, 3)


class TestEnumerateN1:
    def test_count(self):
        assert len(enumerate_n1()) == 8

    def test_iso_split(self):
        elems = enumerate_n1()
        assert sum(1 for e in elems if e.iso == 1) == 4
        assert {e.iso for e in elems[:4]} == {1}
        assert {e.iso for e in elems[4:]} == {-1}

    def test_closure_under_products(self):
        elems = enumerate_n1()
        mats = {e.mat for e in elems}
        for a in elems:
            for b in elems:
                assert (a * b).mat in mats

    def test_trusted_elements_equal_checked_ones(self):
        # built unchecked with their known signs; the checked constructor agrees
        for e in enumerate_n1():
            checked = check_membership(IntMat(e.mat.data))
            assert e == checked and e.mat == checked.mat and e.iso == checked.iso

    def test_iso_formula(self):
        # iso = ad + bc for 2x2 members
        for e in enumerate_n1():
            (a, b), (c, d) = e.mat.data
            assert e.iso == a * d + b * c


class TestRandomWord:
    def test_empty_word_is_identity(self):
        gens = standard_generators(2)
        assert random_word(gens, 0, 5) == PseudoOrthogonal.identity(2)

    def test_deterministic(self):
        gens = standard_generators(2)
        assert random_word(gens, 12, 99) == random_word(gens, 12, 99)

    def test_output_is_member(self):
        gens = standard_generators(3)
        for seed in range(5):
            w = random_word(gens, 9, seed)
            recheck = check_membership(w.mat)
            assert recheck.iso == w.iso

    def test_rejects_empty_generators(self):
        with pytest.raises(ValueError):
            random_word([], 3, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_reference_draw_for_draw(self, n):
        # the same words from the same draws: both generators end in the same state
        gens = standard_generators(n)
        for seed in (0, 1, 7, 2**40 + 3):
            for length in (0, 1, 2, 5, 9):
                mine, ref = XorShift64Star(seed), XorShift64Star(seed)
                w = random_word(gens, length, mine)
                expected = reference_random_word(standard_generators(n), length, ref)
                assert w == expected and w.iso == expected.iso
                assert mine.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("seed", [3, 2**63 + 5])
    def test_matches_reference_at_n6_up_to_length_12(self, seed):
        gens = standard_generators(6)
        for length in range(13):
            mine, ref = XorShift64Star(seed + length), XorShift64Star(seed + length)
            w = random_word(gens, length, mine)
            expected = reference_random_word(gens, length, ref)
            assert w == expected and w.iso == expected.iso
            assert mine.next_u64() == ref.next_u64()

    def test_dense_generators_match_reference(self):
        # words as letters: columns with many nonzeros, and iso -1 letters at n=1
        for n in (1, 3):
            gens = words(n, 5, 40 + n, length=7)
            for length in (2, 6, 11):
                w = random_word(gens, length, 17 + length)
                expected = reference_random_word(gens, length, 17 + length)
                assert w == expected and w.iso == expected.iso

    def test_forms_no_matrix_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("random_word multiplied two matrices")

        gens = standard_generators(6)
        expected = reference_random_word(gens, 12, 29)
        monkeypatch.setattr(IntMat, "__mul__", refuse)
        assert random_word(gens, 12, 29) == expected

    def test_column_cache_is_invisible(self):
        # every letter after the first leaves on itself the nonzero entries
        # of each of its columns that is not e_j
        for g in words(2, 3, 31) + list(standard_generators(2)):
            before = (hash(g), repr(g))
            random_word([g], 8, 0)
            cached = [x for x in (g, g.inverse()) if x._columns is not None]
            assert cached
            for x in cached:
                entries = [[(i, v) for i, v in enumerate(c) if v] for c in zip(*x.mat.data)]
                expected = [(j, *e[0], tuple(e[1:])) for j, e in enumerate(entries) if e != [(j, 1)]]
                assert list(x._columns) == expected
            assert (hash(g), repr(g)) == before and g == PseudoOrthogonal(g.mat)

    def test_standard_letters_change_at_most_two_columns(self):
        # all but I and -E; and every changed column has one or two nonzeros
        for n in (2, 6):
            whole = (flip_element(n), minus_identity(n))
            for g in standard_generators(n):
                for x in (g, g.inverse()):
                    changes = _columns(x)
                    assert all(len(rest) <= 1 for _, _, _, rest in changes)
                    assert len(changes) <= 2 or x in whole

    def test_inverse_is_memoised_outside_equality(self):
        for g in standard_generators(2):
            before = (hash(g), repr(g))
            inv = g.inverse()
            assert g.inverse() is inv
            assert inv.mat == unimodular_inverse(g.mat) and inv.iso == g.iso
            assert (g * inv) == PseudoOrthogonal.identity(2)
            assert (hash(g), repr(g)) == before
            assert g == PseudoOrthogonal(g.mat)


class TestStandardGenerators:
    def test_built_once_per_rank(self):
        gens = standard_generators(3)
        assert isinstance(gens, tuple) and standard_generators(3) is gens
        assert standard_generators(2) is not gens

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_matches_a_fresh_build(self, n):
        fresh = standard_generators.__wrapped__(n)
        assert fresh is not standard_generators(n)
        assert [(g.mat, g.iso) for g in fresh] == [(g.mat, g.iso) for g in standard_generators(n)]
        assert len(fresh) == 3 * n * (n - 1) // 2 + n + 3 + (n == 1)


class TestGroupLaws:
    def test_iso_multiplicative(self):
        for n in (1, 2):
            ws = words(n, 12, 7)
            for a, b in zip(ws[::2], ws[1::2]):
                assert (a * b).iso == a.iso * b.iso

    def test_iso_transpose_invariant(self):
        for w in words(2, 10, 11):
            assert check_membership(w.mat.transpose()).iso == w.iso

    def test_inverse_shortcut_matches_unimodular_inverse(self):
        for w in words(2, 10, 13):
            assert w.inverse().mat == unimodular_inverse(w.mat)
            assert w * w.inverse() == PseudoOrthogonal.identity(2)

    def test_inv_transpose_mat(self):
        for w in words(2, 8, 17):
            assert w.inverse().mat.transpose() == unimodular_inverse(w.mat.transpose())

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_block_swap_matches_pairing_products(self, n):
        # inverse and its transpose conjugate by I with a block swap
        i = pairing_matrix(n)
        for w in words(n, 6, 500 + n, length=8):
            assert w.inverse().mat.transpose() == (i * w.mat * i).scale(w.iso)
            assert w.inverse().mat == (i * w.mat.transpose() * i).scale(w.iso)
            assert w.inverse().mat == unimodular_inverse(w.mat)

    def test_distinguished_elements(self):
        assert flip_element(2).iso == 1
        assert minus_identity(2).iso == 1
        assert rotation_n1().iso == -1
        # every element that the unchecked constructor builds passes the
        # checked one with the same sign
        built = [rotation_n1()]
        for n in (1, 2, 3):
            ws = words(n, 6, 70 + n, length=5) + [random_word(standard_generators(n), k, n) for k in (0, 1)]
            built += [PseudoOrthogonal.identity(n), flip_element(n), minus_identity(n)]
            built += [perm_v(n, i) for i in range(1, n + 1)]
            built += [embed_gl(g) for g in gl_generators(n)] + [embed_so(b) for b in so_basis(n)]
            built += ws + [a * b for a, b in zip(ws, ws[1:])]
            built += [w.inverse() for w in ws] + [w.transpose() for w in ws]
        assert {x.iso for x in built} == {1, -1}
        for x in built:
            assert PseudoOrthogonal(x.mat).iso == x.iso


class TestProductRows:
    """A group product is formed from its factors' row nonzeros and keeps its own, invisibly."""

    @staticmethod
    def _letters(n):
        rot = rotation(n)
        assert rot.iso == -1 and (n > 1 or rot == rotation_n1())
        return [rot, rot.inverse(), *standard_generators(n)[:4], *words(n, 6, 310 + n, length=8)]

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_cached_rows_are_the_products_row_nonzeros(self, n):
        letters = self._letters(n)
        for a in letters:
            for b in letters:
                ab = a * b
                assert ab.mat == reference_matmul(a.mat, b.mat)
                assert ab.iso == a.iso * b.iso
                assert ab._rows == _row_nonzeros(ab.mat)
                # the factors' rows were read from, or filled into, their caches
                assert a._rows == _row_nonzeros(a.mat) and b._rows == _row_nonzeros(b.mat)
                # a product with cached rows as either factor of a further product
                for x, y in ((ab, a), (b, ab)):
                    xy = x * y
                    assert xy.mat == reference_matmul(x.mat, y.mat)
                    assert xy._rows == _row_nonzeros(xy.mat)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_cache_is_invisible(self, n):
        letters = self._letters(n)
        for a, b in zip(letters, letters[1:] + letters[:1]):
            ab = a * b
            fresh = PseudoOrthogonal(IntMat([list(r) for r in ab.mat.data]))
            assert ab._rows is not None and fresh._rows is None
            assert ab == fresh and fresh == ab
            assert hash(ab) == hash(fresh)
            assert repr(ab) == repr(fresh)
            assert fresh.iso == ab.iso

    def test_checks_stay(self):
        a = rotation(2)
        with pytest.raises(ValueError, match="rank mismatch"):
            a * rotation(3)
        with pytest.raises(TypeError):
            a * a.mat


class TestSubgroupStructure:
    def test_flip_commutes_with_orthogonal_gl_embeddings(self):
        # I D_P == D_P I for orthogonal P (signed permutations)
        i = flip_element(3)
        perms = [
            IntMat([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
            IntMat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            IntMat([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ]
        for p in perms:
            d = embed_gl(p)
            assert i * d == d * i

    def test_n1_proper_part_is_klein_four(self):
        proper = [e for e in enumerate_n1() if e.iso == 1]
        e = PseudoOrthogonal.identity(1)
        for a in proper:
            assert a * a == e
            for b in proper:
                assert a * b == b * a

    def test_rotation_has_order_four(self):
        r = rotation_n1()
        e = PseudoOrthogonal.identity(1)
        assert r * r != e
        assert r * r * r * r == e


class TestRng:
    def test_determinism(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_zero_seed_works(self):
        r = XorShift64Star(0)
        assert r.next_u64() != r.next_u64()

    def test_substream_seeds_are_prefix(self):
        assert list(substream_seeds(7, 3)) == list(substream_seeds(7, 5))[:3]

    def test_substream_seeds_are_drawn_lazily(self):
        # an iterator, not a list, so that a large count allocates nothing up
        # front; its values are the stream's, in the order the list held them
        seeds = substream_seeds(7, 4)
        assert iter(seeds) is seeds
        first = list(seeds)
        rng = XorShift64Star(7)
        assert first == [rng.next_u64() for _ in range(4)]
        assert first == [5039119598890177668, 14053761120871307622, 6921940630744558973, 14835604043982493462]

    def test_fraction_bounds(self):
        r = XorShift64Star(1)
        for _ in range(100):
            f = r.fraction(4, 7)
            assert -4 <= f <= 4 and 1 <= f.denominator <= 7
