import pytest

from td2g.groups import (
    MembershipError,
    PseudoOrthogonal,
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
    standard_generators,
)
from td2g.intlinalg import IntMat, unimodular_inverse
from td2g.rng import XorShift64Star, substream_seeds
from conftest import words


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
            assert w.inv_transpose_mat() == unimodular_inverse(w.mat.transpose())

    def test_distinguished_elements(self):
        assert flip_element(2).iso == 1
        assert minus_identity(2).iso == 1
        assert rotation_n1().iso == -1


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
        assert substream_seeds(7, 3) == substream_seeds(7, 5)[:3]

    def test_fraction_bounds(self):
        r = XorShift64Star(1)
        for _ in range(100):
            f = r.fraction(4, 7)
            assert -4 <= f <= 4 and 1 <= f.denominator <= 7
