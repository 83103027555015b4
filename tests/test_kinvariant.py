from fractions import Fraction

import pytest

from td2g.groups import (
    PseudoOrthogonal,
    check_membership,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    pairing_matrix,
    perm_v,
)
from td2g.intlinalg import IntMat, Phase, RatVec, unimodular_inverse
from td2g.kinvariant import (
    DoubleCoverElement,
    check_cocycle_identity,
    check_two_torsion,
    check_vanishing_on_subgroup,
    double_cover_identity,
    double_cover_mul,
    gamma,
    k_cocycle,
    k_eval,
    twisted_action,
    v_elements,
    z_elements,
)
from td2g.twogroup import b_matrix, strict_lower_split
from td2g.intlinalg import diag_vec
from conftest import rand_intvec, rand_ratvec, words

# Frozen by the k_eval integer-recovery oracle (balanced residues at
# x = e_i/N for N = 1009 and 1013, equal for both moduli).
NONZERO_K_TRIPLE = (
    IntMat([[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [1, 0, 0, 1]]),
    IntMat([[-1, 0, 0, 0], [1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 0, 0]]),
    IntMat([[0, 0, -1, -1], [-1, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]]),
)
NONZERO_K_VALUE = (1, 0, 0, 0)

# Frozen by two independent computations: the closed form with the
# product transposed-then-inverted, and the factored A^{-T} B^{-T} path
# through unimodular_inverse.
GAMMA_PAIR = (
    IntMat([[0, 1, -1, 0], [1, 0, 0, 1], [-1, 0, 0, 0], [0, 1, 0, 0]]),
    IntMat([[0, 0, 1, -1], [0, 0, 0, 1], [1, 0, 0, 0], [1, 1, 0, 0]]),
)
GAMMA_VALUE = (0, 0, 0, -1)


def recover_from_eval(a, b, c, modulus: int):
    """Integer recovery of the cocycle vector from the eval path alone."""
    dim = 2 * a.n
    out = []
    for i in range(dim):
        e = RatVec([Fraction(1, modulus) if j == i else Fraction(0) for j in range(dim)])
        ph = k_eval(a, b, c, e)
        scaled = ph.frac * modulus
        assert scaled.denominator == 1
        r = scaled.numerator % modulus
        out.append(r if r <= modulus // 2 else r - modulus)
    return tuple(out)


class TestKCocycle:
    def test_normalized(self):
        e = PseudoOrthogonal.identity(2)
        a, b = words(2, 2, 101)
        assert k_cocycle(e, a, b) == (0, 0, 0, 0)
        assert k_cocycle(a, e, b) == (0, 0, 0, 0)
        assert k_cocycle(a, b, e) == (0, 0, 0, 0)

    def test_n1_vanishes_exhaustively(self):
        elems = enumerate_n1()
        for a in elems:
            for b in elems:
                for c in elems:
                    assert k_cocycle(a, b, c) == (0, 0)

    def test_flip_triple(self):
        i = flip_element(2)
        assert k_cocycle(i, i, i) == (0, 0, 0, 0)

    def test_spec_example_triple(self):
        a = embed_so(IntMat([[0, 1], [-1, 0]]))
        b = embed_gl(IntMat([[1, 1], [0, 1]]))
        c = perm_v(2, 1)
        oracle = recover_from_eval(a, b, c, 1009)
        assert oracle == recover_from_eval(a, b, c, 1013)
        assert k_cocycle(a, b, c) == oracle == (0, 0, 0, 0)

    def test_frozen_nonzero_triple(self):
        a, b, c = (check_membership(m) for m in NONZERO_K_TRIPLE)
        oracle = recover_from_eval(a, b, c, 1009)
        assert oracle == recover_from_eval(a, b, c, 1013)
        assert oracle == NONZERO_K_VALUE
        assert k_cocycle(a, b, c) == NONZERO_K_VALUE

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            k_cocycle(
                PseudoOrthogonal.identity(1),
                PseudoOrthogonal.identity(2),
                PseudoOrthogonal.identity(2),
            )


class TestKEval:
    def test_vanishes_on_lattice(self, rng):
        ws = words(2, 6, 103)
        for a, b, c in zip(ws[::3], ws[1::3], ws[2::3]):
            for _ in range(5):
                x = RatVec.from_ints(rand_intvec(rng, 4))
                assert k_eval(a, b, c, x).is_zero()

    def test_identity_triple(self, rng):
        e = PseudoOrthogonal.identity(2)
        assert k_eval(e, e, e, rand_ratvec(rng, 4)).is_zero()

    def test_matches_closed_form(self, rng):
        for n in (1, 2, 3):
            ws = words(n, 9, 107 + n)
            for a, b, c in zip(ws[::3], ws[1::3], ws[2::3]):
                m = k_cocycle(a, b, c)
                for _ in range(10):
                    x = rand_ratvec(rng, 2 * n)
                    assert k_eval(a, b, c, x) == Phase(RatVec.from_ints(m).dot(x))

    def test_linear(self, rng):
        a, b, c = (check_membership(m) for m in NONZERO_K_TRIPLE)
        for _ in range(10):
            x, y = rand_ratvec(rng, 4), rand_ratvec(rng, 4)
            assert k_eval(a, b, c, x + y) == k_eval(a, b, c, x) + k_eval(a, b, c, y)


class TestTwistedAction:
    def test_identity(self):
        assert twisted_action(PseudoOrthogonal.identity(2), (1, 2, 3, 4)) == (1, 2, 3, 4)

    def test_flip(self):
        # I*I*I = I, so the flip acts by the pairing matrix itself
        i = flip_element(2)
        assert twisted_action(i, (1, 2, 3, 4)) == pairing_matrix(2).mul_vec((1, 2, 3, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_pairing_product(self, rng, n):
        i = pairing_matrix(n)
        for w in words(n, 6, 600 + n, length=8):
            v = rand_intvec(rng, 2 * n)
            assert twisted_action(w, v) == (i * w.mat * i).mul_vec(v)

    def test_multiplicative(self, rng):
        ws = words(2, 8, 109)
        for a, b in zip(ws[::2], ws[1::2]):
            v = rand_intvec(rng, 4)
            assert twisted_action(a * b, v) == twisted_action(a, twisted_action(b, v))


class TestCocycleIdentity:
    def test_with_unit(self):
        e = PseudoOrthogonal.identity(2)
        a, b, c = words(2, 3, 113)
        assert check_cocycle_identity(e, a, b, c)
        assert check_cocycle_identity(a, b, e, c)

    def test_random_words(self):
        for n in (2, 3):
            ws = words(n, 12, 127 + n)
            for q in zip(ws[::4], ws[1::4], ws[2::4], ws[3::4]):
                assert check_cocycle_identity(*q)


class TestGamma:
    def test_left_unit(self):
        e = PseudoOrthogonal.identity(2)
        b = words(2, 1, 131)[0]
        assert gamma(e, b) == (0, 0, 0, 0)

    def test_right_unit(self):
        e = PseudoOrthogonal.identity(2)
        a = words(2, 1, 137)[0]
        assert gamma(a, e) == (0, 0, 0, 0)

    def test_frozen_pair_two_paths(self):
        p = check_membership(GAMMA_PAIR[0])
        q = check_membership(GAMMA_PAIR[1])
        assert gamma(p, q) == GAMMA_VALUE
        # independent recomputation through unimodular_inverse of each factor
        w = diag_vec(q.mat.transpose() * strict_lower_split(b_matrix(p)) * q.mat)
        indep = unimodular_inverse(p.mat.transpose()).mul_vec(
            unimodular_inverse(q.mat.transpose()).mul_vec(w)
        )
        assert tuple(-x for x in indep) == GAMMA_VALUE


class TestGammaStructure:
    def test_half_pairing_conjugates_have_zero_diagonal(self):
        # diag(B^T J B) == 0 for members: diag(B^T I B) = +-diag(I) = 0 and
        # B^T I B = B^T J B + (B^T J B)^T
        from td2g.groups import j_matrix

        for w in words(2, 8, 141):
            assert diag_vec(w.mat.transpose() * j_matrix(2) * w.mat) == (0, 0, 0, 0)

    def test_gamma_alternate_form(self):
        # consequently gamma_{A,B} == +(AB)^{-T} (B^T (A^T J A)_low B)^diag,
        # with the entrywise strictly-lower projection of A^T J A
        from td2g.groups import j_matrix

        def strict_lower_part(m):
            return IntMat(
                [
                    [x if i > j else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(m.data)
                ]
            )

        ws = words(2, 8, 143)
        for a, b in zip(ws[::2], ws[1::2]):
            inner = strict_lower_part(a.mat.transpose() * j_matrix(2) * a.mat)
            alt = (a * b).inv_transpose_mat().mul_vec(
                diag_vec(b.mat.transpose() * inner * b.mat)
            )
            assert gamma(a, b) == alt


class TestTwoTorsion:
    def test_with_unit(self):
        e = PseudoOrthogonal.identity(2)
        a, b = words(2, 2, 139)
        assert check_two_torsion(e, a, b)
        assert check_two_torsion(a, e, b)
        assert check_two_torsion(a, b, e)

    def test_random_words(self):
        for n in (2, 3):
            ws = words(n, 9, 149 + n)
            for t in zip(ws[::3], ws[1::3], ws[2::3]):
                assert check_two_torsion(*t)


class TestSubgroupVanishing:
    def test_z_exhaustive(self):
        for n in (1, 2, 3):
            assert len(z_elements(n)) == 2
            assert check_vanishing_on_subgroup("Z", n)

    def test_v_exhaustive(self):
        for n in (1, 2, 3):
            assert len(v_elements(n)) == 2**n
            assert check_vanishing_on_subgroup("V", n)

    def test_gl_and_so_sampled(self):
        assert check_vanishing_on_subgroup("GL", 2, trials=50, seed=3)
        assert check_vanishing_on_subgroup("SO", 2, trials=50, seed=3)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            check_vanishing_on_subgroup("SL", 2)


class TestDoubleCover:
    def test_unit(self, rng):
        e = double_cover_identity(2)
        for w in words(2, 4, 151):
            x = DoubleCoverElement(tuple(rng.below(2) for _ in range(4)), w)
            assert double_cover_mul(e, x) == x
            assert double_cover_mul(x, e) == x

    def test_associative(self, rng):
        ws = words(2, 9, 157)
        for a, b, c in zip(ws[::3], ws[1::3], ws[2::3]):
            xs = [
                DoubleCoverElement(tuple(rng.below(2) for _ in range(4)), g)
                for g in (a, b, c)
            ]
            lhs = double_cover_mul(double_cover_mul(xs[0], xs[1]), xs[2])
            rhs = double_cover_mul(xs[0], double_cover_mul(xs[1], xs[2]))
            assert lhs == rhs

    def test_projection_homomorphism(self, rng):
        a, b = words(2, 2, 163)
        x = DoubleCoverElement(tuple(rng.below(2) for _ in range(4)), a)
        y = DoubleCoverElement(tuple(rng.below(2) for _ in range(4)), b)
        assert double_cover_mul(x, y).a == a * b

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            DoubleCoverElement((0, 1, 2, 0), PseudoOrthogonal.identity(2))
