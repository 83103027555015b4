from fractions import Fraction

import pytest

from td2g.groups import (
    PseudoOrthogonal,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    j_matrix,
    pairing_matrix,
    perm_v,
)
from td2g.intlinalg import IntMat, Phase, RatVec, strict_lower_split
from td2g.twogroup import (
    quadratic_phase,
    Mor,
    Obj,
    automorphism_from_int,
    automorphism_to_int,
    b_matrix,
    b_split,
    beta_multiplicator,
    eval_mor,
    h_matrix,
    mor_hcompose,
    mor_identity,
    mor_inverse,
    mor_vcompose,
    obj_inverse,
    obj_product,
    obj_unit,
    section,
    x_matrix,
)
from conftest import rand_intvec, rand_ratvec, words


class TestSection:
    def test_unit(self):
        s = section(PseudoOrthogonal.identity(2))
        assert s == obj_unit(2)

    def test_flip_phase_is_j(self):
        for n in (1, 2, 3):
            assert section(flip_element(n)).x == j_matrix(n)

    def test_gl_phase_vanishes(self):
        assert section(embed_gl(IntMat([[1, 2], [1, 1]]))).x == IntMat.zeros(4)

    def test_so_phase_block(self):
        b = IntMat([[0, 5], [-5, 0]])
        low = strict_lower_split(b)
        expected = IntMat.from_blocks(low, IntMat.zeros(2), IntMat.zeros(2), IntMat.zeros(2))
        assert section(embed_so(b)).x == expected

    def test_n1_general_form(self):
        # eta has matrix [[0,0],[bc,0]] for [[a,b],[c,d]]
        for e in enumerate_n1():
            (_, b), (c, _) = e.mat.data
            assert section(e).x == IntMat([[0, 0], [b * c, 0]])

    def test_projection_section_roundtrip(self):
        for w in words(2, 10, 5):
            assert section(w).g == w

    def test_section_data(self):
        b_a, b_low = b_split(flip_element(2))
        assert b_a == b_low - b_low.transpose()
        assert b_low == j_matrix(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_cached_split_matches_fresh(self, n):
        for w in words(n, 4, 100 + n, length=8):
            before = (hash(w), repr(w))
            b_a, b_low = b_split(w)
            assert b_split(w)[0] is b_a and b_split(w)[1] is b_low
            assert b_a == b_matrix(w)
            assert b_low == strict_lower_split(b_matrix(w))
            # the cache is invisible to equality, hashing and repr
            uncached = PseudoOrthogonal(w.mat, _iso=w.iso)
            assert w == uncached and uncached == w
            assert (hash(w), repr(w)) == before == (hash(uncached), repr(uncached))


class TestObj:
    def test_rejects_bad_phase_matrix(self):
        g = flip_element(2)
        with pytest.raises(ValueError):
            Obj(g, IntMat.zeros(4))

    def test_product_unit(self):
        o = section(perm_v(2, 1))
        assert obj_product(obj_unit(2), o) == o
        assert obj_product(o, obj_unit(2)) == o

    def test_flip_squared_phase_is_pairing(self):
        for n in (1, 2):
            s = section(flip_element(n))
            sq = obj_product(s, s)
            assert sq.g == PseudoOrthogonal.identity(n)
            assert sq.x == pairing_matrix(n)

    def test_so_sections_compose_strictly(self):
        b1 = IntMat([[0, 2], [-2, 0]])
        b2 = IntMat([[0, -7], [7, 0]])
        lhs = obj_product(section(embed_so(b1)), section(embed_so(b2)))
        assert lhs == section(embed_so(b1 + b2))

    def test_product_associative(self):
        ws = words(2, 9, 23)
        for a, b, c in zip(ws[::3], ws[1::3], ws[2::3]):
            o1, o2, o3 = section(a), section(b), section(c)
            assert obj_product(obj_product(o1, o2), o3) == obj_product(o1, obj_product(o2, o3))

    def test_inverse(self):
        assert obj_inverse(obj_unit(2)) == obj_unit(2)
        s = section(flip_element(2))
        i = pairing_matrix(2)
        j = j_matrix(2)
        assert obj_inverse(s).x == -(i * j * i)
        for w in words(2, 6, 29):
            o = section(w)
            assert obj_product(o, obj_inverse(o)) == obj_unit(2)
            assert obj_product(obj_inverse(o), o) == obj_unit(2)

    def test_closure_of_validity(self):
        # constructor revalidates, so products/inverses of valid objects are valid
        ws = words(3, 8, 41)
        for a, b in zip(ws[::2], ws[1::2]):
            obj_product(section(a), obj_inverse(section(b)))


class TestMultiplicator:
    def test_flip_pair(self):
        for n in (1, 2):
            m = beta_multiplicator(flip_element(n), flip_element(n))
            assert m.h == pairing_matrix(n)
            assert m.lin == (0,) * (2 * n)
            x = RatVec([Fraction(1, 2)] * (2 * n))
            assert eval_mor(m, x) == Phase(Fraction(n, 4))

    def test_swap_pair(self):
        n = 2
        for i in (1, 2):
            m = beta_multiplicator(perm_v(n, i), perm_v(n, i))
            assert m.h == IntMat.basis(2 * n, i, n + i) + IntMat.basis(2 * n, n + i, i)
            xs = RatVec([Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), Fraction(3, 4)])
            assert eval_mor(m, xs) == Phase(xs.entries[i - 1] * xs.entries[i + n - 1])

    def test_n1_closed_form(self, rng):
        # beta_{A,B}(x,y) = B12*B21*A12*A21 * x*y over all pairs
        for a in enumerate_n1():
            for b in enumerate_n1():
                m = beta_multiplicator(a, b)
                coeff = b.mat[0, 1] * b.mat[1, 0] * a.mat[0, 1] * a.mat[1, 0]
                x = rand_ratvec(rng, 2)
                assert eval_mor(m, x) == Phase(coeff * x.entries[0] * x.entries[1])

    def test_unit_pairs_are_zero_morphisms(self):
        e = PseudoOrthogonal.identity(2)
        for w in words(2, 6, 47):
            for pair in ((w, e), (e, w)):
                m = beta_multiplicator(*pair)
                assert m.h == IntMat.zeros(4) and m.lin == (0, 0, 0, 0)
                assert m.src == m.dst

    def test_h_symmetric_on_words(self):
        ws = words(2, 12, 53)
        for a, b in zip(ws[::2], ws[1::2]):
            h = h_matrix(a, b)
            assert h == h.transpose()
            assert h == x_matrix(a, b) - strict_lower_split(b_matrix(a * b))

    def test_endpoints(self):
        a, b = words(2, 2, 59)
        m = beta_multiplicator(a, b)
        assert m.src == obj_product(section(a), section(b))
        assert m.dst == section(a * b)


class TestMultiplicatorIdentities:
    def test_quadratic_parts_cancel(self):
        # C^T H_{A,B} C + H_{AB,C} - iso(A) H_{B,C} - H_{A,BC} == 0; this is
        # why the associator defect of the section is a pure character
        ws = words(2, 9, 193)
        for a, b, c in zip(ws[::3], ws[1::3], ws[2::3]):
            cm = c.mat
            lhs = (
                cm.transpose() * h_matrix(a, b) * cm
                + h_matrix(a * b, c)
                - h_matrix(b, c).scale(a.iso)
                - h_matrix(a, b * c)
            )
            assert lhs == IntMat.zeros(4)

    def test_flip_square_phase_is_isometry_invariant(self, rng):
        # beta_{I,I}(Ax) == beta_{I,I}(x) for proper isometries A
        n = 2
        m = beta_multiplicator(flip_element(n), flip_element(n))
        proper = [w for w in words(n, 20, 197) if w.iso == 1][:8]
        assert proper
        for w in proper:
            for _ in range(5):
                x = rand_ratvec(rng, 2 * n)
                assert eval_mor(m, w.mat.mul_ratvec(x)) == eval_mor(m, x)

    def test_swap_square_phase_is_swap_invariant(self, rng):
        n = 2
        for i in (1, 2):
            m = beta_multiplicator(perm_v(n, i), perm_v(n, i))
            for _ in range(10):
                x = rand_ratvec(rng, 2 * n)
                assert eval_mor(m, perm_v(n, i).mat.mul_ratvec(x)) == eval_mor(m, x)


class TestRepresentationReconstruction:
    def test_h_and_character_recoverable_from_evaluation(self, rng):
        # the (H, lin) data of a morphism is recoverable from its values
        # alone, so the representation is faithful on this skeleton
        a, b = words(2, 2, 199)
        m = mor_vcompose(
            beta_multiplicator(a, b),
            automorphism_from_int(beta_multiplicator(a, b).dst, (2, -3, 5, 1)),
        )
        bound = 1 + max(abs(v) for row in m.h.data for v in row)
        bound = max(bound, 1 + max(abs(v) for v in m.lin))
        n_mod = 2 * bound + 1

        def balanced(phase, scale):
            r = phase.frac * scale
            assert r.denominator == 1
            r = r.numerator % scale
            return r if r <= scale // 2 else r - scale

        dim = 4
        recovered_h = []
        for i in range(dim):
            row = []
            for j in range(dim):
                x = RatVec([Fraction(1, n_mod) if k == i else Fraction(0) for k in range(dim)])
                y = RatVec.from_ints([1 if k == j else 0 for k in range(dim)])
                defect = eval_mor(m, x + y) - eval_mor(m, x) - eval_mor(m, y)
                row.append(balanced(defect, n_mod))
            recovered_h.append(row)
        assert IntMat(recovered_h) == m.h
        recovered_lin = []
        for i in range(dim):
            x = RatVec([Fraction(1, n_mod) if k == i else Fraction(0) for k in range(dim)])
            # subtract the pure quadratic part, leaving lin . x
            residue = eval_mor(m, x) - quadratic_phase(m.h, (0,) * dim, x)
            recovered_lin.append(balanced(residue, n_mod))
        assert tuple(recovered_lin) == m.lin


class TestMorphisms:
    def test_constructor_rules(self):
        o1 = section(flip_element(2))
        o2 = section(perm_v(2, 1))
        with pytest.raises(ValueError):
            Mor(o1, o2)  # different group elements
        with pytest.raises(ValueError):
            Mor(o1, o1, (1, 2, 3))  # wrong character length

    def test_vertical_unit_and_inverse(self):
        a, b = words(2, 2, 61)
        m = beta_multiplicator(a, b)
        assert mor_vcompose(m, mor_identity(m.dst)) == m
        assert mor_vcompose(mor_identity(m.src), m) == m
        assert mor_vcompose(m, mor_inverse(m)) == mor_identity(m.src)

    def test_vertical_is_pointwise_addition(self, rng):
        a, b = words(2, 2, 67)
        m1 = beta_multiplicator(a, b)
        lin = rand_intvec(rng, 4)
        m2 = mor_vcompose(automorphism_from_int(m1.dst, lin), mor_identity(m1.dst))
        comp = mor_vcompose(m1, m2)
        for _ in range(20):
            x = rand_ratvec(rng, 4)
            assert eval_mor(comp, x) == eval_mor(m1, x) + eval_mor(m2, x)

    def test_endpoint_mismatch(self):
        a, b = words(2, 2, 71)
        m = beta_multiplicator(a, b)
        with pytest.raises(ValueError):
            mor_vcompose(m, m)

    def test_horizontal_identity(self):
        o = section(flip_element(2))
        assert mor_hcompose(mor_identity(o), mor_identity(o)) == mor_identity(obj_product(o, o))

    def test_horizontal_strictly_associative(self, rng):
        ws = words(2, 6, 73)
        ms = [beta_multiplicator(ws[2 * i], ws[2 * i + 1]) for i in range(3)]
        lhs = mor_hcompose(mor_hcompose(ms[0], ms[1]), ms[2])
        rhs = mor_hcompose(ms[0], mor_hcompose(ms[1], ms[2]))
        assert lhs == rhs
        for _ in range(10):
            x = rand_ratvec(rng, 4)
            assert eval_mor(lhs, x) == eval_mor(rhs, x)

    def test_horizontal_pointwise_formula(self, rng):
        ws = words(2, 4, 79)
        m1 = beta_multiplicator(ws[0], ws[1])
        m2 = beta_multiplicator(ws[2], ws[3])
        comp = mor_hcompose(m1, m2)
        a2 = m2.src.g
        for _ in range(20):
            x = rand_ratvec(rng, 4)
            expected = eval_mor(m1, a2.mat.mul_ratvec(x)) + eval_mor(m2, x).scale(m1.src.g.iso)
            assert eval_mor(comp, x) == expected

    def test_lattice_vanishing(self, rng):
        ws = words(2, 8, 83)
        for a, b in zip(ws[::2], ws[1::2]):
            m = beta_multiplicator(a, b)
            for _ in range(20):
                x = RatVec.from_ints(rand_intvec(rng, 4))
                assert eval_mor(m, x).is_zero()

    def test_defect_axiom_pointwise(self, rng):
        # beta(x) + beta(y) + eta_src(x,y) == eta_dst(x,y) + beta(x+y)
        ws = words(2, 8, 89)
        for a, b in zip(ws[::2], ws[1::2]):
            m = beta_multiplicator(a, b)
            for _ in range(5):
                x, y = rand_ratvec(rng, 4), rand_ratvec(rng, 4)
                lhs = eval_mor(m, x) + eval_mor(m, y) + m.src.eta(x, y)
                rhs = m.dst.eta(x, y) + eval_mor(m, x + y)
                assert lhs == rhs

    def test_zero_morphism_evaluates_to_zero(self, rng):
        o = section(flip_element(2))
        z = mor_identity(o)
        for _ in range(10):
            assert eval_mor(z, rand_ratvec(rng, 4)).is_zero()


class TestAutomorphisms:
    def test_roundtrip(self):
        o = section(flip_element(2))
        assert automorphism_to_int(mor_identity(o)) == (0, 0, 0, 0)
        v = (3, -1, 0, 7)
        assert automorphism_to_int(automorphism_from_int(o, v)) == v

    def test_endomorphisms_have_zero_h(self):
        o = section(perm_v(2, 2))
        m = automorphism_from_int(o, (1, 2, 3, 4))
        assert m.h == IntMat.zeros(4)

    def test_vertical_composition_is_addition(self, rng):
        o = section(flip_element(3))
        u, v = rand_intvec(rng, 6), rand_intvec(rng, 6)
        m = mor_vcompose(automorphism_from_int(o, u), automorphism_from_int(o, v))
        assert automorphism_to_int(m) == tuple(x + y for x, y in zip(u, v))

    def test_rejects_non_automorphism(self):
        a, b = words(2, 2, 97)
        m = beta_multiplicator(a, b)
        if m.src != m.dst:
            with pytest.raises(ValueError):
                automorphism_to_int(m)
