from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from td2g.crossedmod import (
    CrossedIntertwiner,
    TDGroupElement,
    TDHElement,
    TDMorphism,
    check_ci_axioms,
    check_ct_axioms,
    ci_axiom_failures,
    ct_axiom_failures,
    ci_from_obj,
    functor_eval,
    pairing,
    td_alpha,
    td_compose,
    td_source,
    td_target,
)
from td2g.groups import embed_so, flip_element, j_matrix
from td2g.intlinalg import IntMat, Phase, RatVec, strict_lower_split
from td2g.twogroup import (
    Mor,
    beta_multiplicator,
    eval_mor,
    mor_identity,
    obj_inverse,
    obj_product,
    obj_unit,
    quadratic_phase,
    section,
)
from conftest import (
    rand_intvec,
    rand_ratvec,
    reference_ci_axiom_failures,
    reference_ct_axiom_failures,
    words,
)

# Sample coordinates have denominators 1..7, and lcm(1..7) = 420.  A CI3
# defect pairs one such coordinate with a lattice vector, so a multiple of
# 420 in M is invisible to every sample.  A CT2 defect pairs two sample
# coordinates, whose denominators multiply, so there it takes 420**2.
LCM_DEN = 420


class TestAction:
    def test_zero_base_point(self):
        h = TDHElement((1, -2), Phase(Fraction(1, 3)))
        a = TDGroupElement(RatVec.zero(2))
        assert td_alpha(a, h) == h

    def test_lattice_points_act_trivially(self, rng):
        for _ in range(10):
            h = TDHElement(rand_intvec(rng, 4), Phase(rng.fraction()))
            a = TDGroupElement(RatVec.from_ints(rand_intvec(rng, 4)))
            assert td_alpha(a, h) == h

    def test_pairing_oracle_n1(self):
        # [a, m] pairs the hatted slot of a with the plain slot of m
        h = TDHElement((1, 0), Phase(0))
        a = TDGroupElement(RatVec([Fraction(0), Fraction(1, 2)]))
        moved = td_alpha(a, h)
        assert moved.m == (1, 0)
        assert moved.s == Phase(Fraction(-1, 2))

    def test_pairing_matches_matrix(self, rng):
        for _ in range(10):
            a, b = rand_ratvec(rng, 4), rand_ratvec(rng, 4)
            hatted = a.entries[2:]
            plain = b.entries[:2]
            expected = sum((x * y for x, y in zip(hatted, plain)), Fraction(0))
            assert pairing(2, a, b) == Phase(expected)


class TestIntertwinerView:
    def test_unit_object_is_identity(self, rng):
        ci = ci_from_obj(obj_unit(2))
        g = TDGroupElement(rand_ratvec(rng, 4))
        assert ci.phi(g) == g
        h = TDHElement(rand_intvec(rng, 4), Phase(rng.fraction()))
        assert ci.f(h) == h
        assert ci.eta(g, g).is_zero()

    def test_flip_section(self, rng):
        ci = ci_from_obj(section(flip_element(2)))
        g = TDGroupElement(RatVec([1, 2, Fraction(1, 3), Fraction(1, 5)]))
        # phi swaps the two legs
        assert ci.phi(g).a == RatVec([Fraction(1, 3), Fraction(1, 5), 1, 2])
        h = TDHElement((1, 2, 3, 4), Phase(Fraction(2, 7)))
        fh = ci.f(h)
        assert fh.m == (3, 4, 1, 2) and fh.s == h.s
        for _ in range(5):
            a, b = rand_ratvec(rng, 4), rand_ratvec(rng, 4)
            assert ci.eta(TDGroupElement(a), TDGroupElement(b)) == pairing(2, a, b)

    def test_so_section(self, rng):
        b = IntMat([[0, 3], [-3, 0]])
        ci = ci_from_obj(section(embed_so(b)))
        g = TDGroupElement(RatVec([Fraction(1, 2), Fraction(1, 3), 0, 0]))
        # phi(a + ahat) = a + (Ba + ahat)
        img = ci.phi(g).a
        assert img.entries[:2] == g.a.entries[:2]
        assert img.entries[2:] == tuple(b.mul_ratvec(RatVec(g.a.entries[:2])).entries)
        h = TDHElement((1, 0, 0, 0), Phase(0))
        assert ci.f(h).m == (1, 0) + tuple(b.mul_vec((1, 0)))
        low = strict_lower_split(b)
        for _ in range(5):
            x, y = rand_ratvec(rng, 4), rand_ratvec(rng, 4)
            expected = sum(
                (
                    x.entries[i] * low[i, j] * y.entries[j]
                    for i in range(2)
                    for j in range(2)
                ),
                Fraction(0),
            )
            assert ci.eta(TDGroupElement(x), TDGroupElement(y)) == Phase(expected)


class TestCIAxioms:
    def test_unit(self):
        assert check_ci_axioms(obj_unit(2), samples=10, seed=1)

    def test_sections_of_words(self):
        for n in (1, 2):
            for i, w in enumerate(words(n, 8, 211 + n)):
                assert check_ci_axioms(section(w), samples=8, seed=i)

    def test_products_and_inverses(self):
        ws = words(2, 6, 223)
        for a, b in zip(ws[::2], ws[1::2]):
            o = obj_product(section(a), obj_inverse(section(b)))
            assert check_ci_axioms(o, samples=8, seed=5)

    def test_corrupted_phase_matrix_rejected(self):
        o = section(flip_element(2))
        # break X - X^T == B_A with a non-symmetric bump
        bad = CrossedIntertwiner(o.g.mat, o.g.iso, o.x + IntMat.basis(4, 1, 2))
        failures = ci_axiom_failures(bad)
        assert failures and all("CI3" in f for f in failures)

    def test_corrupted_sign_rejected(self):
        o = section(flip_element(2))
        bad = CrossedIntertwiner(o.g.mat, -o.g.iso, o.x)
        assert not check_ci_axioms(bad, samples=10, seed=3)


class TestCTAxioms:
    def test_zero_morphism(self):
        assert check_ct_axioms(mor_identity(section(flip_element(2))), samples=10, seed=1)

    def test_flip_witness(self):
        # the flip-squared witness runs from S(I)^2 to the unit object
        m = beta_multiplicator(flip_element(2), flip_element(2))
        assert m.src == obj_product(section(flip_element(2)), section(flip_element(2)))
        assert m.dst == obj_unit(2)
        assert check_ct_axioms(m, samples=10, seed=1)

    def test_all_multiplicator_witnesses(self):
        ws = words(2, 10, 227)
        for a, b in zip(ws[::2], ws[1::2]):
            assert check_ct_axioms(beta_multiplicator(a, b), samples=6, seed=7)

    def test_half_integer_character_rejected(self):
        m = beta_multiplicator(flip_element(2), flip_element(2))
        bad_lin = [Fraction(1, 2), 0, 0, 0]
        beta = lambda v: quadratic_phase(m.h, bad_lin, v)
        assert not check_ct_axioms(
            (m.src.x, m.dst.x, 4), samples=10, seed=2, beta=beta
        )

    def test_raw_triple_requires_beta(self):
        m = beta_multiplicator(flip_element(2), flip_element(2))
        with pytest.raises(ValueError):
            check_ct_axioms((m.src.x, m.dst.x, 4), samples=5, seed=0)


class TestIntertwinerBoundary:
    @pytest.mark.parametrize(
        "amat, xmat",
        [(IntMat.zeros(4, 2), IntMat.zeros(4)), (IntMat.identity(4), IntMat.zeros(4, 2))],
        ids=["amat", "xmat"],
    )
    def test_rejects_non_square(self, amat, xmat):
        with pytest.raises(ValueError, match="square"):
            CrossedIntertwiner(amat, 1, xmat)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="different shapes"):
            CrossedIntertwiner(IntMat.identity(4), 1, IntMat.zeros(2))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            CrossedIntertwiner(IntMat.identity(3), 1, IntMat.zeros(3))

    @pytest.mark.parametrize("eps", [0, 2, -3, True, 1.0, Fraction(-1)])
    def test_rejects_sign_outside_plus_minus_one(self, eps):
        with pytest.raises(ValueError, match="sign"):
            CrossedIntertwiner(IntMat.identity(2), eps, IntMat.zeros(2))

    def test_accepts_both_signs(self):
        for eps in (1, -1):
            assert CrossedIntertwiner(IntMat.identity(2), eps, IntMat.zeros(2)).eps == eps


def _objects(n):
    ws = words(n, 4, 300 + n)
    sections = [section(w) for w in ws]
    return sections + [
        obj_product(sections[0], obj_inverse(sections[1])),
        obj_inverse(sections[2]),
    ]


def _morphisms(n):
    ws = words(n, 4, 310 + n)
    return [beta_multiplicator(a, b) for a, b in zip(ws, ws[1:])]


def square_matrices(dim):
    return st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim).map(
        lambda flat: IntMat([flat[dim * i : dim * (i + 1)] for i in range(dim)])
    )


def _with_slots(m, **slots):
    """A copy of the morphism m with slots overwritten past Mor's own checks."""
    bad = Mor(m.src, m.dst, m.lin)
    for name, value in slots.items():
        object.__setattr__(bad, name, value)
    return bad


def _axioms(failures):
    return {f.split()[0] for f in failures}


def _unit(dim, i, q=1):
    return RatVec([Fraction(int(k == i), q) for k in range(dim)])


def _ci3_probe(ci, q=1009):
    """Sites (i, j) where CI3 fails at a = e_i / q, h = (e_j, 0): lhs - rhs is M_ij / q."""
    sites = []
    for i in range(ci.dim):
        a = TDGroupElement(_unit(ci.dim, i, q))
        for j in range(ci.dim):
            h = TDHElement(tuple(int(k == j) for k in range(ci.dim)), Phase(0))
            ma = TDGroupElement(_unit(ci.dim, j) - a.a)
            lhs = ci.eta(a, ma) + ci.f(td_alpha(a, h)).s
            rhs = ci.eta(ma, a) + td_alpha(ci.phi(a), ci.f(h)).s
            if lhs != rhs:
                sites.append(f"CI3 at ({i}, {j})")
    return sites


def _ct_probe(m, q=101):
    """Sites where CT1 fails at e_i and e_i + e_j, and CT2 at (e_i / q, e_j / q)."""
    dim = 2 * m.n
    beta = [eval_mor(m, _unit(dim, i)) for i in range(dim)]
    sites = [f"CT1 at ({i}, {i})" for i in range(dim) if not beta[i].is_zero()]
    for i in range(dim):
        for j in range(i + 1, dim):
            if eval_mor(m, _unit(dim, i) + _unit(dim, j)) != beta[i] + beta[j]:
                sites.append(f"CT1 at ({i}, {j})")
    for i in range(dim):
        for j in range(dim):
            a1, a2 = _unit(dim, i, q), _unit(dim, j, q)
            lhs = eval_mor(m, a1) + eval_mor(m, a2) + m.src.eta(a1, a2)
            if lhs != m.dst.eta(a1, a2) + eval_mor(m, a1 + a2):
                sites.append(f"CT2 at ({i}, {j})")
    return sites


class TestExactAgreesWithReference:
    """The exact checks against the earlier sampled bodies in conftest."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_valid_data_passes_both(self, n):
        for seed, o in enumerate(_objects(n)):
            assert ci_axiom_failures(o) == []
            assert reference_ci_axiom_failures(o, samples=8, seed=seed) == []
        for seed, m in enumerate(_morphisms(n)):
            assert ct_axiom_failures(m) == []
            assert reference_ct_axiom_failures(m, samples=8, seed=seed) == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mutated_intertwiners(self, n):
        dim = 2 * n
        for o in _objects(n)[::2]:
            flipped = CrossedIntertwiner(o.g.mat, -o.g.iso, o.x)
            assert ci_axiom_failures(flipped)
            assert reference_ci_axiom_failures(flipped, samples=8, seed=n)
            for i in range(dim):
                for j in range(dim):
                    x = o.x + IntMat.basis(dim, i + 1, j + 1)
                    bad = CrossedIntertwiner(o.g.mat, o.g.iso, x)
                    exact = ci_axiom_failures(bad)
                    # a diagonal bump leaves X - X^T, hence every axiom, intact
                    sites = sorted({f"CI3 at ({i}, {j})", f"CI3 at ({j}, {i})"})
                    assert exact == ([] if i == j else sites)
                    ref = reference_ci_axiom_failures(bad, samples=8, seed=dim * i + j)
                    assert _axioms(ref) <= _axioms(exact)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mutated_morphisms(self, n):
        dim = 2 * n
        for m in _morphisms(n)[:2]:
            bad = []
            for i in range(dim):
                for j in range(dim):
                    e = IntMat.basis(dim, i + 1, j + 1)
                    bad += [_with_slots(m, h=m.h + e), _with_slots(m, h=m.h + e + e.transpose())]
                half = list(m.lin)
                half[i] += Fraction(1, 2)
                bad.append(_with_slots(m, lin=tuple(half)))
            for seed, b in enumerate(bad):
                exact = ct_axiom_failures(b)
                assert exact and exact == _ct_probe(b)
                ref = reference_ct_axiom_failures(b, samples=8, seed=seed)
                assert _axioms(ref) <= _axioms(exact)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 4]).flatmap(
            lambda dim: st.tuples(
                square_matrices(dim), st.sampled_from([1, -1]), square_matrices(dim)
            )
        ),
        st.integers(0, 2**32),
    )
    def test_ci1_ci2_ci4_never_fail(self, data, seed):
        """On any integer (A, eps, X), valid or not, only CI3 can fail."""
        amat, eps, xmat = data
        ci = CrossedIntertwiner(amat, eps, xmat)
        ref = reference_ci_axiom_failures(ci, samples=4, seed=seed)
        exact = ci_axiom_failures(ci)
        assert _axioms(ref) <= {"CI3"} and _axioms(exact) <= {"CI3"}
        assert exact == _ci3_probe(ci)
        assert bool(exact) >= bool(ref)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 0), (2, 1)]),
        st.lists(st.integers(-3, 3), min_size=16),
        st.lists(st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-1, 3)]), min_size=4),
        st.integers(0, 2**32),
    )
    def test_ct_sites_match_probes(self, case, bump, lin, seed):
        """An overwritten h and lin fail exactly where beta's values say."""
        n, k = case
        m = _morphisms(n)[k]
        dim = 2 * n
        h = m.h + IntMat([bump[dim * i : dim * (i + 1)] for i in range(dim)])
        bad = _with_slots(m, h=h, lin=tuple(lin[:dim]))
        exact = ct_axiom_failures(bad)
        assert exact == _ct_probe(bad)
        if reference_ct_axiom_failures(bad, samples=4, seed=seed):
            assert exact


class TestDefectsNoSampleSees:
    def test_ci_bump_of_420(self):
        o = section(words(2, 1, 241)[0])
        bad = CrossedIntertwiner(o.g.mat, o.g.iso, o.x + IntMat.basis(4, 1, 2).scale(LCM_DEN))
        for seed in range(20):
            assert reference_ci_axiom_failures(bad, samples=8, seed=seed) == []
        assert ci_axiom_failures(bad) == ["CI3 at (0, 1)", "CI3 at (1, 0)"]
        assert not check_ci_axioms(bad, samples=8, seed=0)

    def test_ct_bump_of_420_squared(self):
        m = beta_multiplicator(*words(2, 2, 251))
        e = IntMat.basis(4, 1, 2) + IntMat.basis(4, 2, 1)
        bad = _with_slots(m, h=m.h + e.scale(LCM_DEN**2))
        for seed in range(20):
            assert reference_ct_axiom_failures(bad, samples=8, seed=seed) == []
        assert ct_axiom_failures(bad) == ["CT2 at (0, 1)", "CT2 at (1, 0)"]
        assert not check_ct_axioms(bad, samples=8, seed=0)
        # a bump of 420 alone meets a sample pair with product denominator 49
        seen = _with_slots(m, h=m.h + e.scale(LCM_DEN))
        assert any(reference_ct_axiom_failures(seen, samples=8, seed=s) for s in range(20))


class TestInducedFunctor:
    def _random_morphism(self, rng, dim):
        g = TDGroupElement(rand_ratvec(rng, dim))
        h = TDHElement(rand_intvec(rng, dim), Phase(rng.fraction()))
        return TDMorphism(h, g)

    def test_unit_object_acts_trivially(self, rng):
        o = obj_unit(2)
        for _ in range(10):
            m = self._random_morphism(rng, 4)
            assert functor_eval(o, m) == m

    def test_respects_source_and_target(self, rng):
        o = section(words(2, 1, 229)[0])
        ci = ci_from_obj(o)
        for _ in range(10):
            m = self._random_morphism(rng, 4)
            fm = functor_eval(o, m)
            assert td_source(fm) == ci.phi(td_source(m))
            assert td_target(fm) == ci.phi(td_target(m))

    def test_functorial_on_composition(self, rng):
        o = section(words(2, 1, 233)[0])
        for _ in range(10):
            m1 = self._random_morphism(rng, 4)
            h2 = TDHElement(rand_intvec(rng, 4), Phase(rng.fraction()))
            m2 = TDMorphism(h2, td_target(m1))
            lhs = functor_eval(o, td_compose(m2, m1))
            rhs = td_compose(functor_eval(o, m2), functor_eval(o, m1))
            assert lhs == rhs

    def test_composition_of_functors(self, rng):
        ws = words(2, 4, 239)
        for o1, o2 in ((section(ws[0]), section(ws[1])), (section(ws[2]), section(ws[3]))):
            prod = obj_product(o1, o2)
            for _ in range(10):
                m = self._random_morphism(rng, 4)
                assert functor_eval(prod, m) == functor_eval(o1, functor_eval(o2, m))
