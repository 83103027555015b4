import json
from fractions import Fraction

import pytest

from td2g.groups import (
    PseudoOrthogonal,
    check_membership,
    embed_gl,
    embed_so,
    enumerate_n1,
    flip_element,
    gl_generators,
    pairing_matrix,
    perm_v,
    random_word,
    so_basis,
    standard_generators,
)
from td2g.intlinalg import IntMat, Phase, RatVec, unimodular_inverse
from td2g.kinvariant import (
    DoubleCoverElement,
    check_cocycle_identity,
    check_two_torsion,
    check_vanishing_on_subgroup,
    double_cover_identity,
    double_cover_mul,
    finite_group_failures,
    gamma,
    k_cocycle,
    k_eval,
    subgroup_vanishing_failure,
    twisted_action,
    v_elements,
    z_elements,
)
from td2g.rng import XorShift64Star
from td2g.twogroup import b_matrix, b_split, beta_multiplicator, strict_lower_split
from td2g.intlinalg import diag_vec
from conftest import (
    g18,
    rand_intvec,
    rand_ratvec,
    reference_form,
    reference_gamma,
    reference_h,
    reference_k_cocycle,
    reference_matmul,
    reference_n1_exhaustive,
    reference_subgroup_vanishing,
    reference_table_failures,
    rotation,
    sample_elements,
    words,
)
from td2g import jsonio, kinvariant
from td2g.cli import main

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
        with pytest.raises(ValueError, match="rank mismatch"):
            k_cocycle(
                PseudoOrthogonal.identity(1),
                PseudoOrthogonal.identity(2),
                PseudoOrthogonal.identity(2),
            )


class TestAgainstReference:
    """The shared product chain against the earlier per-call bodies, value for value."""

    def test_n1_all_triples_and_pairs(self):
        elems = enumerate_n1()
        for a in elems:
            for b in elems:
                assert gamma(a, b) == reference_gamma(a, b)
                for c in elems:
                    assert k_cocycle(a, b, c) == reference_k_cocycle(a, b, c)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_seeded_words(self, n):
        ws = words(n, 12, 211 + n, length=7)
        for a, b, c in zip(ws, ws[1:], ws[2:]):
            assert k_cocycle(a, b, c) == reference_k_cocycle(a, b, c)
            assert gamma(a, b) == reference_gamma(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_check_terms(self, n):
        # each term the two checks read from their chain is the reference value,
        # and the reference sums satisfy both identities
        ws = words(n, 8, 223 + n, length=7)
        for a, b, c, d in zip(ws[::4], ws[1::4], ws[2::4], ws[3::4]):
            ch = kinvariant._Chain((a, b, c, d))
            terms = [ch.k(1, 2, 3, 4), ch.k(0, 2, 3, 4), ch.k(0, 1, 3, 4), ch.k(0, 1, 2, 4), ch.k(0, 1, 2, 3)]
            ref = [
                reference_k_cocycle(b, c, d),
                reference_k_cocycle(a * b, c, d),
                reference_k_cocycle(a, b * c, d),
                reference_k_cocycle(a, b, c * d),
                reference_k_cocycle(a, b, c),
            ]
            assert terms == ref
            total = twisted_action(a, ref[0])
            for sign, t in zip((-1, 1, -1, 1), ref[1:]):
                total = tuple(x + sign * y for x, y in zip(total, t))
            assert total == (0,) * (2 * n) and check_cocycle_identity(a, b, c, d)

            ch = kinvariant._Chain((a, b, c))
            terms = [ch.gamma(1, 2, 3), ch.gamma(0, 2, 3), ch.gamma(0, 1, 3), ch.gamma(0, 1, 2)]
            ref = [reference_gamma(b, c), reference_gamma(a * b, c), reference_gamma(a, b * c), reference_gamma(a, b)]
            assert terms == ref
            lhs = twisted_action(a, ref[0])
            for sign, t in zip((-1, 1, -1), ref[1:]):
                lhs = tuple(x + sign * y for x, y in zip(lhs, t))
            assert lhs == tuple(2 * v for v in reference_k_cocycle(a, b, c))
            assert check_two_torsion(a, b, c)


class TestSparseChain:
    """H and F summed from the nonzeros of each lower split, against the earlier dense products."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_h_and_form_match_the_reference(self, n):
        # every standard generator and its inverse, seeded words and products of words
        elems = sample_elements(n, 241 + n)
        for q, p in list(zip(elems, elems[1:])) + list(zip(elems[::-1], elems[::3])):
            ch = kinvariant._Chain((q, p))
            assert ch.h(0, 1, 2) == reference_h(q, p)
            assert ch.form(0, 1, 2) == reference_form(q, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_inv_transpose_matches_the_dense_inverse(self, n):
        # pieces of 2 to 4 cuts over 4-letter words that mix seeded words
        # with the iso -1 rotation and its inverse; vectors up to +-9
        rot = rotation(n)
        letters = [rot, rot.inverse(), *words(n, 6, 283 + n, length=6)]
        rng = XorShift64Star(293 + n)
        cuts_list = ((0, 1, 2), (0, 2, 4), (1, 3, 4), (0, 1, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4))
        isos, big = set(), 0
        for _ in range(12):
            word = [letters[rng.below(len(letters))] for _ in range(4)]
            ch = kinvariant._Chain(word)
            for cuts in cuts_list:
                x = word[cuts[0]].mat
                for g in word[cuts[0] + 1 : cuts[-1]]:
                    x = reference_matmul(x, g.mat)
                prod = PseudoOrthogonal(x)
                v = rand_intvec(rng, 2 * n, bound=9)
                assert ch.inv_transpose(cuts, v) == prod.inverse().mat.transpose().mul_vec(v)
                isos |= {ch.prod[p, q].iso for p, q in zip(cuts, cuts[1:])} | {prod.iso}
                big = max(big, *map(abs, v))
        assert isos == {1, -1} and big > 1

    def test_checks_at_n6_multiply_only_their_group_products(self, monkeypatch):
        # Work, not time: check_cocycle_identity builds ab, bc and cd, and
        # check_two_torsion ab and bc, each from cached row nonzeros; B_A,
        # every H and F and every bracket are summed from nonzero entries,
        # and (ABC)^{-T} and the twisted action apply each piece from its
        # rows, so no dense matrix or matrix-vector product runs.
        calls = {"mul": 0, "matmul": 0, "mul_vec": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        ws = words(6, 14, 263, length=8)
        monkeypatch.setattr(PseudoOrthogonal, "__mul__", counted("mul", PseudoOrthogonal.__mul__))
        monkeypatch.setattr(IntMat, "__mul__", counted("matmul", IntMat.__mul__))
        monkeypatch.setattr(IntMat, "mul_vec", counted("mul_vec", IntMat.mul_vec))
        for a, b, c, d in zip(*[iter(ws[:8])] * 4):
            calls.update(mul=0)
            assert check_cocycle_identity(a, b, c, d)
            assert calls == {"mul": 3, "matmul": 0, "mul_vec": 0}
        for a, b, c in zip(*[iter(ws[8:])] * 3):
            calls.update(mul=0)
            assert check_two_torsion(a, b, c)
            assert calls == {"mul": 2, "matmul": 0, "mul_vec": 0}


class TestOneFormM:
    """m from H_{A,B} alone against the four-form reference, and controls that tell F from H."""

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_seeded_triples_up_to_length_12(self, n):
        gens = standard_generators(n)
        rng = XorShift64Star(401 + n)
        for _ in range(180):
            a, b, c = (random_word(gens, 1 + rng.below(12), rng) for _ in range(3))
            assert k_cocycle(a, b, c) == reference_k_cocycle(a, b, c)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_every_chain_term(self, n):
        # the five terms of 36 4-chains: 180 triples of products per rank
        gens = standard_generators(n)
        rng = XorShift64Star(431 + n)
        for _ in range(36):
            word = [random_word(gens, 1 + rng.below(12), rng) for _ in range(4)]
            ch = kinvariant._Chain(word)
            for i, j, l, m in ((1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4), (0, 1, 2, 3)):
                expected = reference_k_cocycle(ch.prod[i, j], ch.prod[j, l], ch.prod[l, m])
                assert ch.k(i, j, l, m) == expected

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_h_is_the_multiplicators_matrix(self, n):
        # both paths read H_{A,B}: here from S, in k_eval as X_{A,B} - (B_{AB})_low
        for a, b in zip(*[iter(words(n, 12, 461 + n, length=9))] * 2):
            assert kinvariant._Chain((a, b)).h(0, 1, 2) == beta_multiplicator(a, b).h

    @staticmethod
    def _arbitrary(chain, i, j, l):
        """A generator seeded by the elements Q = prod[i, j] and P = prod[j, l], not by positions."""
        q, p = chain.prod[i, j], chain.prod[j, l]
        return XorShift64Star(hash((q.mat.data, p.mat.data)) % 2**64), 2 * q.n

    @staticmethod
    def _arbitrary_h(chain, i, j, l):
        """An arbitrary symmetric H with entries in [-3, 3], seeded by the element pair."""
        rng, dim = TestOneFormM._arbitrary(chain, i, j, l)
        up = [[rng.int_in(-3, 3) for _ in range(dim)] for _ in range(dim)]
        return IntMat([[up[min(r, c)][max(r, c)] for c in range(dim)] for r in range(dim)])

    def test_wrong_form_fails_torsion(self, monkeypatch, capsys):
        # gamma reads F and m reads H: an arbitrary even F breaks delta gamma = 2m
        def form(chain, i, j, l):
            rng, dim = self._arbitrary(chain, i, j, l)
            return tuple(2 * rng.int_in(-3, 3) for _ in range(dim))

        monkeypatch.setattr(kinvariant._Chain, "form", form)
        argv = ["verify", "--suite", "torsion", "--n", "2", "--trials", "20", "--seed", "5"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["trial"], f["check"]) for f in report["failures"]] == [(t, "two-torsion") for t in range(20)]
        assert main(["verify", "--suite", "n1-exhaustive"]) == 1
        records = json.loads(capsys.readouterr().out)["failures"]
        assert records and {f["check"] for f in records} == {"n1-two-torsion"}
        # m and the cocycle identity read no form
        argv = ["verify", "--suite", "cocycle", "--n", "2", "--trials", "20", "--seed", "5"]
        assert main(argv) == 0
        capsys.readouterr()

    def test_wrong_h_fails_the_cocycle_identity(self, monkeypatch, capsys):
        # delta m = 0 is no identity of the formula for an arbitrary symmetric H
        monkeypatch.setattr(kinvariant._Chain, "h", self._arbitrary_h)
        argv = ["verify", "--suite", "cocycle", "--n", "2", "--trials", "20", "--seed", "5"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["trial"], f["check"]) for f in report["failures"]] == [(t, "cocycle-identity") for t in range(20)]
        assert main(["verify", "--suite", "n1-exhaustive"]) == 1
        records = json.loads(capsys.readouterr().out)["failures"]
        assert {f["check"] for f in records} == {"n1-vanishing", "cocycle-identity", "n1-two-torsion"}

    def test_off_diagonal_h_is_invisible_at_n1(self, monkeypatch, capsys):
        # the blind spot of n1-exhaustive: every column of an n=1 element has
        # one nonzero entry, so m reads only H's diagonal there
        real = kinvariant._Chain.h

        def h(chain, i, j, l):
            rng, dim = self._arbitrary(chain, i, j, l)
            up = [[rng.int_in(-3, 3) for _ in range(dim)] for _ in range(dim)]
            bump = [[(r != c) * up[min(r, c)][max(r, c)] for c in range(dim)] for r in range(dim)]
            return real(chain, i, j, l) + IntMat(bump)

        monkeypatch.setattr(kinvariant._Chain, "h", h)
        assert main(["verify", "--suite", "n1-exhaustive"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []
        for suite, check in (("cocycle", "cocycle-identity"), ("torsion", "two-torsion")):
            argv = ["verify", "--suite", suite, "--n", "2", "--trials", "20", "--seed", "5"]
            assert main(argv) == 1
            records = json.loads(capsys.readouterr().out)["failures"]
            assert records and {f["check"] for f in records} == {check}

    def test_odd_bracket_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        real = kinvariant.correction_bracket

        def odd(h, c):
            twice = real(h, c)
            return [twice[0] + 1] + twice[1:]

        monkeypatch.setattr(kinvariant, "correction_bracket", odd)
        e = PseudoOrthogonal.identity(2)
        with pytest.raises(ArithmeticError, match="half-prefactor"):
            k_cocycle(e, e, e)
        path = tmp_path / "e.json"
        path.write_text(json.dumps(jsonio.element_to_json(e)))
        assert main(["kinv", "--a", str(path), "--b", str(path), "--c", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("internal error:")
        assert main(["verify", "--suite", "torsion", "--n", "2", "--trials", "2", "--seed", "1"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("internal error:")


@pytest.mark.parametrize(
    "fn, ranks",
    [
        (gamma, (1, 2)),
        (check_cocycle_identity, (2, 2, 2, 1)),
        (check_two_torsion, (2, 1, 2)),
    ],
)
def test_rank_mismatch_raises(fn, ranks):
    with pytest.raises(ValueError, match="rank mismatch"):
        fn(*(PseudoOrthogonal.identity(n) for n in ranks))


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            twisted_action(PseudoOrthogonal.identity(2), (1, 2, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            twisted_action(PseudoOrthogonal.identity(2), (1, 2, 3, 4, 5))

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
            alt = (a * b).inverse().mat.transpose().mul_vec(
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


class TestFiniteGroupTables:
    """The table path of n1-exhaustive against the earlier per-chain body."""

    @staticmethod
    def _bump(monkeypatch, method, *at):
        """Add 1 to the first entry of `_Chain.<method>` where it reads the elements enumerate_n1()[i], i in `at`.

        For `h` the entry is H[0, 0]: the bracket then moves by
        c_0^2 - c_0 in each column c of C, which stays even, and it moves
        at every C with a -1 in its first row.  The fault is keyed on
        elements, as H, m and gamma are functions of elements.  A fault
        keyed on chain positions (say, only h(0, 1, 2)) would not be a
        fair comparison: the table path reads every H at positions
        (0, 1, 2), whereas check_cocycle_identity reads its H at other
        positions, so the two paths would see different functions and
        rightly disagree.
        """
        real = getattr(kinvariant._Chain, method)
        elems = enumerate_n1()
        target = tuple(elems[i] for i in at)

        def faulty(self, *pos):
            v = real(self, *pos)
            if tuple(self.prod[p, q] for p, q in zip(pos, pos[1:])) != target:
                return v
            if isinstance(v, IntMat):
                return v + IntMat([[1, 0], [0, 0]])
            return (v[0] + 1,) + v[1:]

        monkeypatch.setattr(kinvariant._Chain, method, faulty)

    @staticmethod
    def _failing_torsion_triples():
        elems = enumerate_n1()
        return [
            [ia, ib, ic]
            for ia, a in enumerate(elems)
            for ib, b in enumerate(elems)
            for ic, c in enumerate(elems)
            if not check_two_torsion(a, b, c)
        ]

    def test_both_paths_pass_on_correct_data(self):
        assert finite_group_failures(enumerate_n1()) == []
        assert reference_n1_exhaustive(1, 0, 0) == []

    @pytest.mark.parametrize(
        "elems", [[PseudoOrthogonal.identity(2)], z_elements(2), v_elements(2)], ids=["E2", "Z2", "V2"]
    )
    def test_other_finite_groups_pass(self, elems):
        assert finite_group_failures(elems) == []

    # Indices into enumerate_n1(): 0 is E and 1 is -E, the centre of this
    # dihedral group of order 8; 2 is the flip and 4 a rotation of order 4
    # with iso -1, and their product is not central.  At both pairs the c
    # whose m moves (a -1 in the first row) have both isos, so a table that
    # dropped the factor -iso(X) of m = I X I (-iso(X) h), X = abc, fails
    # here; at (4, 2) so does one that read X as c ab.  A sign flip of every
    # m, or X read as ba c (= -abc at (4, 2)), keeps every record; the
    # comparison with k_cocycle at every triple below catches those.
    @pytest.mark.parametrize("pair", [(1, 0), (4, 2)])
    def test_m_fault_gives_the_same_records(self, monkeypatch, pair):
        self._bump(monkeypatch, "h", *pair)
        got = finite_group_failures(enumerate_n1())
        ref = reference_n1_exhaustive(1, 0, 0)
        checks = {r["check"] for r in ref}
        assert checks == {"n1-vanishing", "cocycle-identity"}
        assert [r for r in got if r["check"] in checks] == ref
        # The torsion records are exactly the triples where the chain
        # check, with its own k_cocycle call on the right, fails: those
        # where the faulted H moves m away from 0, all at the faulted pair.
        torsion = self._failing_torsion_triples()
        vanishing = [r["triple"] for r in ref if r["check"] == "n1-vanishing"]
        assert torsion and torsion == vanishing and all(t[:2] == list(pair) for t in torsion)
        assert got == ref + [{"trial": 0, "check": "n1-two-torsion", "triple": t} for t in torsion]

    @pytest.mark.parametrize("h", ["correct", "arbitrary"])
    def test_m_table_is_k_cocycle_at_every_triple(self, monkeypatch, h):
        # On correct data every m is 0, so a table of zeros would pass every
        # golden; under an arbitrary element-seeded H, m is nonzero at many
        # triples and the table must still equal k_cocycle at each.
        if h == "arbitrary":
            monkeypatch.setattr(kinvariant._Chain, "h", TestOneFormM._arbitrary_h)
        elems = enumerate_n1()
        table = kinvariant._cayley_table(elems)
        got = kinvariant._m_table(elems, table, [kinvariant._Actions(a) for a in elems])
        expected = [[[k_cocycle(a, b, c) for c in elems] for b in elems] for a in elems]
        assert got == expected
        nonzero = sum(v != (0, 0) for m_a in expected for m_a_b in m_a for v in m_a_b)
        assert nonzero == 0 if h == "correct" else nonzero > 64

    @pytest.mark.parametrize("pair", [(2, 2), (2, 4)])
    def test_gamma_fault_fails_torsion_only(self, monkeypatch, pair):
        self._bump(monkeypatch, "gamma", *pair)
        got = finite_group_failures(enumerate_n1())
        torsion = self._failing_torsion_triples()
        assert torsion and reference_n1_exhaustive(1, 0, 0) == []
        assert got == [{"trial": 0, "check": "n1-two-torsion", "triple": t} for t in torsion]

    def test_suite_reports_the_fault(self, monkeypatch, capsys):
        self._bump(monkeypatch, "h", 2, 0)
        assert main(["verify", "--suite", "n1-exhaustive"]) == 1
        report = json.loads(capsys.readouterr().out)
        # -E is the first element with a -1 in its first row
        assert report["failures"][0] == {"trial": 0, "check": "n1-vanishing", "triple": [2, 0, 1]}

    def test_odd_bracket_is_an_internal_error(self, monkeypatch, capsys):
        # an odd bracket at one C: raised at the first pair's H, with that C last read
        real, seen = kinvariant.correction_bracket, []
        odd_c = enumerate_n1()[5].mat

        def odd(h, c):
            seen.append((h, c))
            twice = real(h, c)
            return [twice[0] + 1] + twice[1:] if c == odd_c else twice

        monkeypatch.setattr(kinvariant, "correction_bracket", odd)
        with pytest.raises(ArithmeticError, match="half-prefactor"):
            finite_group_failures(enumerate_n1())
        e = enumerate_n1()[0]
        assert seen[-1] == (kinvariant._Chain((e, e)).h(0, 1, 2), odd_c)
        assert main(["verify", "--suite", "n1-exhaustive"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("internal error:")

    def test_not_closed_raises(self):
        with pytest.raises(ValueError, match="not closed"):
            finite_group_failures(enumerate_n1()[:3])

    def test_work_count(self, monkeypatch, capsys):
        # Work, not time.  Group products: the suite multiplies each pair of
        # the 8 elements once for the Cayley table (64) and nowhere else:
        # m reads H_{A,B}, C and the Cayley product ABC, and gamma applies
        # (AB)^{-T} letter by letter.  Dense matrix and matrix-vector
        # products: none.  enumerate_n1 builds its elements with their known
        # signs, a Cayley product is formed from the factors' cached row
        # nonzeros, B_A, S = B^T (B_A)_low B for each H_{A,B} and form, and
        # the bracket of H and C are summed from nonzero entries, and the
        # twisted action and (AB)^{-T} apply each element from its rows.
        # No m goes through _Chain.k or k_cocycle: each is the twisted
        # action of ABC on a signed half-bracket.
        calls = {
            "k_cocycle": 0,
            "check_cocycle_identity": 0,
            "_Chain.k": 0,
            "mul": 0,
            "matmul": 0,
            "mul_vec": 0,
        }

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("k_cocycle", "check_cocycle_identity"):
            monkeypatch.setattr(kinvariant, name, counted(name, getattr(kinvariant, name)))
        monkeypatch.setattr(kinvariant._Chain, "k", counted("_Chain.k", kinvariant._Chain.k))
        monkeypatch.setattr(PseudoOrthogonal, "__mul__", counted("mul", PseudoOrthogonal.__mul__))
        monkeypatch.setattr(IntMat, "__mul__", counted("matmul", IntMat.__mul__))
        monkeypatch.setattr(IntMat, "mul_vec", counted("mul_vec", IntMat.mul_vec))
        assert main(["verify", "--suite", "n1-exhaustive"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []
        assert calls == {
            "k_cocycle": 0,
            "check_cocycle_identity": 0,
            "_Chain.k": 0,
            "mul": 64,
            "matmul": 0,
            "mul_vec": 0,
        }

    def test_each_h_and_action_is_computed_once(self, monkeypatch):
        # H_{A,B} depends on the pair alone and I A I v on (A, v) alone, so
        # the table path computes each once: 64 H, and on correct data, where
        # every m and gamma is 0, one action per element (8, not 4096 + 512).
        hs, acts = [], []
        real_h, real_act = kinvariant._Chain.h, kinvariant.twisted_action

        def h(chain, i, j, l):
            hs.append((chain.prod[i, j], chain.prod[j, l]))
            return real_h(chain, i, j, l)

        def act(a, v):
            acts.append((a, tuple(v)))
            return real_act(a, v)

        monkeypatch.setattr(kinvariant._Chain, "h", h)
        monkeypatch.setattr(kinvariant, "twisted_action", act)
        elems = enumerate_n1()
        assert finite_group_failures(elems) == []
        assert len(hs) == 64 and set(hs) == {(a, b) for a in elems for b in elems}
        assert len(acts) == 8 and set(acts) == {(a, (0, 0)) for a in elems}

    def test_no_elements_raises(self):
        with pytest.raises(ValueError, match="no elements"):
            finite_group_failures([])

    def test_g18_where_m_reads_off_diagonal_h(self):
        # m != 0 at 2 352 of the 5 832 triples, and the identities hold
        records = finite_group_failures(g18())
        assert len(records) == 2352 and {r["check"] for r in records} == {"n1-vanishing"}
        assert records == reference_table_failures(g18())

    def test_g18_off_diagonal_h_fault_gives_the_tuple_records(self, monkeypatch):
        # the fault of test_off_diagonal_h_is_invisible_at_n1, which n1 cannot see
        real = kinvariant._Chain.h

        def h(chain, i, j, l):
            rng, dim = TestOneFormM._arbitrary(chain, i, j, l)
            up = [[rng.int_in(-3, 3) for _ in range(dim)] for _ in range(dim)]
            bump = [[(r != c) * up[min(r, c)][max(r, c)] for c in range(dim)] for r in range(dim)]
            return real(chain, i, j, l) + IntMat(bump)

        monkeypatch.setattr(kinvariant._Chain, "h", h)
        got = finite_group_failures(g18())
        checks = [r["check"] for r in got]
        assert checks.count("cocycle-identity") == 92792 and checks.count("n1-two-torsion") == 5130
        assert got == reference_table_failures(g18())

    # One torsion defect at the edge of the coding bound, over the group
    # {E, s} with s = embed_gl([[1, k], [0, -1]]), an involution whose
    # twisted action is (x1, x2, y1, y2) -> (x1, k x1 - x2, y1 + k y2, -y2).
    # m is 0 on GL elements and gamma is faked, with g_{E,E} = 0, so the
    # defect at (s, s, s) is (S - 1) g_{s,s} - g_{E,s} + g_{s,E}:
    # - k = 0 and M = 10**6: it is (0, 2M + 1, -1, 0), whose code is 0 in
    #   the base 2M + 1, as if each defect entry had size at most M;
    # - k = 24002, g_{s,s} = (0, 0, 0, L), L = 1000: it is (0, 0, kL, -2L),
    #   whose code is 0 in the base 12 L + 1 = k/2 that the values give
    #   without their twisted images (S g_{s,s} has the entry kL).
    # Every entry is within 6 M, so the records must be the tuple ones.
    @pytest.mark.parametrize(
        "k, g_ss, g_es, g_se",
        [
            (0, (0, -10**6, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)),
            (24002, (0, 0, 0, 1000), (0, 0, 0, 0), (0, 0, 0, 0)),
        ],
        ids=["base-2M+1", "base-without-images"],
    )
    def test_coding_bound_is_tight(self, monkeypatch, k, g_ss, g_es, g_se):
        elems = [PseudoOrthogonal.identity(2), embed_gl(IntMat([[1, k], [0, -1]]))]
        faked = {(0, 0): (0, 0, 0, 0), (0, 1): g_es, (1, 0): g_se, (1, 1): g_ss}
        monkeypatch.setattr(kinvariant, "gamma", lambda a, b: faked[elems.index(a), elems.index(b)])
        got = finite_group_failures(elems)
        assert {"trial": 0, "check": "n1-two-torsion", "triple": [1, 1, 1]} in got
        assert got == reference_table_failures(elems)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_reference(self, n):
        # V stays exhaustive in the reference up to n = 4 (16^3 = 4096 triples)
        assert len(v_elements(n)) ** 3 <= 4096
        for tag, seed in (("Z", 0), ("V", 0), ("GL", 41 + n), ("SO", 43 + n)):
            assert subgroup_vanishing_failure(tag, n) is None
            assert reference_subgroup_vanishing(tag, n, trials=30, seed=seed)

    @staticmethod
    def _gl_and_shift(n):
        return [embed_gl(g) for g in gl_generators(n)] + [embed_so(so_basis(n)[0])]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", ["gl-and-shift", "standard"])
    def test_controls_fail_and_the_claim_fails_with_them(self, monkeypatch, n, family):
        gens = self._gl_and_shift(n) if family == "gl-and-shift" else standard_generators(n)
        monkeypatch.setitem(kinvariant._GENERATORS, "GL", lambda rank: gens)
        record = subgroup_vanishing_failure("GL", n)
        assert set(record) == {"subgroup", "generators"} and record["subgroup"] == "GL"
        g, h = (gens[i] for i in record["generators"])
        low = b_split(g)[1]
        assert h.iso != 1 or h.mat.transpose() * low * h.mat != low
        # the certificate is not stricter than the claim: m != 0 somewhere in the group
        rng = XorShift64Star(7 + n)
        zero = (0,) * (2 * n)
        assert any(
            k_cocycle(*(random_word(gens, 4 + rng.below(5), rng) for _ in range(3))) != zero
            for _ in range(200)
        )

    def test_generator_with_iso_minus_one_fails(self, monkeypatch):
        # diag(1, -1) has B = 0, so only the iso condition of the proof refuses it
        g = enumerate_n1()[6]
        assert g.iso == -1 and not any(map(any, b_matrix(g).data))
        monkeypatch.setitem(kinvariant._GENERATORS, "SO", lambda rank: [PseudoOrthogonal.identity(1), g])
        assert subgroup_vanishing_failure("SO", 1) == {"subgroup": "SO", "generators": [0, 1]}

    def test_injected_generator_names_the_pair(self, monkeypatch, capsys):
        monkeypatch.setitem(kinvariant._GENERATORS, "GL", self._gl_and_shift)
        assert main(["verify", "--suite", "subgroups", "--n", "2", "--trials", "5", "--seed", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        # the shift is the fourth generator; the transvection E + E_12 moves its lower split
        assert report["failures"] == [
            {"trial": 0, "check": "subgroup-vanishing", "subgroup": "GL", "generators": [3, 0]}
        ]

    def test_injected_triple_names_the_n1_site(self, monkeypatch, capsys):
        flip = flip_element(1)
        real = kinvariant.k_cocycle
        monkeypatch.setattr(
            kinvariant, "k_cocycle", lambda a, b, c: (1, 0) if (a, c) == (flip, flip) else real(a, b, c)
        )
        assert main(["verify", "--suite", "subgroups", "--n", "3", "--trials", "5", "--seed", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == [
            {"trial": 0, "check": "subgroup-vanishing", "subgroup": tag, "triple": [1, 0, 1]}
            for tag in ("Z", "V")
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_v_is_block_diagonal_over_coordinate_pairs(self, n):
        blocks = {(i, i) for i in range(2 * n)} | {(i, i + n) for i in range(n)} | {(i + n, i) for i in range(n)}
        elems = v_elements(n)
        assert flip_element(n) in elems
        for a in elems:
            assert a.iso == 1
            for mat in (a.mat, *b_split(a)):
                assert all(mat[r, c] == 0 for r in range(2 * n) for c in range(2 * n) if (r, c) not in blocks)

    def test_work_draws_nothing(self, monkeypatch, capsys):
        # No subgroup check draws: every draw goes through next_u64.
        def no_draws(self):
            raise AssertionError("the subgroups suite drew a random number")

        calls = []
        real = kinvariant.k_cocycle
        monkeypatch.setattr(XorShift64Star, "next_u64", no_draws)
        monkeypatch.setattr(kinvariant, "k_cocycle", lambda *abc: calls.append(abc) or real(*abc))
        argv = ["verify", "--suite", "subgroups", "--n", "6", "--trials", "200", "--seed", "42"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        del report["elapsed_ms"]
        assert json.dumps(report, sort_keys=True, separators=(",", ":")) == (
            '{"failures":[],"n":6,"seed":42,"suite":"subgroups","trials":200}'
        )
        # Z and V read the 8 triples at n=1 each; GL and SO call no k_cocycle
        assert len(calls) == 16 and all(a.n == 1 for abc in calls for a in abc)


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

    def test_list_input_is_stored_as_tuple(self):
        e = PseudoOrthogonal.identity(2)
        x, y = DoubleCoverElement([0, 1, 1, 0], e), DoubleCoverElement((0, 1, 1, 0), e)
        assert x.u == (0, 1, 1, 0) and x == y
        assert hash(x) == hash(y) and len({x, y}) == 1

    @pytest.mark.parametrize("u", [(True, False, 0, 1), (0, 1, 1.0, 0)])
    def test_rejects_non_int_entries(self, u):
        with pytest.raises(TypeError):
            DoubleCoverElement(u, PseudoOrthogonal.identity(2))
