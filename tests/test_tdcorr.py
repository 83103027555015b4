import re
from fractions import Fraction
from itertools import product

import pytest

from td2g import cli, jsonio, tdcocycle, tdcorr
from td2g.groups import (
    embed_gl,
    embed_so,
    flip_element,
    gl_generators,
    minus_identity,
    rotation_n1,
    so_basis,
)
from td2g.intlinalg import IntMat, Phase, RatVec, unimodular_inverse
from td2g.tdcorr import (
    NerveModel,
    TDCocycle,
    act,
    check_corr_delta,
    check_eps_cech,
    check_flip_identities,
    check_gerbe_cocycle,
    check_gl_identities,
    check_poincare,
    check_rotation_identities,
    check_so_shift_data,
    check_so_shift_gerbes,
    check_so_shift_identities,
    default_nerve,
    eps_cech_defect,
    first_violation,
    random_cocycle,
    validate,
)
from td2g.rng import XorShift64Star
from td2g.twogroup import Obj, beta_multiplicator, eval_mor, obj_product, obj_unit, section
from conftest import (
    SPLIT_NERVE,
    WIDE_NERVE,
    corr_cochain,
    gerbe_left,
    gerbe_right,
    rand_intvec,
    rand_ratvec,
    reference_act,
    reference_check_corr_delta,
    reference_check_eps_cech,
    reference_check_flip_identities,
    reference_check_gerbe_cocycle,
    reference_check_gl_identities,
    reference_check_poincare,
    reference_check_rotation_identities,
    reference_check_so_shift_data,
    reference_check_so_shift_gerbes,
    reference_first_violation,
    reference_gerbe_cocycle_failures,
    reference_gl_failures,
    reference_random_cocycle,
    reference_so_data_failures,
    reference_so_eps,
    reference_so_gerbe_failures,
    reference_swap_failures,
    words,
)


def flat_cocycle(nerve: NerveModel, seed: int) -> TDCocycle:
    """Rank-2 data with a_ij = lift_j - lift_i at each point and every m zero.

    Zero left-leg offsets force m == 0, where eps is an exact cocycle.  The
    other members come from a random cocycle, so `validate` may fail; eps
    only reads a and m.
    """
    c = random_cocycle(nerve, 2, seed)
    r = XorShift64Star(5)
    a = {}
    for p in nerve.points:
        lift = {i: rand_ratvec(r, 2) for i in nerve.cover[p]}
        for i, j in product(nerve.cover[p], repeat=2):
            a[(p, i, j)] = lift[j] - lift[i]
    return TDCocycle(nerve, 2, a, c.ahat, {k: (0, 0) for k in c.m}, c.mhat, c.t)


def zero_cocycle(nerve: NerveModel, n: int) -> TDCocycle:
    a, ahat, t = {}, {}, {}
    m, mhat = {}, {}
    idx_all = nerve.indices()
    for i in idx_all:
        for j in idx_all:
            for k in idx_all:
                m[(i, j, k)] = (0,) * n
                mhat[(i, j, k)] = (0,) * n
    for p in nerve.points:
        idx = nerve.cover[p]
        for i in idx:
            for j in idx:
                a[(p, i, j)] = RatVec.zero(n)
                ahat[(p, i, j)] = RatVec.zero(n)
                for k in idx:
                    t[(p, i, j, k)] = Phase(0)
    return TDCocycle(nerve, n, a, ahat, m, mhat, t)


class TestValidate:
    def test_zero_cocycle(self):
        assert validate(zero_cocycle(default_nerve(), 2))

    def test_generated_cocycles(self):
        for n in (1, 2, 3):
            for seed in (1, 2):
                assert validate(random_cocycle(default_nerve(), n, seed))

    def test_perturbation_detected(self):
        c = random_cocycle(default_nerve(), 2, 9)
        key = next(iter(c.t))
        bad_t = dict(c.t)
        bad_t[key] = bad_t[key] + Phase(Fraction(1, 3))
        bad = TDCocycle(c.nerve, c.n, c.a, c.ahat, c.m, c.mhat, bad_t)
        assert not validate(bad)
        violation = first_violation(bad)
        assert violation is not None and violation["condition"] == 5

    def test_missing_data_rejected(self):
        c = random_cocycle(default_nerve(), 1, 3)
        broken = dict(c.a)
        broken.pop(next(iter(broken)))
        with pytest.raises(ValueError):
            TDCocycle(c.nerve, c.n, broken, c.ahat, c.m, c.mhat, c.t)

    def test_entries_of_the_wrong_length_rejected(self):
        # a and ahat lengths that still add up to 2n, and an m entry that zip would truncate
        c = random_cocycle(default_nerve(), 2, 3)
        a, ahat, m = dict(c.a), dict(c.ahat), dict(c.m)
        a[("p3", 2, 2)], ahat[("p3", 2, 2)] = RatVec([0, 0, 0]), RatVec([0])
        with pytest.raises(ValueError, match="must have length 2"):
            TDCocycle(c.nerve, 2, a, ahat, c.m, c.mhat, c.t)
        m[(2, 2, 2)] = (0, 0, 0)
        with pytest.raises(ValueError, match="must have length 2"):
            TDCocycle(c.nerve, 2, c.a, c.ahat, m, c.mhat, c.t)

    def test_m_key_without_mhat_entry_rejected(self):
        # act reads mhat at every m key; validate reads neither off the nerve
        c = random_cocycle(default_nerve(), 2, 5)
        m, mhat = dict(c.m), dict(c.mhat)
        m[(9, 9, 9)] = (0, 0)
        with pytest.raises(ValueError, match=r"\(9, 9, 9\) is in one only"):
            TDCocycle(c.nerve, 2, c.a, c.ahat, m, c.mhat, c.t)
        mhat[(9, 9, 9)] = (0, 0)
        with pytest.raises(ValueError, match=r"\(9, 9, 9\) is in one only"):
            TDCocycle(c.nerve, 2, c.a, c.ahat, c.m, mhat, c.t)
        assert act(obj_unit(2), TDCocycle(c.nerve, 2, c.a, c.ahat, m, mhat, c.t)).m[(9, 9, 9)] == (0, 0)

    @pytest.mark.parametrize(
        "removed, message",
        [
            (("a",), "a and ahat must have the same keys; ('q3', 4, 5) is in one only"),
            (("ahat",), "a and ahat must have the same keys; ('q3', 4, 5) is in one only"),
            (("m",), "m and mhat must have the same keys; (3, 4, 5) is in one only"),
            (("mhat",), "m and mhat must have the same keys; (3, 4, 5) is in one only"),
            (("t",), "missing phase data at ('q3', 3, 4, 5)"),
            (("a", "ahat"), "missing transition data at ('q3', 4, 5)"),
            (("m", "mhat"), "phase data at ('q2', 3, 4, 5) lacks its m entry"),
        ],
        ids=["a", "ahat", "m", "mhat", "t", "a-and-ahat", "m-and-mhat"],
    )
    def test_missing_entry_is_named(self, removed, message):
        # the key sets of a, ahat and of m, mhat are compared before any site is read
        c = random_cocycle(WIDE_NERVE, 2, 11)
        data = {name: dict(getattr(c, name)) for name in MEMBERS}
        keys = {"a": ("q3", 4, 5), "m": (3, 4, 5), "t": ("q3", 3, 4, 5)}
        for name in removed:
            del data[name][keys[name[0]]]
        with pytest.raises(ValueError) as err:
            TDCocycle(c.nerve, 2, *[data[name] for name in MEMBERS])
        # a triple without m is named by its first phase site, q2 being the first point over 3, 4, 5
        assert str(err.value) == message

    def test_first_differing_key_is_named(self):
        # keys are compared in insertion order, so string hashing does not pick the one named
        c = random_cocycle(default_nerve(), 1, 3)
        ahat = dict(c.ahat)
        gone = list(ahat)[:6]
        for key in gone:
            del ahat[key]
        with pytest.raises(ValueError, match=f"same keys; {re.escape(str(gone[0]))} is in one only"):
            TDCocycle(c.nerve, 1, c.a, ahat, c.m, c.mhat, c.t)

    def test_t_entry_without_a_entries_rejected(self):
        # act reads a at (p, i, j) and (p, j, k) and m at (i, j, k) for each t entry
        c = random_cocycle(default_nerve(), 2, 5)
        t = dict(c.t)
        t[("p3", 1, 1, 2)] = Phase(Fraction(1, 3))
        with pytest.raises(ValueError, match=r"phase data at \('p3', 1, 1, 2\)"):
            TDCocycle(c.nerve, 2, c.a, c.ahat, c.m, c.mhat, t)
        a, ahat = dict(c.a), dict(c.ahat)
        for key in (("p3", 1, 1), ("p3", 1, 2)):
            a[key], ahat[key] = RatVec.zero(2), RatVec.zero(2)
        ok = TDCocycle(c.nerve, 2, a, ahat, c.m, c.mhat, t)
        assert act(obj_unit(2), ok) == ok
        t[("p3", 1, 1, 9)] = Phase(0)
        a[("p3", 1, 9)], ahat[("p3", 1, 9)] = RatVec.zero(2), RatVec.zero(2)
        with pytest.raises(ValueError, match=r"phase data at \('p3', 1, 1, 9\)"):
            TDCocycle(c.nerve, 2, a, ahat, c.m, c.mhat, t)


class TestAct:
    def test_unit_is_identity(self):
        c = random_cocycle(default_nerve(), 2, 11)
        assert act(obj_unit(2), c) == c

    def test_zero_cocycle_is_fixed(self):
        c = zero_cocycle(default_nerve(), 2)
        for w in words(2, 3, 241):
            assert act(section(w), c) == c

    def test_preserves_validity(self):
        c = random_cocycle(default_nerve(), 2, 13)
        for w in words(2, 6, 251):
            assert validate(act(section(w), c))

    def test_flip_data_formula(self):
        c = random_cocycle(default_nerve(), 2, 17)
        c2 = act(section(flip_element(2)), c)
        for (p, i, j, k), tv in c.t.items():
            expected = Phase(
                tv.frac
                - RatVec.from_ints(c.mhat[(i, j, k)]).dot(c.a[(p, i, k)])
                - c.ahat[(p, j, k)].dot(c.a[(p, i, j)])
            )
            assert c2.t[(p, i, j, k)] == expected

    def test_strictly_functorial(self):
        c = random_cocycle(default_nerve(), 2, 19)
        ws = words(2, 4, 257)
        o1 = section(ws[0])
        o2 = obj_product(section(ws[1]), section(ws[2]))
        assert act(obj_product(o1, o2), c) == act(o1, act(o2, c))

    def test_section_of_product_differs_by_multiplicator_defect(self):
        # act(S(AB), c) and act(S(A), act(S(B), c)) share a, ahat, m, mhat;
        # their t values differ by the defect of beta_{A,B} at the two
        # bilinear arguments of the action formula.
        c = random_cocycle(default_nerve(), 2, 23)
        a, b = words(2, 2, 263)
        via_product = act(section(a), act(section(b), c))
        via_section = act(section(a * b), c)
        assert via_product.a == via_section.a
        assert via_product.ahat == via_section.ahat
        assert via_product.m == via_section.m
        assert via_product.mhat == via_section.mhat
        mor = beta_multiplicator(a, b)

        def defect(x: RatVec, y: RatVec) -> Phase:
            return eval_mor(mor, x + y) - eval_mor(mor, x) - eval_mor(mor, y)

        for (p, i, j, k), tv in via_product.t.items():
            mvec = RatVec.from_ints(c.m[(i, j, k)] + c.mhat[(i, j, k)])
            u = RatVec(
                (c.a[(p, j, k)] + c.a[(p, i, j)]).entries
                + (c.ahat[(p, j, k)] + c.ahat[(p, i, j)]).entries
            )
            v_jk = RatVec(c.a[(p, j, k)].entries + c.ahat[(p, j, k)].entries)
            v_ij = RatVec(c.a[(p, i, j)].entries + c.ahat[(p, i, j)].entries)
            correction = defect(mvec, u) + defect(v_jk, v_ij)
            assert via_section.t[(p, i, j, k)] == tv + correction

    def test_non_section_object(self):
        # objects with the same group element differ by a symmetric integer
        # shift of the phase matrix; the action stays validity-preserving
        from td2g.twogroup import Obj

        c = random_cocycle(default_nerve(), 2, 27)
        w = words(2, 1, 269)[0]
        shift = IntMat.basis(4, 1, 2) + IntMat.basis(4, 2, 1) + IntMat.basis(4, 3, 3)
        o = Obj(w, section(w).x + shift)
        assert validate(act(o, c))

    def test_rank_mismatch(self):
        c = random_cocycle(default_nerve(), 2, 29)
        with pytest.raises(ValueError):
            act(obj_unit(1), c)


NERVES = {"default": default_nerve(), "split": SPLIT_NERVE, "wide": WIDE_NERVE}
MEMBERS = ("a", "ahat", "m", "mhat", "t")


def mutated(c: TDCocycle, member: str, rng: XorShift64Star) -> TDCocycle:
    """c with one entry of `member` changed by a nonzero amount."""
    data = {name: dict(getattr(c, name)) for name in MEMBERS}
    table = data[member]
    key = sorted(table)[rng.below(len(table))]
    pos = rng.below(c.n)
    if member in ("a", "ahat"):
        entries = list(table[key].entries)
        entries[pos] += Fraction(1 + rng.below(4), 1 + rng.below(6))
        table[key] = RatVec(entries)
    elif member in ("m", "mhat"):
        entries = list(table[key])
        entries[pos] += 1 + rng.below(2)
        table[key] = tuple(entries)
    else:
        table[key] = table[key] + Phase(Fraction(1, 2 + rng.below(6)))
    return TDCocycle(c.nerve, c.n, **data)


class TestIntegerKernels:
    """act and first_violation against the Fraction references in conftest."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_act_matches_reference(self, nerve, n):
        c = random_cocycle(NERVES[nerve], n, 401 + n)
        w1, w2 = words(n, 2, 409 + n)
        shift = IntMat.basis(2 * n, 1, 1).scale(3)
        dense = Obj(w2, section(w2).x + IntMat.identity(2 * n).scale(3))
        # every row of X nonzero, and entries beyond +-1
        assert all(map(any, dense.x.data)) and max(abs(x) for r in dense.x.data for x in r) > 1
        objects = (
            section(w1),
            obj_product(section(w1), section(w2)),
            Obj(w2, section(w2).x + shift),
            obj_unit(n),  # X = 0: no row of X adds a correction
            dense,
        )
        for o in objects:
            got = act(o, c)
            assert got == reference_act(o, c)
            assert first_violation(got) is None

    def test_act_on_extra_keys_matches_reference(self):
        # a cocycle built in code may carry data off the cover, even at an
        # unknown point; it is transformed like any other entry
        c = random_cocycle(SPLIT_NERVE, 2, 419)
        a, ahat, t = dict(c.a), dict(c.ahat), dict(c.t)
        for key in (("p3", 1, 2), ("p3", 1, 1), ("zz", 5, 5)):
            a[key] = RatVec([Fraction(1, 7 + key[1]), Fraction(-2, 3)])
            ahat[key] = RatVec([Fraction(5, 11), Fraction(key[2], 13)])
        t[("p3", 1, 1, 2)] = Phase(Fraction(2, 9))
        extra = TDCocycle(c.nerve, 2, a, ahat, c.m, c.mhat, t)
        for w in words(2, 2, 421):
            assert act(section(w), extra) == reference_act(section(w), extra)
        assert first_violation(extra) is None and reference_first_violation(extra) is None
        # a and ahat are stored as one row per key, so an ahat entry without an a entry is refused
        ahat[("p2", 9, 9)] = RatVec([Fraction(1, 17), 0])
        with pytest.raises(ValueError, match="same keys"):
            TDCocycle(c.nerve, 2, a, ahat, c.m, c.mhat, t)

    @pytest.mark.parametrize("tables", ["all", "a-and-m"])
    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_stored_order_does_not_matter(self, nerve, tables):
        # the kernels gather by key: reversing the stored order of every
        # table, or of a and m alone so that a and ahat (m and mhat) differ
        # in order, changes no result
        def reordered(c: TDCocycle) -> TDCocycle:
            rev = lambda table: dict(reversed(table.items()))  # noqa: E731
            keep = rev if tables == "all" else dict
            nums = {
                p: (*row[:4], rev(row[4]), keep(row[5]), keep(row[6]))
                for p, row in reversed(c.nums.items())
            }
            return TDCocycle._new(c.nerve, c.n, rev(c.m), keep(c.mhat), nums)

        rng = XorShift64Star(503)
        for n in (1, 2):
            c = random_cocycle(NERVES[nerve], n, 509 + n)
            flipped = reordered(c)
            assert list(flipped.m) == list(c.m)[::-1] and flipped == c
            for o in (section(w) for w in words(n, 2, 521 + n)):
                assert act(o, flipped) == act(o, c)
            assert first_violation(flipped) is None
            for member in MEMBERS:
                for _ in range(2):
                    bad = mutated(c, member, rng)
                    got = first_violation(reordered(bad))
                    assert got == first_violation(bad) == reference_first_violation(bad)
                    assert list(tdcorr._corr_delta_failures(reordered(bad))) == list(
                        tdcorr._corr_delta_failures(bad)
                    )

    def test_act_makes_no_matrix_vector_product(self, monkeypatch):
        # A and X act on whole coordinate columns through their nonzero entries
        calls = []
        mul_vec = IntMat.mul_vec
        monkeypatch.setattr(IntMat, "mul_vec", lambda m, v: calls.append(v) or mul_vec(m, v))
        c = random_cocycle(default_nerve(), 2, 523)
        o = section(words(2, 1, 527)[0])
        got = act(o, c)
        assert calls == []
        assert got == reference_act(o, c)

    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_corr_delta_records_are_condition_2_failures(self, nerve):
        # every failing triple of ahat_ik = mhat_ijk + ahat_jk + ahat_ij, per
        # point in nerve order and triple in product order
        rng = XorShift64Star(541)
        seen = 0
        for n in (1, 2):
            c = random_cocycle(NERVES[nerve], n, 547 + n)
            for member in ("ahat", "mhat", "a"):
                bad = mutated(c, member, rng)
                expected = []
                for p in bad.nerve.points:
                    for i, j, k in product(bad.nerve.cover[p], repeat=3):
                        rhs = bad.ahat[(p, j, k)] + bad.ahat[(p, i, j)]
                        if bad.ahat[(p, i, k)] != RatVec.from_ints(bad.mhat[(i, j, k)]) + rhs:
                            expected.append((p, (i, j, k), "a"))
                assert list(tdcorr._corr_delta_failures(bad)) == expected
                seen += len(expected)
        assert seen

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_random_cocycle_matches_reference(self, nerve, n):
        for seed in (0, 1, 2, 617, 2**64 - 1):
            got = random_cocycle(NERVES[nerve], n, seed)
            ref = reference_random_cocycle(NERVES[nerve], n, seed)
            assert got.m == ref.m and got.mhat == ref.mhat
            for member in ("a", "ahat", "t"):
                assert dict(getattr(got, member)) == dict(getattr(ref, member))

    @pytest.mark.parametrize("member", MEMBERS)
    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_first_violation_matches_reference(self, nerve, member):
        rng = XorShift64Star(431)
        found = set()
        for n in (1, 2, 3):
            c = random_cocycle(NERVES[nerve], n, 433 + n)
            for _ in range(3 if nerve == "wide" else 6):
                bad = mutated(c, member, rng)
                got = first_violation(bad)
                assert got == reference_first_violation(bad)
                found.add(None if got is None else got["condition"])
        # conditions 3 and 4 follow from 1 and 2 at the same point, so they never come first
        expected = {"a": {1}, "ahat": {2}, "m": {1}, "mhat": {2}, "t": {5}}[member]
        assert found - {None} == expected

    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_phase_bump_off_the_first_chart_is_found_from_it(self, nerve):
        # condition 5 is checked only at quadruples (i0, j, k, l), i0 = cover[p][0];
        # a bad phase at a triple (j, k, l) without i0 first fails at (i0, j, k, l)
        rng = XorShift64Star(487)
        widths = set()
        for n in (1, 2):
            c = random_cocycle(NERVES[nerve], n, 491 + n)
            for p in c.nerve.points:
                idx = c.nerve.cover[p]
                if len(idx) < 3:
                    continue
                widths.add(len(idx))
                d, big, wd, w, an, hn, tn = c.nums[p]
                rest = list(product(idx[1:], repeat=3))
                for _ in range(2):
                    jkl = rest[rng.below(len(rest))]
                    bumped = {**tn, jkl: (tn[jkl] + 1 + rng.below(big - 1)) % big}
                    nums = {**c.nums, p: (d, big, wd, w, an, hn, bumped)}
                    bad = TDCocycle._new(c.nerve, n, c.m, c.mhat, nums)
                    got = first_violation(bad)
                    assert got == {"condition": 5, "point": p, "indices": (idx[0], *jkl)}
                    assert got == reference_first_violation(bad)
        assert widths == ({3} if nerve == "split" else {3, 4})

    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_condition_5_reads_cubically_many_phases(self, nerve):
        class CountingDict(dict):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

        c = random_cocycle(NERVES[nerve], 2, 499)
        p = max(c.nerve.points, key=lambda q: len(c.nerve.cover[q]))
        width = len(c.nerve.cover[p])
        counted = CountingDict(c.nums[p][6])
        nums = {**c.nums, p: (*c.nums[p][:6], counted)}
        assert first_violation(TDCocycle._new(c.nerve, 2, c.m, c.mhat, nums)) is None
        # every quadruple would read 4 * width**4 phases
        assert 0 < counted.reads <= 4 * width**3


class TestGerbeCochains:
    def test_zero_cocycle_gives_zero(self, rng):
        c = zero_cocycle(default_nerve(), 2)
        x = rand_ratvec(rng, 2)
        assert gerbe_left(c, "p0", (0, 1, 2), x).is_zero()
        assert gerbe_right(c, "p0", (0, 1, 2), x).is_zero()
        assert corr_cochain(c, "p0", (0, 1), x, x, (0, 0), (0, 0)).is_zero()

    def test_cocycle_condition(self):
        for n in (1, 2):
            c = random_cocycle(default_nerve(), n, 31 + n)
            assert check_gerbe_cocycle(c, samples=40, seed=5)

    def test_left_linearity_offset(self, rng):
        # shifting the fiber coordinate changes the left cocycle by -shift . mhat
        c = random_cocycle(default_nerve(), 2, 37)
        for _ in range(10):
            x = rand_ratvec(rng, 2)
            d = rand_ratvec(rng, 2)
            diff = gerbe_left(c, "p0", (0, 1, 2), x + d) - gerbe_left(c, "p0", (0, 1, 2), x)
            assert diff == Phase(-d.dot(RatVec.from_ints(c.mhat[(0, 1, 2)])))

    def test_bad_indices(self, rng):
        c = random_cocycle(default_nerve(), 2, 41)
        with pytest.raises(ValueError):
            gerbe_left(c, "p3", (0, 1, 2), rand_ratvec(rng, 2))

    def test_corr_delta(self):
        for n in (1, 2):
            c = random_cocycle(default_nerve(), n, 43 + n)
            assert check_corr_delta(c, samples=40, seed=7)

    def test_poincare_reduction(self):
        c = random_cocycle(default_nerve(), 2, 47)
        assert check_poincare(c, samples=10, seed=9)

    def test_single_chart_formula(self, rng):
        # with vanishing repeated-index data the cochain is exactly -m2 . ahat
        c = random_cocycle(default_nerve(), 2, 53)
        for _ in range(10):
            a, ahat = rand_ratvec(rng, 2), rand_ratvec(rng, 2)
            m2 = rand_intvec(rng, 2)
            got = corr_cochain(c, "p3", (2, 2), a, ahat, m2, (0, 0))
            assert got == Phase(-ahat.dot(RatVec.from_ints(m2)))


class TestFlipIdentities:
    def test_zero_cocycle(self):
        assert check_flip_identities(zero_cocycle(default_nerve(), 2), samples=10, seed=1)

    def test_random_cocycles(self):
        for n in (1, 2):
            c = random_cocycle(default_nerve(), n, 59 + n)
            assert check_flip_identities(c, samples=40, seed=3)

    def test_corrupted_action_rejected(self):
        c = random_cocycle(default_nerve(), 2, 61)
        good = act(section(flip_element(2)), c)
        bad_t = {k: -v for k, v in good.t.items()}
        bad = TDCocycle(good.nerve, good.n, good.a, good.ahat, good.m, good.mhat, bad_t)
        assert not check_flip_identities(c, samples=10, seed=3, transformed=bad)


class TestGLIdentities:
    def test_identity_element(self):
        c = random_cocycle(default_nerve(), 2, 67)
        assert check_gl_identities(c, IntMat.identity(2), samples=20, seed=1)

    def test_transvection(self):
        c = random_cocycle(default_nerve(), 2, 71)
        assert check_gl_identities(c, IntMat([[1, 1], [0, 1]]), samples=40, seed=2)

    def test_minus_identity(self):
        c = random_cocycle(default_nerve(), 2, 73)
        assert check_gl_identities(c, IntMat.identity(2).scale(-1), samples=40, seed=3)


class TestRotationIdentities:
    def test_zero_cocycle(self):
        assert check_rotation_identities(zero_cocycle(default_nerve(), 1), samples=10, seed=1)

    def test_random_cocycle(self):
        c = random_cocycle(default_nerve(), 1, 79)
        assert check_rotation_identities(c, samples=40, seed=2)

    def test_rotation_squared_and_minus_identity(self):
        c = random_cocycle(default_nerve(), 1, 83)
        twice = act(section(rotation_n1()), act(section(rotation_n1()), c))
        assert validate(twice)
        assert validate(act(section(minus_identity(1)), c))

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            check_rotation_identities(random_cocycle(default_nerve(), 2, 89))


class TestSoShift:
    def test_zero_shift(self):
        c = random_cocycle(default_nerve(), 2, 97)
        b = IntMat.zeros(2)
        assert act(section(embed_so(b)), c) == c
        assert check_so_shift_identities(c, b)

    def test_data_and_gerbes_hold(self):
        for n, seed in ((2, 101), (3, 103)):
            c = random_cocycle(default_nerve(), n, seed)
            b = IntMat(
                [[0, 1] + [0] * (n - 2), [-1, 0] + [0] * (n - 2)]
                + [[0] * n for _ in range(n - 2)]
            )
            assert check_so_shift_data(c, b)
            assert check_so_shift_gerbes(c, b, samples=40, seed=5)

    def test_eps_cech_fails_for_generic_data(self):
        # the plain Cech identity for eps is false in general; its honest
        # coboundary is a_kl . (B m_ijk) mod Z (see eps_cech_defect)
        c = random_cocycle(default_nerve(), 2, 107)
        b = IntMat([[0, 1], [-1, 0]])
        assert not check_eps_cech(c, b)

    def test_eps_defect_closed_form(self):
        for n, seed in ((2, 109), (3, 113)):
            c = random_cocycle(default_nerve(), n, seed)
            b = IntMat(
                [[0, 2] + [0] * (n - 2), [-2, 0] + [0] * (n - 2)]
                + [[0] * n for _ in range(n - 2)]
            )
            for p in c.nerve.points:
                idx = c.nerve.cover[p]
                for i in idx:
                    for j in idx:
                        for k in idx:
                            for l in idx:
                                d, closed = eps_cech_defect(c, b, p, (i, j, k, l))
                                assert d == closed
                                # defect is the left-leg pairing mod Z
                                pairing_term = c.a[(p, k, l)].dot(
                                    RatVec.from_ints(b.mul_vec(c.m[(i, j, k)]))
                                )
                                assert (d - pairing_term).denominator == 1

    def test_eps_cech_holds_without_left_lattice_classes(self):
        assert check_eps_cech(flat_cocycle(default_nerve(), 127), IntMat([[0, 1], [-1, 0]]))

    @pytest.mark.parametrize("nerve", [default_nerve(), SPLIT_NERVE, WIDE_NERVE])
    def test_eps_cech_matches_per_face_reference(self, nerve):
        b2 = IntMat([[0, 1], [-1, 0]])
        cases = [(random_cocycle(nerve, 1, 3), IntMat([[0]]))]
        cases += [(random_cocycle(nerve, 2, s), b) for s in (5, 7) for b in (b2, b2.scale(0))]
        cases.append((flat_cocycle(nerve, 11), b2.scale(3)))
        results = [check_eps_cech(c, b) for c, b in cases]
        assert results == [reference_check_eps_cech(c, b) for c, b in cases]
        assert True in results and False in results

    def test_eps_computed_once_per_point(self, monkeypatch):
        nerve = default_nerve()
        c, b = flat_cocycle(nerve, 127), IntMat([[0, 1], [-1, 0]])
        calls = []
        point_eps = tdcorr._point_eps
        monkeypatch.setattr(
            tdcorr, "_point_eps", lambda *args: calls.append(args[1]) or point_eps(*args)
        )
        assert check_eps_cech(c, b)
        # one column of eps per point, over all of its triples: not one eps per face
        assert calls == list(nerve.points)
        calls.clear()
        eps_cech_defect(c, b, nerve.points[0], (0, 1, 0, 1))
        assert calls == [nerve.points[0]]

    def test_wrong_split_fails_the_decomposition_first(self, monkeypatch):
        # decided once per b, as b == L - L^T, before any site
        c, b = random_cocycle(default_nerve(), 2, 617), so_basis(2)[0]
        shifted = act(section(embed_so(b)), c)
        assert check_so_shift_gerbes(c, b, transformed=shifted)
        split = tdcorr.strict_lower_split
        monkeypatch.setattr(tdcorr, "strict_lower_split", lambda m: split(m).scale(2))
        failures = tdcorr._so_gerbe_failures(c, shifted, b, tdcorr._check_so_skew(c, b))
        assert tdcorr._first("so-shift-gerbes", failures) == {
            "check": "so-shift-gerbes", "point": None, "indices": (), "term": "decomposition"
        }
        assert not check_so_shift_gerbes(c, b, transformed=shifted)

    def test_global_lattice_data_is_transformed_once(self, monkeypatch):
        # m and mhat are transformed by b and b_low once per call, not at every (point, triple)
        c, b = random_cocycle(WIDE_NERVE, 2, 11), so_basis(2)[0]
        shifted = act(section(embed_so(b)), c)
        calls = []
        mul_vec = IntMat.mul_vec
        monkeypatch.setattr(IntMat, "mul_vec", lambda m, v: calls.append(v) or mul_vec(m, v))
        assert check_so_shift_data(c, b, transformed=shifted)
        assert check_so_shift_gerbes(c, b, transformed=shifted)
        assert len(calls) <= 2 * len(c.m)

    def test_eps_defect_matches_per_face_sum(self):
        # the faces are summed over Fractions, independently of the numerator kernel
        c, b = random_cocycle(default_nerve(), 2, 109), IntMat([[0, 2], [-2, 0]])
        b_low = tdcorr._check_so_skew(c, b)
        for p in c.nerve.points:
            for i, j, k, l in product(c.nerve.cover[p], repeat=4):
                faces = (
                    reference_so_eps(c, b_low, p, j, k, l)
                    - reference_so_eps(c, b_low, p, i, k, l)
                    + reference_so_eps(c, b_low, p, i, j, l)
                    - reference_so_eps(c, b_low, p, i, j, k)
                )
                assert eps_cech_defect(c, b, p, (i, j, k, l))[0] == faces

    def test_rejects_non_skew(self):
        c = random_cocycle(default_nerve(), 2, 131)
        with pytest.raises(ValueError):
            check_so_shift_identities(c, IntMat.identity(2))


def with_entry(c: TDCocycle, member: str, key, value) -> TDCocycle:
    """c with the one entry `key` of `member` replaced by `value`."""
    data = {name: dict(getattr(c, name)) for name in MEMBERS}
    data[member][key] = value
    return TDCocycle(c.nerve, c.n, **data)


def kernel_cases(c: TDCocycle, rng: XorShift64Star, member: str) -> list:
    """(name, column kernel, per-site reference, args) for every identity kernel: on c and on
    c with `member` mutated; and for each action on c with its image, with that image
    mutated, and on the mutated c with its own image."""
    n = c.n
    bad = mutated(c, member, rng)
    gerbe = (tdcorr._gerbe_cocycle_failures, reference_gerbe_cocycle_failures)
    cases = [("gerbe-cocycle", *gerbe, (x,)) for x in (c, bad)]

    def pairs(elem):
        image = act(section(elem), c)
        return [(c, image), (c, mutated(image, member, rng)), (bad, act(section(elem), bad))]

    swaps = [("flip", flip_element(n), 1)] + ([("rotation", rotation_n1(), -1)] if n == 1 else [])
    for name, elem, s in swaps:
        for y, x in pairs(elem):
            cases.append((name, tdcorr._swap_failures, reference_swap_failures, (y, x, s)))
    for g in gl_generators(n):
        gi_t = unimodular_inverse(g).transpose()
        for y, x in pairs(embed_gl(g)):
            cases.append(("gl", tdcorr._gl_failures, reference_gl_failures, (y, x, g, gi_t)))
    for b in so_basis(n):
        b_low = tdcorr._check_so_skew(c, b)
        data = (tdcorr._so_data_failures, reference_so_data_failures)
        gerbes = (tdcorr._so_gerbe_failures, reference_so_gerbe_failures)
        for y, x in pairs(embed_so(b)):
            args = (y, x, b, b_low)
            cases += [("so-shift-data", *data, args), ("so-shift-gerbes", *gerbes, args)]
    return cases


def exhaustive_and_sampled(n: int, samples: int):
    """(name, exhaustive check, sampled reference) for every converted check at rank n."""
    g, b = gl_generators(n)[0], so_basis(n)[0] if n > 1 else None
    pairs = [
        ("gerbe-cocycle", check_gerbe_cocycle, lambda c: reference_check_gerbe_cocycle(c, samples, 1)),
        ("corr-delta", check_corr_delta, lambda c: reference_check_corr_delta(c, samples, 2)),
        ("poincare", check_poincare, lambda c: reference_check_poincare(c, samples, 3)),
        ("flip", check_flip_identities, lambda c: reference_check_flip_identities(c, samples, 4)),
        (
            "gl",
            lambda c: check_gl_identities(c, g),
            lambda c: reference_check_gl_identities(c, g, samples, 5),
        ),
    ]
    if n == 1:
        rotation = lambda c: reference_check_rotation_identities(c, samples, 6)  # noqa: E731
        pairs.append(("rotation", check_rotation_identities, rotation))
    else:
        pairs.append(
            ("so-shift-data", lambda c: check_so_shift_data(c, b), lambda c: reference_check_so_shift_data(c, b))
        )
        pairs.append(
            (
                "so-shift-gerbes",
                lambda c: check_so_shift_gerbes(c, b),
                lambda c: reference_check_so_shift_gerbes(c, b, samples, 7),
            )
        )
    return pairs


class TestExhaustiveChecks:
    """The identity checks visit every site; the sampled bodies in conftest are references."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nerve", sorted(NERVES))
    def test_valid_cocycles_and_their_images_pass(self, nerve, n):
        c = random_cocycle(NERVES[nerve], n, 521 + n)
        for cc in [c] + [act(section(w), c) for w in words(n, 2, 523 + n)]:
            assert check_gerbe_cocycle(cc) and check_corr_delta(cc) and check_poincare(cc)
            assert check_flip_identities(cc)
            assert all(check_gl_identities(cc, g) for g in gl_generators(n))
            if n == 1:
                assert check_rotation_identities(cc)
            for b in so_basis(n):
                assert check_so_shift_data(cc, b) and check_so_shift_gerbes(cc, b)

    def test_single_site_defects(self):
        # one wrong t at one triple, one wrong ahat at one pair, one wrong m
        # at one triple: the suite's 10 samples miss all three, every site is visited
        c = random_cocycle(default_nerve(), 2, 5)
        t_key, h_key, m_key = ("p0", 0, 1, 3), ("p0", 1, 3), (0, 2, 3)
        bad_t = with_entry(c, "t", t_key, c.t[t_key] + Phase(Fraction(1, 7)))
        h = c.ahat[h_key].entries
        bad_h = with_entry(c, "ahat", h_key, RatVec([h[0] + Fraction(1, 3), h[1]]))
        bad_m = with_entry(c, "m", m_key, (c.m[m_key][0] + 1, c.m[m_key][1]))
        assert reference_check_gerbe_cocycle(bad_t, samples=10, seed=5)
        assert reference_check_corr_delta(bad_h, samples=10, seed=5)
        assert reference_check_gerbe_cocycle(bad_m, samples=10, seed=5)
        assert not check_gerbe_cocycle(bad_t, samples=10, seed=5)
        assert not check_corr_delta(bad_h, samples=10, seed=5)
        assert not check_gerbe_cocycle(bad_m, samples=10, seed=5)
        # each record names the defect's point and a site that has it as a face
        # (0, 0, 1, 3) is skipped: its faces 0|1|3 enter twice with opposite signs
        assert tdcorr._first("gerbe-cocycle", tdcorr._gerbe_cocycle_failures(bad_t)) == {
            "check": "gerbe-cocycle", "point": "p0", "indices": (0, 1, 0, 3), "term": "left"
        }
        assert tdcorr._first("corr-delta", tdcorr._corr_delta_failures(bad_h)) == {
            "check": "corr-delta", "point": "p0", "indices": (0, 1, 3), "term": "a"
        }
        assert tdcorr._first("gerbe-cocycle", tdcorr._gerbe_cocycle_failures(bad_m)) == {
            "check": "gerbe-cocycle", "point": "p0", "indices": (0, 1, 2, 3), "term": "delta-m"
        }

    @pytest.mark.parametrize("member", MEMBERS)
    def test_every_sampled_failure_is_an_exhaustive_failure(self, member):
        # the references evaluate gerbe_left, gerbe_right and corr_cochain at
        # random fiber points; any failure there is a failure of the exhaustive check
        rng = XorShift64Star(541)
        caught = {}
        for n in (1, 2, 3):
            checks = exhaustive_and_sampled(n, 20)
            for nerve in ("default", "split") if n == 3 else sorted(NERVES):
                c = random_cocycle(NERVES[nerve], n, 547 + n)
                for _ in range(1 if nerve == "wide" else 2):
                    bad = mutated(c, member, rng)
                    for name, exhaustive, sampled in checks:
                        ok = exhaustive(bad)
                        if not sampled(bad):
                            assert not ok, (name, n, nerve)
                        caught[name] = caught.get(name, 0) + (not ok)
        assert caught["gerbe-cocycle"]

    @pytest.mark.parametrize("member", MEMBERS)
    def test_mutated_flip_image_is_rejected(self, member):
        rng = XorShift64Star(557)
        for nerve in sorted(NERVES):
            c = random_cocycle(NERVES[nerve], 2, 563)
            good = act(section(flip_element(2)), c)
            for _ in range(3):
                bad = mutated(good, member, rng)
                if bad == good:
                    continue
                assert not reference_check_flip_identities(c, samples=50, seed=3, transformed=bad)
                got = tdcorr._first("flip", tdcorr._swap_failures(c, bad, 1))
                assert got is not None and got["point"] in (None, *c.nerve.points)

    def test_transformed_over_other_denominators(self):
        # a transformed cocycle built afresh has its own view; a t entry with a
        # new denominator is compared over the joint one
        c = random_cocycle(default_nerve(), 2, 569)
        good = act(section(flip_element(2)), c)
        fresh = TDCocycle(good.nerve, 2, good.a, good.ahat, good.m, good.mhat, good.t)
        assert check_flip_identities(c, transformed=fresh)
        key = ("p1", 0, 2, 1)
        bad = with_entry(good, "t", key, good.t[key] + Phase(Fraction(1, 11)))
        assert tdcorr._first("flip", tdcorr._swap_failures(c, bad, 1)) == {
            "check": "flip", "point": "p1", "indices": (0, 2, 1), "term": "t"
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("member", MEMBERS)
    def test_first_records_match_the_per_site_references(self, member, n):
        # the column kernels against the per-site loops they replaced, on valid
        # cocycles, mutated cocycles and their images, and mutated images
        rng = XorShift64Star(601 + n)
        failing = 0
        for nerve in sorted(NERVES):
            c = random_cocycle(NERVES[nerve], n, 607 + n)
            cases = kernel_cases(c, rng, member)
            for name, kernel, reference, args in cases:
                got = tdcorr._first(name, kernel(*args))
                assert got == tdcorr._first(name, reference(*args)), (name, nerve)
                failing += got is not None
        assert failing
        # a transformed cocycle rebuilt over other denominators, then mutated
        c = random_cocycle(default_nerve(), n, 613)
        good = act(section(flip_element(n)), c)
        fresh = TDCocycle(good.nerve, n, good.a, good.ahat, good.m, good.mhat, good.t)
        key = ("p1", 0, 2, 1)
        bad = with_entry(fresh, "t", key, fresh.t[key] + Phase(Fraction(1, 11)))
        for image in (fresh, bad):
            got = tdcorr._first("flip", tdcorr._swap_failures(c, image, 1))
            assert got == tdcorr._first("flip", reference_swap_failures(c, image, 1))
        assert got == {"check": "flip", "point": "p1", "indices": (0, 2, 1), "term": "t"}

    def test_so_shift_checks_share_the_transformed_cocycle(self):
        c = random_cocycle(default_nerve(), 2, 571)
        b = IntMat([[0, 1], [-1, 0]])
        shifted = act(section(embed_so(b)), c)
        assert check_so_shift_data(c, b, transformed=shifted)
        assert check_so_shift_gerbes(c, b, transformed=shifted)
        wrong = act(section(embed_so(b.scale(2))), c)
        assert not check_so_shift_data(c, b, transformed=wrong)
        assert not check_so_shift_gerbes(c, b, transformed=wrong)

    def test_checks_draw_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a check drew random numbers")

        c = random_cocycle(default_nerve(), 2, 577)
        c1 = random_cocycle(default_nerve(), 1, 577)
        monkeypatch.setattr(tdcocycle, "XorShift64Star", refuse)
        b = so_basis(2)[0]
        assert check_gerbe_cocycle(c) and check_corr_delta(c) and check_poincare(c)
        assert check_flip_identities(c) and check_gl_identities(c, gl_generators(2)[0])
        assert check_rotation_identities(c1)
        assert check_so_shift_data(c, b) and check_so_shift_gerbes(c, b)

    def test_tdcorr_suite_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tdcorr suite built a Fraction")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert cli._suite_tdcorr(1, 2, 7) == []
        # eps-cech fails by design at n = 2 (see check_eps_cech)
        assert all(f["failed"] == ["eps-cech"] for f in cli._suite_tdcorr(2, 2, 7))

    def test_equal_across_denominators(self):
        # the generator stores every point over D = 60; the public constructor
        # and the JSON round trip store the lcm of the reduced denominators,
        # which is 1 at the single-chart point p3
        def rebuild(x: TDCocycle) -> TDCocycle:
            return TDCocycle(x.nerve, x.n, x.a, x.ahat, x.m, x.mhat, x.t)

        def copies(x: TDCocycle) -> list[TDCocycle]:
            return [x, rebuild(x), jsonio.cocycle_from_json(jsonio.cocycle_to_json(x))]

        c = random_cocycle(default_nerve(), 2, 587)
        same = copies(c)
        assert [x.nums["p3"][:2] for x in same] == [(60, 3600), (1, 1), (1, 1)]
        assert same[1] == c and same[2] == c
        d, big, wd, w, an, hn, tn = c.nums["p1"]
        nums = {**c.nums, "p1": (d, big, wd, w, an, hn, {**tn, (0, 1, 2): tn[(0, 1, 2)] + 1})}
        bad = copies(TDCocycle._new(c.nerve, 2, c.m, c.mhat, nums))
        for group in (same, bad):
            assert len({str(first_violation(x)) for x in group}) == 1
        assert first_violation(bad[0]) == {"condition": 5, "point": "p1", "indices": (0, 1, 0, 2)}
        o = section(words(2, 1, 593)[0])
        dumps = {jsonio.canonical_dumps(jsonio.cocycle_to_json(act(o, x))) for x in same}
        assert len(dumps) == 1
        # a transformed cocycle over its own denominators is compared over the joint ones
        b = so_basis(2)[0]
        assert check_flip_identities(c, transformed=rebuild(act(section(flip_element(2)), c)))
        assert check_so_shift_data(c, b, transformed=rebuild(act(section(embed_so(b)), c)))
        assert all(check_gl_identities(rebuild(act(o, c)), g) for g in gl_generators(2))
