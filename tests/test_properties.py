"""Seeded property tests for the algebraic laws of the 2-group layers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from td2g.groups import random_word, standard_generators
from td2g.intlinalg import Phase, RatVec
from td2g.kinvariant import k_cocycle, k_eval, twisted_action
from td2g.rng import XorShift64Star
from td2g.twogroup import (
    beta_multiplicator,
    eval_mor,
    obj_inverse,
    obj_product,
    obj_unit,
    section,
)

GENS2 = standard_generators(2)

seeds = st.integers(min_value=0, max_value=2**48)
lengths = st.integers(min_value=0, max_value=7)


def word(seed, length):
    return random_word(GENS2, length, seed)


@settings(max_examples=40, deadline=None)
@given(seeds, lengths, lengths)
def test_iso_is_multiplicative(seed, l1, l2):
    rng = XorShift64Star(seed)
    a = random_word(GENS2, l1, rng)
    b = random_word(GENS2, l2, rng)
    assert (a * b).iso == a.iso * b.iso


@settings(max_examples=40, deadline=None)
@given(seeds, lengths)
def test_group_inverse(seed, length):
    a = word(seed, length)
    e = obj_unit(2)
    o = section(a)
    assert obj_product(o, obj_inverse(o)) == e
    assert obj_product(obj_inverse(o), o) == e


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_object_product_associative(seed):
    rng = XorShift64Star(seed)
    o1, o2, o3 = (section(random_word(GENS2, 5, rng)) for _ in range(3))
    assert obj_product(obj_product(o1, o2), o3) == obj_product(o1, obj_product(o2, o3))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_twisted_action_is_action(seed):
    rng = XorShift64Star(seed)
    a = random_word(GENS2, 4, rng)
    b = random_word(GENS2, 4, rng)
    v = tuple(rng.int_in(-9, 9) for _ in range(4))
    assert twisted_action(a * b, v) == twisted_action(a, twisted_action(b, v))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_multiplicator_defect_matches_endpoints(seed):
    # beta(x+y) - beta(x) - beta(y) == eta_src(x,y) - eta_dst(x,y)
    rng = XorShift64Star(seed)
    a = random_word(GENS2, 4, rng)
    b = random_word(GENS2, 4, rng)
    m = beta_multiplicator(a, b)
    x = RatVec([rng.fraction() for _ in range(4)])
    y = RatVec([rng.fraction() for _ in range(4)])
    defect = eval_mor(m, x + y) - eval_mor(m, x) - eval_mor(m, y)
    assert defect == m.src.eta(x, y) - m.dst.eta(x, y)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_k_eval_is_a_character(seed):
    rng = XorShift64Star(seed)
    a, b, c = (random_word(GENS2, 4, rng) for _ in range(3))
    x = RatVec([rng.fraction() for _ in range(4)])
    y = RatVec([rng.fraction() for _ in range(4)])
    assert k_eval(a, b, c, x + y) == k_eval(a, b, c, x) + k_eval(a, b, c, y)
    m = RatVec.from_ints(k_cocycle(a, b, c))
    assert k_eval(a, b, c, x) == Phase(m.dot(x))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_k_cocycle_matches_k_eval_at_larger_rank(n):
    # The closed form against the multiplicator path, on words up to length 12;
    # at a point with prime denominator 1009, a wrong integer vector agrees
    # mod 1 only if its error is divisible by 1009.
    gens = standard_generators(n)
    rng = XorShift64Star(0x7D2C0 + n)
    for _ in range(20):
        a, b, c = (random_word(gens, rng.int_in(1, 12), rng) for _ in range(3))
        m = RatVec.from_ints(k_cocycle(a, b, c))
        for x in (
            RatVec([Fraction(rng.int_in(-504, 504), 1009) for _ in range(2 * n)]),
            RatVec([rng.fraction() for _ in range(2 * n)]),
        ):
            assert k_eval(a, b, c, x) == Phase(m.dot(x))
