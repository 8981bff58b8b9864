"""Integer polynomials and the exact sign decider behind the tail proofs."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm.intpoly import (first_negative, peval, pgcd, pmul,
                               reduce_ratio, taylor_shift)

_COEF = 50


@st.composite
def polynomials(draw):
    """(c, R): integer coefficients, ascending, and an integer R past
    every real root of c, so c has one sign on [R, inf).

    Half are random coefficients in [-50, 50] with a nonzero leading one
    (every root r has |r| < 1 + 50 / 1); half are +-1 times a product of
    linear factors a n - b, which put (repeated) roots on and between the
    integers up to 150.
    """
    deg = draw(st.integers(min_value=0, max_value=8))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-_COEF, _COEF), min_size=deg,
                          max_size=deg))
        lead = draw(st.integers(-_COEF, _COEF).filter(bool))
        return tuple(c) + (lead,), _COEF + 1
    roots = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 150)),
                          min_size=deg, max_size=deg))
    c = (draw(st.sampled_from((-1, 1))),)
    for a, b in roots:
        c = pmul(c, (-b, a))
    return c, 151


@settings(max_examples=400, deadline=None)
@given(polynomials(), st.integers(min_value=0, max_value=50))
def test_first_negative_matches_brute_force(case, N):
    c, R = case
    # past R the sign is that of c(R + 1), so the scan below is complete
    want = next((n for n in range(N, max(N, R) + 2) if peval(c, n) < 0),
                None)
    assert first_negative(c, N) == want


def test_first_negative_decides_roots_on_and_between_integers():
    # (n - 20)^2 (2n - 41): a double root at 20, a simple one at 20.5
    c = pmul((-20, 1), (-20, 1), (-41, 2))
    assert first_negative(c, 0) == 0
    assert first_negative(c, 19) == 19
    assert first_negative(c, 20) is None
    assert first_negative(pmul(c, (-1,)), 20) == 21
    # no real root at all: n^2 + 1
    assert first_negative((1, 0, 1), -5) is None
    assert first_negative((), 3) is None


def test_first_negative_rejects_inexact_input():
    with pytest.raises(TypeError):
        first_negative((1, 0.5), 1)
    with pytest.raises(TypeError):
        first_negative((1, Fraction(1, 2)), 1)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7),
       st.integers(-30, 30), st.integers(-30, 30))
def test_taylor_shift_is_a_shift(c, N, m):
    assert peval(taylor_shift(tuple(c), N), m) == peval(tuple(c), N + m)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any))
def test_reduce_ratio_divides_out_the_gcd(f, g, h):
    A, B = pmul(tuple(f), tuple(h)), pmul(tuple(g), tuple(h))
    if not any(A) and not any(B):
        return
    a, b = reduce_ratio(A, B)
    assert pgcd(a, b) == (1,)
    # A b = a B at more points than their degree: the same polynomial
    for n in range(-10, 11):
        assert peval(A, n) * peval(b, n) == peval(a, n) * peval(B, n)
    assert math.gcd(*pgcd(A, B)) == math.gcd(*A, *B)
