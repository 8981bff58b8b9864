"""Directed-rounding ball arithmetic and verified constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from binomharm import ball_arith
from binomharm.ball_arith import (Ball, ConstantName, DomainError, ball_sum,
                                  constant, working_precision)
from binomharm.exact_core import SurdQ5, alpha_power, beta_power
from binomharm.intpoly import first_negative, padd, peval, pmul, pscale

from _frozen import CONSTANTS, assert_contains

PREC = 200


def interval(b):
    return b.to_interval_fractions()


def contains(b, v: Fraction) -> bool:
    lo, hi = interval(b)
    return lo <= v <= hi


# ----------------------------------------------------------------------
# precision policy


def test_working_precision_formula():
    assert working_precision(1) == math.ceil(math.log2(10)) + 64
    assert working_precision(30) == math.ceil(30 * math.log2(10)) + 64
    assert working_precision(100) >= 100 * 3.32


# ----------------------------------------------------------------------
# construction


def test_from_fraction_exactness():
    assert Ball.from_fraction(Fraction(1, 2), PREC).rad_fraction() == 0
    b = Ball.from_fraction(Fraction(1, 3), PREC)
    assert b.rad_fraction() > 0
    assert contains(b, Fraction(1, 3))


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 9))
def test_from_fraction_contains(q):
    assert contains(Ball.from_fraction(q, 120), q)


def test_from_surd_rational_case():
    b = Ball.from_surd(SurdQ5.from_rational(Fraction(3, 4)), PREC)
    assert b.rad_fraction() == 0
    assert b.mid_fraction() == Fraction(3, 4)


def test_from_surd_catastrophic_cancellation():
    # beta^200 = (L_200 - F_200 sqrt5) / 2 is ~1e-42 while its two
    # components are ~1e41; a fixed-precision conversion would return
    # pure rounding noise here
    s = beta_power(200)
    b = Ball.from_surd(s, 120)
    mp.dps = 80
    ref = ((1 - mp.sqrt(5)) / 2) ** 200
    lo, hi = interval(b)
    assert mp.mpf(lo.numerator) / lo.denominator <= ref
    assert ref <= mp.mpf(hi.numerator) / hi.denominator
    # radius honors the relative-accuracy contract
    assert b.rad_fraction() <= abs(b.mid_fraction()) * Fraction(4) / 2 ** 120


@given(st.integers(min_value=-400, max_value=400))
def test_from_surd_alpha_powers(n):
    b = Ball.from_surd(alpha_power(n), 120)
    mp.dps = 60
    ref = ((1 + mp.sqrt(5)) / 2) ** n
    lo, hi = interval(b)
    assert mp.mpf(lo.numerator) / lo.denominator <= ref
    assert ref <= mp.mpf(hi.numerator) / hi.denominator


# ----------------------------------------------------------------------
# arithmetic containment

_qs = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@given(_qs, _qs)
def test_field_ops_contain_exact_result(a, b):
    ba = Ball.from_fraction(a, 120)
    bb = Ball.from_fraction(b, 120)
    assert contains(ba + bb, a + b)
    assert contains(ba - bb, a - b)
    assert contains(ba * bb, a * b)
    if b != 0:
        assert contains(ba / bb, a / b)
    assert contains(-ba, -a)
    assert contains(ba.mul_2exp(5), a * 32)
    assert contains(ba.mul_2exp(-7), a / 128)
    assert contains(ba.pow_int(3), a ** 3)


@given(_qs)
def test_sqrt_defining_property(q):
    if q < 0:
        with pytest.raises(DomainError):
            Ball.from_fraction(q, 120).sqrt()
        return
    root = Ball.from_fraction(q, 120).sqrt()
    assert contains(root * root, q)
    assert not root.is_negative()


@given(st.fractions(min_value=Fraction(1, 100), max_value=100,
                    max_denominator=1000))
def test_ln_against_reference(q):
    b = Ball.from_fraction(q, 160).ln()
    mp.dps = 70
    ref = mp.log(mp.mpf(q.numerator) / q.denominator)
    lo, hi = interval(b)
    assert mp.mpf(lo.numerator) / lo.denominator <= ref
    assert ref <= mp.mpf(hi.numerator) / hi.denominator


@given(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
def test_asin_against_reference(q):
    b = Ball.from_fraction(q, 160).asin()
    mp.dps = 70
    ref = mp.asin(mp.mpf(q.numerator) / q.denominator)
    lo, hi = interval(b)
    assert mp.mpf(lo.numerator) / lo.denominator <= ref
    assert ref <= mp.mpf(hi.numerator) / hi.denominator


def test_domain_errors():
    wide = Ball.from_fraction(Fraction(1, 10 ** 40), 64)
    with pytest.raises(DomainError):
        (wide - Ball.from_fraction(Fraction(1, 10 ** 39), 64)).sqrt()
    with pytest.raises(DomainError):
        Ball.zero(PREC).ln()
    with pytest.raises(DomainError):
        Ball.from_int(2, PREC).asin()
    with pytest.raises(DomainError):
        Ball.from_int(1, PREC) / Ball.zero(PREC)


# ----------------------------------------------------------------------
# exactness propagation


def test_exact_chain_cancels_to_true_zero():
    one = Ball.from_int(1, PREC)
    x = Ball.from_fraction(Fraction(1), PREC)
    z = one - x * x
    assert z.mid_fraction() == 0
    assert z.rad_fraction() == 0


def test_exact_growth_is_capped():
    # squaring doubles the mantissa; the exact path must eventually
    # hand over to rounded arithmetic instead of growing without bound
    b = Ball.from_fraction(Fraction(2 ** 10 + 1, 2 ** 10), 64)
    assert b.rad_fraction() == 0
    for _ in range(8):
        b = b * b
    assert b.rad_fraction() > 0


# ----------------------------------------------------------------------
# comparisons and summation


def test_overlaps_and_order():
    a = Ball.from_fraction(Fraction(1), PREC)
    b = Ball.from_fraction(Fraction(1), PREC)
    c = Ball.from_fraction(Fraction(2), PREC)
    assert a.overlaps(b)
    assert not a.overlaps(c)
    assert a.definitely_less_than(c)
    assert not c.definitely_less_than(a)
    # a shift far below the radius cannot break the overlap
    d = a + Ball.from_fraction(Fraction(1, 10 ** 70), PREC)
    assert a.overlaps(d) and d.overlaps(a)


@given(st.lists(_qs, min_size=0, max_size=25))
def test_ball_sum_contains_exact_sum(qs):
    balls = [Ball.from_fraction(q, 120) for q in qs]
    assert contains(ball_sum(balls, 120), sum(qs, Fraction(0)))


# ----------------------------------------------------------------------
# verified constants


@pytest.mark.parametrize("name", list(ConstantName))
def test_constants_match_frozen_references(name):
    ball = constant(name, PREC)
    assert_contains(ball, CONSTANTS[name.value], what=name.value)
    # radius contract: rad <= 2^(2-prec) |mid|
    assert ball.rad_fraction() <= abs(ball.mid_fraction()) * 4 / Fraction(2 ** PREC)


def test_constant_cache_returns_same_object():
    a = constant(ConstantName.CATALAN_G, 333)
    b = constant(ConstantName.CATALAN_G, 333)
    assert a is b


def test_constants_at_high_precision_are_consistent():
    lo1, hi1 = interval(constant(ConstantName.ZETA3, 150))
    lo2, hi2 = interval(constant(ConstantName.ZETA3, 700))
    assert lo1 <= lo2 <= hi2 <= hi1


# ----------------------------------------------------------------------
# the summation kernel's rows, against independent transcriptions

#: (A, B) of each summed constant as ascending integer coefficients
_ROW_POLYS = {
    # 32 n^3 (2n-1) (40n^2+56n+19) / ((4n+1)^2 (4n+3)^2 (40n^2-24n+3))
    ConstantName.CATALAN_G: (pmul((0, 0, 0, 32), (-1, 2), (19, 56, 40)),
                             pmul((1, 4), (1, 4), (3, 4), (3, 4),
                                  (3, -24, 40))),
    # n^3 / (2 (n+1)^2 (2n+1))
    ConstantName.ZETA3: ((0, 0, 0, 1), pmul((2,), (1, 1), (1, 1), (1, 2))),
    # n^2 / (2 (n+1) (2n+1))
    ConstantName.ZETA2: ((0, 0, 1), pmul((2,), (1, 1), (1, 2))),
}

_MPMATH_VALUE = {
    ConstantName.CATALAN_G: lambda: mp.catalan,
    ConstantName.ZETA3: lambda: mp.zeta(3),
    ConstantName.ZETA2: lambda: mp.zeta(2),
}


@pytest.mark.parametrize("name", list(_ROW_POLYS))
def test_summed_row_matches_its_transcription(name):
    row = ball_arith._ROWS[name]
    A, B = _ROW_POLYS[name]
    assert [(row.A(n), row.B(n)) for n in range(1, 201)] == [
        (peval(A, n), peval(B, n)) for n in range(1, 201)]
    # 4 A(n) < B(n), that is B - 4A - 1 >= 0, for every n >= 1
    assert first_negative(padd(padd(B, pscale(-4, A)), (-1,)), 1) is None


@pytest.mark.parametrize("prec", [53, 200, 1000, 3000])
@pytest.mark.parametrize("name", list(_ROW_POLYS))
def test_summed_constant_encloses_mpmath(name, prec):
    ball = constant(name, prec)
    with mp.workprec(2 * prec):
        man, exp = _MPMATH_VALUE[name]().man_exp
        v = Fraction(man) * Fraction(2) ** exp
    slack = (abs(v) + 1) / Fraction(2) ** (2 * prec - 4)
    lo, hi = interval(ball)
    assert lo - slack <= v <= hi + slack
    # radius contract: rad <= 2^(2-prec) |mid|
    assert ball.rad_fraction() <= abs(ball.mid_fraction()) * 4 / Fraction(2 ** prec)


def test_summed_row_rejects_a_ratio_of_a_quarter(monkeypatch):
    # 2n^2 / (2 (n+1) (2n+1)) passes 1/4 at n = 2
    row = ball_arith._ROWS[ConstantName.ZETA2]
    monkeypatch.setitem(ball_arith._ROWS, ConstantName.ZETA2,
                        row._replace(A=lambda n: 2 * n * n))
    with pytest.raises(ArithmeticError, match="not below 1/4 at n=2"):
        ball_arith._summed_ball(ConstantName.ZETA2, 60)
