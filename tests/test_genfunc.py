"""Generating-function closed forms and their series streams."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm.ball_arith import DomainError
from binomharm.exact_core import (SurdQ5, alpha_power, catalan_number, fib,
                                  harmonic, lucas)
from binomharm.genfunc import (GF_NAMES, family_stream, gf_domain,
                               gf_series_stream, gf_term, gf_value, needs_k,
                               substitution_point)
from binomharm.series_engine import AsymptoticTail, sum_to_precision

from _frozen import GF_REFS, assert_contains

PREC = 200


def interval(b):
    return b.to_interval_fractions()


# ----------------------------------------------------------------------
# closed forms against frozen references


@pytest.mark.parametrize("name,x,k,ref", GF_REFS)
def test_gf_value_matches_frozen_reference(name, x, k, ref):
    ball = gf_value(name, Fraction(x), PREC, k=k)
    assert_contains(ball, ref, what=f"{name}({x})")


def test_gf_value_accepts_exact_endpoints():
    # closed domains include the branch points; the enclosures there
    # must still be finite and tight
    for name in ("GF_CAT_HD", "GF_CAT_HALF", "GF_CAT_H2N"):
        for x in (Fraction(1, 4), Fraction(-1, 4)):
            ball = gf_value(name, x, PREC)
            assert ball.rad_fraction() < Fraction(1, 10 ** 40)
    for name in ("GF_EQ28", "GF_EQ29", "GF_EQ30"):
        for x in (Fraction(1), Fraction(-1)):
            ball = gf_value(name, x, PREC)
            assert ball.rad_fraction() < Fraction(1, 10 ** 40)


def test_gf_value_taylor_fallback_for_tiny_x():
    # far below the radix of the log/sqrt formulas, the value must
    # still match the series itself
    x = Fraction(1, 10 ** 6)
    ball = gf_value("GF_HD", x, PREC)
    partial = sum(gf_term("GF_HD", n, x) for n in range(1, 10))
    lo, hi = interval(ball)
    slack = Fraction(1, 10 ** 45)  # truncation after n = 9
    assert lo - slack <= partial <= hi + slack


# ----------------------------------------------------------------------
# exact terms


def test_gf_term_definitions():
    x = Fraction(3, 16)
    n = 5
    cb = math.comb(2 * n, n)
    assert gf_term("GF_M", n, x) == cb * x ** n * harmonic(n)
    assert gf_term("GF_HD", n, x) == cb * x ** n * (harmonic(2 * n)
                                                    - harmonic(n))
    assert gf_term("GF_H2N", n, x) == cb * x ** n * harmonic(2 * n)
    assert gf_term("GF_HD_HALF", n, x) == cb * x ** n * (
        harmonic(2 * n) - harmonic(n) / 2)
    assert gf_term("GF_CAT_HD", n, x) == catalan_number(n) * x ** n * (
        harmonic(2 * n) - harmonic(n))
    assert gf_term("GF_SHIFTED", n, x, k=3) == math.comb(2 * n + 3, n) * x ** n
    assert gf_term("GF_EQ28", n, x) == Fraction(
        n * cb, 4 ** n * (2 * n - 1) ** 2 * (2 * n + 1)) * x ** (2 * n)


def test_gf_term_accepts_surd_points():
    x = substitution_point("LUCAS", 2)
    t = gf_term("GF_M", 3, x)
    assert isinstance(t, SurdQ5)
    want = SurdQ5.from_rational(20 * harmonic(3)) * x * x * x
    assert (t - want).is_zero()


# ----------------------------------------------------------------------
# dual route: series partial sums meet the closed forms

_DUAL_POINTS = [
    ("GF_M", Fraction(-1, 8), None),
    ("GF_HD", Fraction(1, 8), None),
    ("GF_HD_HALF", Fraction(1, 7), None),
    ("GF_H2N", Fraction(1, 9), None),
    ("GF_CAT_HD", Fraction(-1, 8), None),
    ("GF_CAT_HALF", Fraction(1, 8), None),
    ("GF_CAT_H2N", Fraction(1, 10), None),
    ("GF_EQ28", Fraction(1, 2), None),
    ("GF_EQ29", Fraction(3, 4), None),
    ("GF_EQ30", Fraction(2, 3), None),
    ("GF_SHIFTED", Fraction(3, 16), 5),
    ("GF_SHIFTED", Fraction(-1, 5), 2),
]


@pytest.mark.parametrize("name,x,k", _DUAL_POINTS)
def test_series_route_overlaps_closed_form(name, x, k):
    stream, strategy = gf_series_stream(name, x, k=k)
    run = sum_to_precision(stream, strategy, 25)
    closed = gf_value(name, x, run.prec, k=k)
    assert run.value.overlaps(closed)
    # the fixture form diverges from everything else on purpose, so it
    # is excluded from this loop; spot-check its direction instead
    assert run.value.rad_fraction() < Fraction(1, 10 ** 25)


def test_as_printed_fixture_disagrees_with_series():
    x = Fraction(1, 8)
    stream, strategy = gf_series_stream("GF_HD_AS_PRINTED", x)
    run = sum_to_precision(stream, strategy, 20)
    printed = gf_value("GF_HD_AS_PRINTED", x, run.prec)
    assert not run.value.overlaps(printed)
    corrected = gf_value("GF_HD", x, run.prec)
    assert run.value.overlaps(corrected)


@pytest.mark.parametrize("name,x", [("GF_CAT_HD", Fraction(1, 4)),
                                    ("GF_CAT_HALF", Fraction(1, 4)),
                                    ("GF_EQ28", Fraction(1)),
                                    ("GF_EQ30", Fraction(-1))])
def test_series_route_at_y_one_takes_the_euler_maclaurin_tail(name, x):
    # at y = 1 (x = 1/4 for a Catalan series, x = +-1 for an arcsine
    # kernel) the terms decay like a power of n, and the recipe's tail
    # is the Euler-Maclaurin one
    stream, strategy = gf_series_stream(name, x)
    assert isinstance(strategy, AsymptoticTail)
    run = sum_to_precision(stream, strategy, 25)
    assert run.value.overlaps(gf_value(name, x, run.prec))
    assert run.value.rad_fraction() < Fraction(1, 10 ** 25)


def test_series_route_refuses_y_minus_one():
    # x = -1/4 is in the Catalan closed form's domain, but y = 4x = -1
    # is neither geometric nor Euler-Maclaurin
    gf_value("GF_CAT_HD", Fraction(-1, 4), PREC)
    with pytest.raises(DomainError):
        gf_series_stream("GF_CAT_HD", Fraction(-1, 4))


# ----------------------------------------------------------------------
# domains


def test_domain_boundaries():
    with pytest.raises(DomainError):
        gf_value("GF_M", Fraction(1, 4), PREC)  # right end open
    gf_value("GF_M", Fraction(-1, 4), PREC)     # left end closed
    with pytest.raises(DomainError):
        gf_value("GF_M", Fraction(1, 3), PREC)
    with pytest.raises(DomainError):
        gf_value("GF_SHIFTED", Fraction(1, 4), PREC, k=1)
    with pytest.raises(DomainError):
        gf_value("GF_HD_AS_PRINTED", Fraction(-1, 8), PREC)
    gf_value("GF_CAT_HD", Fraction(1, 4), PREC)  # closed for Catalan forms


def test_domain_table_shape():
    for name in GF_NAMES:
        lo, hi, lo_open, hi_open = gf_domain(name)
        assert lo < hi
        assert needs_k(name) == (name == "GF_SHIFTED")


def test_shifted_requires_k():
    with pytest.raises(ValueError):
        gf_term("GF_SHIFTED", 2, Fraction(1, 8))
    with pytest.raises((ValueError, TypeError)):
        gf_value("GF_SHIFTED", Fraction(1, 8), PREC)


# ----------------------------------------------------------------------
# family substitution points


@given(st.sampled_from(["FIB", "LUCAS"]), st.integers(min_value=1,
                                                      max_value=12))
def test_substitution_point_inverts_exactly(family, r):
    x = substitution_point(family, r)
    if family == "FIB":
        c = alpha_power(r) * SurdQ5.sqrt5() * Fraction(fib(r))
    else:
        c = alpha_power(r) * Fraction(lucas(r))
    assert (x * c * Fraction(4) - 1).is_zero()


def test_substitution_point_rejects_r0():
    with pytest.raises(ValueError):
        substitution_point("FIB", 0)
    with pytest.raises(ValueError):
        substitution_point("LUCAS", -2)
    with pytest.raises(ValueError):
        substitution_point("PELL", 3)


@settings(deadline=None)
@given(st.sampled_from(["FIB", "LUCAS"]), st.integers(min_value=1,
                                                      max_value=6),
       st.sampled_from(["H", "HD"]))
def test_family_stream_sums_match_master_form(family, r, kind):
    stream, strategy = family_stream(family, r, kind)
    run = sum_to_precision(stream, strategy, 25)
    # closed form evaluated through the generic machinery: for the
    # master series sum C(2n,n) H_n x^n the value is GF_M at the point,
    # which admits a rational-free check through a high-precision ball
    x = substitution_point(family, r)
    closed = gf_value("GF_M" if kind == "H" else "GF_HD", x, run.prec)
    assert run.value.overlaps(closed)
