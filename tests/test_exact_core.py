"""Exact integer, rational, and Q(sqrt5) arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm.ball_arith import Ball
from binomharm.exact_core import (BINET_IDENTITY_IDS, MAX_INDEX,
                                  SequenceCache, SurdQ5, alpha_power,
                                  beta_power, catalan_number,
                                  central_binomial, check_binet_identity,
                                  double_factorial, fib, harmonic, lucas)

# ----------------------------------------------------------------------
# scalar sequences


def test_harmonic_small_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        harmonic(-1)


@given(st.integers(min_value=1, max_value=800))
def test_harmonic_recurrence(n):
    assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


def test_central_binomial_values():
    assert [central_binomial(n) for n in range(5)] == [1, 2, 6, 20, 70]
    with pytest.raises(ValueError):
        central_binomial(-1)


@given(st.integers(min_value=1, max_value=300))
def test_central_binomial_recurrence(n):
    # C(2n, n) = C(2n-2, n-1) * 2 (2n-1) / n, the stream step ratio
    assert central_binomial(n) * n == central_binomial(n - 1) * 2 * (2 * n - 1)


def test_catalan_number_values():
    assert [catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


@given(st.integers(min_value=0, max_value=300))
def test_catalan_recurrence(n):
    assert (n + 2) * catalan_number(n + 1) == 2 * (2 * n + 1) * catalan_number(n)


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


@given(st.integers(min_value=1, max_value=60))
def test_double_factorial_splits_factorial(n):
    assert double_factorial(n) * double_factorial(n - 1) == math.factorial(n)


def test_sequence_cache_cap_does_not_grow():
    calls = []

    def step(n, prev):
        calls.append(n)
        return prev + n

    cache = SequenceCache(0, step, cap=10)
    assert cache[12] == sum(range(13))
    assert len(cache._values) <= 10
    assert cache[5] == 15
    with pytest.raises(IndexError):
        cache[-1]


# ----------------------------------------------------------------------
# Fibonacci / Lucas


def test_fib_lucas_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [lucas(n) for n in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47,
                                             76, 123]


@given(st.integers(min_value=-200, max_value=200))
def test_fib_recurrence_and_negation(n):
    assert fib(n + 2) == fib(n + 1) + fib(n)
    sign = 1 if (n + 1) % 2 == 0 else -1
    assert fib(-n) == sign * fib(n)


@given(st.integers(min_value=-200, max_value=200))
def test_lucas_recurrence_and_negation(n):
    assert lucas(n + 2) == lucas(n + 1) + lucas(n)
    sign = 1 if n % 2 == 0 else -1
    assert lucas(-n) == sign * lucas(n)
    assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_index_guard():
    with pytest.raises(ValueError):
        fib(MAX_INDEX + 1)
    with pytest.raises(ValueError):
        alpha_power(-MAX_INDEX - 1)


# ----------------------------------------------------------------------
# the quadratic field Q(sqrt5)

_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
_surds = st.builds(SurdQ5, _rationals, _rationals)


@given(_surds, _surds, _surds)
def test_surd_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x
    assert x * 1 == x
    assert x - x == SurdQ5.from_rational(0)


@given(_surds)
def test_surd_inverse_and_conjugate(x):
    if not x.is_zero():
        assert x * (1 / x) == SurdQ5.from_rational(1)
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm.is_rational()
    assert norm.to_fraction() == x.a * x.a - 5 * x.b * x.b


@given(_surds, _surds)
def test_surd_conjugate_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(_surds)
def test_surd_sign_matches_enclosure(x):
    if x.is_zero():
        assert x.sign() == 0
        return
    lo, hi = Ball.from_surd(x, 200).to_interval_fractions()
    assert lo > 0 if x.sign() > 0 else hi < 0
    assert abs(x).sign() == 1
    assert abs(x) in (x, -x)


def test_surd_sign_under_cancellation():
    # beta^n = (L_n - F_n sqrt5)/2 cancels to |beta|^n ~ 0.618^n
    for n in range(0, 151):
        assert beta_power(n).sign() == (-1) ** n
        assert alpha_power(n).sign() == 1
        assert abs(beta_power(n)) == alpha_power(-n)  # |beta| = 1/alpha


def test_surd_to_fraction_requires_rational():
    with pytest.raises(ValueError):
        SurdQ5.sqrt5().to_fraction()
    assert SurdQ5.from_rational(Fraction(7, 3)).to_fraction() == Fraction(7, 3)


# ----------------------------------------------------------------------
# golden-ratio powers and the Binet identities


def test_alpha_power_base_cases():
    assert alpha_power(0) == SurdQ5.from_rational(1)
    assert alpha_power(1) == SurdQ5(Fraction(1, 2), Fraction(1, 2))
    assert beta_power(1) == SurdQ5(Fraction(1, 2), Fraction(-1, 2))


@given(st.integers(min_value=-150, max_value=150),
       st.integers(min_value=-150, max_value=150))
def test_alpha_power_is_a_homomorphism(m, n):
    assert alpha_power(m) * alpha_power(n) == alpha_power(m + n)


@given(st.integers(min_value=-150, max_value=150))
def test_alpha_beta_relations(n):
    # alpha * beta = -1 and alpha + beta = 1, so powers satisfy Binet
    sign = 1 if n % 2 == 0 else -1
    assert alpha_power(n) * beta_power(n) == SurdQ5.from_rational(sign)
    diff = alpha_power(n) - beta_power(n)
    assert diff == SurdQ5(Fraction(0), Fraction(fib(n)))
    total = alpha_power(n) + beta_power(n)
    assert total == SurdQ5.from_rational(lucas(n))


@settings(max_examples=200)
@given(st.sampled_from(BINET_IDENTITY_IDS),
       st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_binet_identities_hold_exactly(identity_id, m, n):
    assert check_binet_identity(identity_id, m, n)


def test_binet_unknown_id():
    with pytest.raises(ValueError):
        check_binet_identity("no_such_identity", 1, 1)
