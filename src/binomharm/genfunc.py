"""Generating functions: closed forms, series streams, and exact terms.

Catalog (s := sqrt(1 - 4x), C_n the n-th Catalan number, sums from n=1
except GF_SHIFTED which starts at m=0):

    GF_M             sum C(2n,n) H_n x^n            = (2/s) ln((1+s)/(2s))
    GF_HD            sum C(2n,n) (H_2n - H_n) x^n   = -(1/s) ln((1+s)/2)
    GF_HD_AS_PRINTED the same series against -(1/s) ln((1-s)/2), kept as
                     a regression fixture for the sign slip inside the log
    GF_HD_HALF       sum C(2n,n) (H_2n - H_n/2) x^n = -(1/s) ln s
    GF_H2N           sum C(2n,n) H_2n x^n           = (1/s)[ln((1+s)/2) - 2 ln s]
    GF_CAT_HD        sum C_n (H_2n - H_n) x^n
                       = (1/2x)[(1-s) + (1+s) ln((1+s)/2)]
    GF_CAT_HALF      sum C_n (H_2n - H_n/2) x^n     = (1/2x)[1 - s + s ln s]
    GF_CAT_H2N       sum C_n H_2n x^n
                       = (1/2x)[(1-s) - (1+s) ln(1+s) + ln 2 + s ln(2-8x)]
    GF_EQ28          sum n x^2n C(2n,n) / (4^n (2n-1)^2 (2n+1))
                       = (1/8)[sqrt(1-x^2) + 2x asin x - asin(x)/x]
    GF_EQ29          sum n x^(2n+3) C(2n,n) / (4^n (2n-1)^2 (2n+1)(2n+3))
                       = [(8x^4-8x^2+3) asin x + sqrt(1-x^2)(6x^3-3x)]/128
    GF_EQ30          sum 2 n^2 x^(2n-1) C(2n,n) / (4^n (2n-1)^2 (2n+1))
                       = (1/8x^2)[(2x^2+1) asin x - x sqrt(1-x^2)]
    GF_SHIFTED       sum_{m>=0} C(2m+k, m) x^m      = (1/s)((1-s)/(2x))^k

Each name is evaluated two independent ways: the closed form in ball
arithmetic (:func:`gf_value`) and the defining series, every one but
GF_SHIFTED a term recipe at y = 4x, or y = x^2 for (28)-(30), whose
tail is geometric for |y| < 1 and Euler-Maclaurin at y = 1
(:func:`gf_series_stream`).  The two routes share no code path beyond
ball primitives, so their overlap is a genuine crosscheck.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .ball_arith import Ball, ConstantName, DomainError, constant
from .exact_core import SurdQ5, alpha_power, catalan_number, fib, lucas
from .intpoly import pmul
from .series_engine import (GeometricTail, HarmonicStream, SignPattern,
                            TermRecipe, d_value, series_from)

__all__ = [
    "GF_NAMES",
    "gf_value",
    "gf_recipe",
    "gf_series_stream",
    "gf_term",
    "gf_domain",
    "needs_k",
    "substitution_point",
]

GF_NAMES = (
    "GF_M",
    "GF_HD",
    "GF_HD_AS_PRINTED",
    "GF_HD_HALF",
    "GF_H2N",
    "GF_CAT_HD",
    "GF_CAT_HALF",
    "GF_CAT_H2N",
    "GF_EQ28",
    "GF_EQ29",
    "GF_EQ30",
    "GF_SHIFTED",
)

_CB_KIND = {"GF_M": "H", "GF_HD": "HD", "GF_HD_AS_PRINTED": "HD",
            "GF_HD_HALF": "HD_HALF", "GF_H2N": "H2N"}
_CAT_KIND = {"GF_CAT_HD": "HD", "GF_CAT_HALF": "HD_HALF",
             "GF_CAT_H2N": "H2N"}

# (lo, hi, lo_open, hi_open) for rational arguments
_DOMAIN = {
    "GF_M": (Fraction(-1, 4), Fraction(1, 4), False, True),
    "GF_HD": (Fraction(-1, 4), Fraction(1, 4), False, True),
    "GF_HD_AS_PRINTED": (Fraction(0), Fraction(1, 4), True, True),
    "GF_HD_HALF": (Fraction(-1, 4), Fraction(1, 4), False, True),
    "GF_H2N": (Fraction(-1, 4), Fraction(1, 4), False, True),
    "GF_CAT_HD": (Fraction(-1, 4), Fraction(1, 4), False, False),
    "GF_CAT_HALF": (Fraction(-1, 4), Fraction(1, 4), False, False),
    "GF_CAT_H2N": (Fraction(-1, 4), Fraction(1, 4), False, False),
    "GF_EQ28": (Fraction(-1), Fraction(1), False, False),
    "GF_EQ29": (Fraction(-1), Fraction(1), False, False),
    "GF_EQ30": (Fraction(-1), Fraction(1), False, False),
    "GF_SHIFTED": (Fraction(-1, 4), Fraction(1, 4), True, True),
}


def gf_domain(name: str):
    """(lo, hi, lo_open, hi_open) for rational x."""
    if name not in _DOMAIN:
        raise KeyError(f"unknown generating function {name!r}")
    return _DOMAIN[name]


def needs_k(name: str) -> bool:
    return name == "GF_SHIFTED"


def _check_rational_domain(name: str, x: Fraction, k: Optional[int]):
    lo, hi, lo_open, hi_open = gf_domain(name)
    if x < lo or (lo_open and x == lo) or x > hi or (hi_open and x == hi):
        raise DomainError(f"{name} is not defined at x={x}")
    if needs_k(name):
        if k is None or k < 0:
            raise DomainError(f"{name} needs a shift k >= 0")
    elif k is not None:
        raise DomainError(f"{name} takes no shift parameter")


def _as_ball(x, prec: int) -> Ball:
    if isinstance(x, Ball):
        return x
    if isinstance(x, SurdQ5):
        return Ball.from_surd(x, prec)
    return Ball.from_fraction(Fraction(x), prec)


# --------------------------------------------------------------------
# exact terms (used by fallbacks, streams crosschecks, and tests)
# --------------------------------------------------------------------

def gf_term(name: str, n: int, x, k: Optional[int] = None):
    """Exact n-th series term (m-th for GF_SHIFTED); Fraction or SurdQ5."""
    if name == "GF_SHIFTED":
        if k is None:
            raise ValueError("GF_SHIFTED needs k")
        return math.comb(2 * n + k, n) * Fraction(x) ** n
    if name in _CB_KIND:
        d = d_value(_CB_KIND[name], n)
        return math.comb(2 * n, n) * _xpow(x, n) * d
    if name in _CAT_KIND:
        d = d_value(_CAT_KIND[name], n)
        return catalan_number(n) * _xpow(x, n) * d
    x = Fraction(x)
    if name == "GF_EQ28":
        return (Fraction(n * math.comb(2 * n, n),
                         4 ** n * (2 * n - 1) ** 2 * (2 * n + 1)) * x ** (2 * n))
    if name == "GF_EQ29":
        return (Fraction(n * math.comb(2 * n, n),
                         4 ** n * (2 * n - 1) ** 2 * (2 * n + 1) * (2 * n + 3))
                * x ** (2 * n + 3))
    if name == "GF_EQ30":
        return (Fraction(2 * n ** 2 * math.comb(2 * n, n),
                         4 ** n * (2 * n - 1) ** 2 * (2 * n + 1))
                * x ** (2 * n - 1))
    raise KeyError(f"unknown generating function {name!r}")


def _xpow(x, n: int):
    if isinstance(x, SurdQ5):
        out = SurdQ5(Fraction(1), Fraction(0))
        for _ in range(n):
            out = out * x
        return out
    return Fraction(x) ** n


# --------------------------------------------------------------------
# closed forms in ball arithmetic
# --------------------------------------------------------------------

def gf_value(name: str, x, prec: int, k: Optional[int] = None) -> Ball:
    """Closed-form value as a ball.  x: Fraction, SurdQ5, or Ball."""
    if name not in _DOMAIN:
        raise KeyError(f"unknown generating function {name!r}")
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        _check_rational_domain(name, x, k)
        if x == 0:
            exact = Fraction(1) if name == "GF_SHIFTED" else Fraction(0)
            return Ball.from_fraction(exact, prec)
        if abs(x) <= Fraction(1, 2 ** max(24, prec // 4)):
            return _taylor_fallback(name, x, prec, k)
    wp = prec + 20
    x_rat = x if isinstance(x, Fraction) else None
    xb = _as_ball(x, wp)
    one = Ball.from_int(1, wp)

    if name in ("GF_EQ28", "GF_EQ29", "GF_EQ30"):
        asx = xb.asin()
        if x_rat is not None:
            # exact at the endpoints x = +-1, where 1 - x^2 vanishes
            root = Ball.from_fraction(1 - x_rat * x_rat, wp).sqrt()
        else:
            root = (one - xb * xb).sqrt()
        if name == "GF_EQ28":
            out = (root + xb.mul_2exp(1) * asx - asx / xb).mul_2exp(-3)
        elif name == "GF_EQ29":
            x2 = xb * xb
            p1 = (x2 * x2 - x2).mul_2exp(3) + Ball.from_int(3, wp)
            p2 = x2 * xb * 6 - xb * 3
            out = (p1 * asx + root * p2) * Ball.from_fraction(Fraction(1, 128), wp)
        else:
            x2 = xb * xb
            out = ((x2.mul_2exp(1) + one) * asx - xb * root) / x2.mul_2exp(3)
        return Ball(out.mid, out.rad, prec)

    if x_rat is not None:
        # exact at x = 1/4, where 1 - 4x vanishes
        s = Ball.from_fraction(1 - 4 * x_rat, wp).sqrt()
    else:
        s = (one - xb.mul_2exp(2)).sqrt()
    at_quarter = x_rat == Fraction(1, 4)
    if name == "GF_M":
        out = (Ball.from_int(2, wp) / s) * ((one + s) / s.mul_2exp(1)).ln()
    elif name == "GF_HD":
        out = -((one + s).mul_2exp(-1)).ln() / s
    elif name == "GF_HD_AS_PRINTED":
        out = -((one - s).mul_2exp(-1)).ln() / s
    elif name == "GF_HD_HALF":
        out = -s.ln() / s
    elif name == "GF_H2N":
        out = (((one + s).mul_2exp(-1)).ln() - s.ln().mul_2exp(1)) / s
    elif name == "GF_CAT_HD":
        out = ((one - s) + (one + s) * ((one + s).mul_2exp(-1)).ln()) \
            / xb.mul_2exp(1)
    elif name == "GF_CAT_HALF":
        # s ln s has a removable zero at s = 0 (x = 1/4)
        slns = Ball.from_int(0, wp) if at_quarter else s * s.ln()
        out = (one - s + slns) / xb.mul_2exp(1)
    elif name == "GF_CAT_H2N":
        ln2 = constant(ConstantName.LN2, wp)
        # s ln(2 - 8x) has a removable zero at x = 1/4
        slnt = (Ball.from_int(0, wp) if at_quarter
                else s * (Ball.from_int(2, wp) - xb.mul_2exp(3)).ln())
        out = ((one - s) - (one + s) * (one + s).ln() + ln2 + slnt) \
            / xb.mul_2exp(1)
    elif name == "GF_SHIFTED":
        out = ((one - s) / xb.mul_2exp(1)).pow_int(k) / s
    else:
        raise KeyError(name)
    return Ball(out.mid, out.rad, prec)


def _taylor_fallback(name: str, x: Fraction, prec: int,
                     k: Optional[int]) -> Ball:
    """Exact leading terms plus a crude geometric remainder for tiny |x|.

    The closed forms all have removable singularities at x = 0; direct
    ball evaluation stays correct there but loses most digits to
    cancellation, so tiny arguments take this path instead.
    """
    start = 0 if name == "GF_SHIFTED" else 1
    exact = Fraction(0)
    for n in range(start, start + 3):
        exact += gf_term(name, n, x, k)
    q = 4 * abs(x)
    n4 = start + 3
    if name in ("GF_EQ28", "GF_EQ29", "GF_EQ30"):
        # |t_n| <= |x|^(2n-1) for |x| <= 1
        rem = abs(x) ** (2 * n4 - 1) / (1 - x * x)
    elif name == "GF_SHIFTED":
        # |t_m| <= 2^k (4|x|)^m
        rem = 2 ** k * q ** n4 / (1 - q)
    else:
        # |coef_n| <= 2n 4^n covers binomial, Catalan, and harmonic factors
        rem = 2 * q ** n4 * (n4 / (1 - q) + q / (1 - q) ** 2)
    out = Ball.from_fraction(exact, prec)
    return out.widened(Ball.from_fraction(Fraction(rem), prec).abs_hi())


# --------------------------------------------------------------------
# series streams, each from its term recipe
# --------------------------------------------------------------------

# (2n-1)^2 (2n+1), the denominator of (28)-(30)
_Q_ASIN = pmul((-1, 2), (-1, 2), (1, 2))


def _at_4x(x):
    return 4 * x, 1


# name: (P, Q, kind, x -> (y, scale)), the series being
# sum_{n>=1} scale y^n (P/Q)(n) (C(2n,n)/4^n) D_kind(n), the Catalan
# numbers C(2n,n)/(n+1)
_RECIPES = {
    "GF_M": ((1,), (1,), "H", _at_4x),
    "GF_HD": ((1,), (1,), "HD", _at_4x),
    "GF_HD_AS_PRINTED": ((1,), (1,), "HD", _at_4x),
    "GF_HD_HALF": ((1,), (1,), "HD_HALF", _at_4x),
    "GF_H2N": ((1,), (1,), "H2N", _at_4x),
    "GF_CAT_HD": ((1,), (1, 1), "HD", _at_4x),
    "GF_CAT_HALF": ((1,), (1, 1), "HD_HALF", _at_4x),
    "GF_CAT_H2N": ((1,), (1, 1), "H2N", _at_4x),
    "GF_EQ28": ((0, 1), _Q_ASIN, "1", lambda x: (x * x, 1)),
    "GF_EQ29": ((0, 1), pmul(_Q_ASIN, (3, 2)), "1",
                lambda x: (x * x, x ** 3)),
    "GF_EQ30": ((0, 0, 2), _Q_ASIN, "1", lambda x: (x * x, 1 / x)),
}


def gf_recipe(name: str, x: Fraction) -> TermRecipe:
    """The term recipe of the series of ``name`` (any but GF_SHIFTED)
    at x."""
    P, Q, kind, at = _RECIPES[name]
    y, scale = at(x)
    return TermRecipe(name, P, Q, 1, kind, Fraction(scale), y)


def gf_series_stream(name: str, x: Fraction, k: Optional[int] = None):
    """(stream, tail strategy) for the series route at rational x != 0."""
    x = Fraction(x)
    _check_rational_domain(name, x, k)
    if x == 0:
        raise DomainError("series route needs x != 0")
    if name != "GF_SHIFTED":
        return series_from(gf_recipe(name, x))
    # C(2m+k+2, m+1) / C(2m+k, m) = (2m+k+1)(2m+k+2) / ((m+1)(m+k+1)),
    # of degree 2 where the recipe's P/Q would have degree k
    stream = HarmonicStream(
        seed=Fraction(1), point=x, first_index=0,
        sign=SignPattern.POSITIVE if x > 0 else SignPattern.ALTERNATING,
        A=((k + 1) * (k + 2), 4 * k + 6, 4), B=(k + 1, k + 2, 1))
    return stream, GeometricTail()


# --------------------------------------------------------------------
# Fibonacci/Lucas substitution points
# --------------------------------------------------------------------

def substitution_point(family: str, r: int) -> SurdQ5:
    """x = 1/(4c) with c = alpha^r F_r sqrt5 (FIB) or alpha^r L_r (LUCAS)."""
    if r < 1:
        raise ValueError("family parameter r must be >= 1")
    ar = alpha_power(r)
    if family == "FIB":
        c = ar * SurdQ5(Fraction(0), Fraction(1)) * Fraction(fib(r))
    elif family == "LUCAS":
        c = ar * Fraction(lucas(r))
    else:
        raise ValueError(f"unknown family {family!r}")
    one = SurdQ5(Fraction(1), Fraction(0))
    return one / (c * Fraction(4))


def family_stream(family: str, r: int, kind: str):
    """(stream, strategy) for sum C(2n,n) D_kind(n) x^n at the family's
    surd point x."""
    y = 4 * substitution_point(family, r)
    return series_from(TermRecipe(f"{family}_{kind}", (1,), (1,), 1, kind,
                                  y=y))
