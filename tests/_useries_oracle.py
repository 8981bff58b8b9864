"""A Fraction-coefficient u-series algebra, the oracle of ``_emtail``'s.

``_emtail.USeries`` keeps integer numerators over one denominator; this
module keeps one reduced ``Fraction`` per coefficient and evaluates
every rho in ``Fraction`` arithmetic, term by term, with its own upward
rounding.  Each builder here mirrors one of ``_emtail``'s and takes the
orders of the Stirling and harmonic series from ``_emtail._js`` and
``_emtail._kh``, so the two must agree exactly: every coefficient and
every rho.
"""

import math
from fractions import Fraction

from binomharm import _emtail
from binomharm._emtail import _bern as bern

U0 = Fraction(1, 33)
_ZERO = Fraction(0)


def fr_up(x: Fraction, bits: int = 120) -> Fraction:
    """Round a nonnegative rational up to a dyadic with a short mantissa."""
    if x == 0:
        return x
    return Fraction((x.numerator << bits) // x.denominator + 1, 1 << bits)


def abs_at_u0(v) -> Fraction:
    """sum_m |v[m]| U0^m, exact."""
    acc = _ZERO
    for x in reversed(v):
        acc = acc * U0 + abs(x)
    return acc


class FracSeries:
    """c[0..J] exact Fractions and rho, |f - poly| <= rho u^(J+1)."""

    def __init__(self, J, coeffs=(), rho=_ZERO):
        assert len(coeffs) <= J + 1
        self.c = (tuple(map(Fraction, coeffs))
                  + (_ZERO,) * (J + 1 - len(coeffs)))
        self.rho = Fraction(rho)

    @property
    def J(self):
        return len(self.c) - 1

    def bound(self):
        return fr_up(abs_at_u0(self.c) + self.rho * U0 ** (self.J + 1))

    def __add__(self, other):
        return FracSeries(self.J, [a + b for a, b in
                                   zip(self.c, other.c, strict=True)],
                          fr_up(self.rho + other.rho))

    def __sub__(self, other):
        return FracSeries(self.J, [a - b for a, b in
                                   zip(self.c, other.c, strict=True)],
                          fr_up(self.rho + other.rho))

    def scale(self, k):
        k = Fraction(k)
        return FracSeries(self.J, [k * a for a in self.c],
                          fr_up(abs(k) * self.rho))

    def __mul__(self, other):
        J = self.J
        conv = [_ZERO] * (2 * J + 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                conv[i + j] += a * b
        rho = (abs_at_u0(conv[J + 1:])
               + abs_at_u0(self.c) * other.rho
               + abs_at_u0(other.c) * self.rho
               + self.rho * other.rho * U0 ** (J + 1))
        return FracSeries(J, conv[:J + 1], fr_up(rho))


def rational_useries(P, Q, J):
    """P*(u)/Q*(u) by Fraction synthetic division."""
    P = [Fraction(x) for x in P]
    Q = [Fraction(x) for x in Q]
    c = [_ZERO] * (J + 1)
    for m in range(J + 1):
        acc = P[m] if m < len(P) else _ZERO
        for i in range(1, min(m, len(Q) - 1) + 1):
            acc -= Q[i] * c[m - i]
        c[m] = acc / Q[0]
    E = [_ZERO] * (J + len(Q))
    for m, v in enumerate(P):
        E[m] += v
    for i, qv in enumerate(Q):
        for m, cv in enumerate(c):
            E[i + m] -= qv * cv
    assert not any(E[:J + 1])
    qmin = _emtail._poly_abs_min(Q, _ZERO, U0)
    return FracSeries(J, c, fr_up(abs_at_u0(E[J + 1:]) / qmin))


def exp_useries(f):
    assert f.c[0] == 0
    J = f.J
    out = term = FracSeries(J, [1])
    for k in range(1, J + 1):
        term = term * f
        out = out + term.scale(Fraction(1, math.factorial(k)))
    qhat = abs_at_u0(f.c[1:])
    out = FracSeries(J, out.c, fr_up(
        out.rho + qhat ** (J + 1) * _emtail._exp_hi(qhat * U0)
        / math.factorial(J + 1)))
    d0 = f.rho * U0 ** (J + 1)
    return FracSeries(J, out.c, fr_up(
        out.rho + out.bound() * f.rho * _emtail._exp_hi(d0)))


def a_series(J):
    coeffs = [Fraction(-1, 2)]
    for m in range(1, J + 1):
        v = (Fraction(1, (m + 1) * 2 ** (m + 1)) - Fraction(1, m + 1)
             + Fraction(1, 2 * m))
        coeffs.append((-1) ** m * v)
    rho = (Fraction(1, (J + 2) * 2 ** (J + 2)) + Fraction(1, J + 2)
           + Fraction(1, 2 * (J + 1)))
    return FracSeries(J, coeffs, rho)


def s_series(a, J):
    a = Fraction(a)
    js = _emtail._js(J)
    c = [_ZERO] * (J + 1)
    rho = _ZERO
    for j in range(1, js + 1):
        coef = bern(2 * j) / (2 * j * (2 * j - 1))
        d = 2 * j - 1
        if d > J:
            rho += abs(coef) * U0 ** (d - J - 1)
            continue
        for i in range(J - d + 1):
            c[d + i] += coef * (-a) ** i * math.comb(d - 1 + i, i)
        rho += abs(coef) * math.comb(J, d - 1) * a ** (J - d + 1)
    rem = abs(bern(2 * js + 2)) / Fraction((2 * js + 2) * (2 * js + 1))
    return FracSeries(J, c, fr_up(rho + rem * U0 ** (2 * js + 1 - (J + 1))))


def h_series(s, J):
    kh = _emtail._kh(J)
    c = [_ZERO, Fraction(1, 2 * s)] + [_ZERO] * (J - 1)
    rho = _ZERO
    for k in range(1, kh + 1):
        v = -bern(2 * k) / Fraction(2 * k * s ** (2 * k))
        if 2 * k <= J:
            c[2 * k] += v
        else:
            rho = fr_up(rho + abs(v) * U0 ** (2 * k - (J + 1)))
    m = 2 * kh + 2
    rem = abs(bern(m)) / Fraction(m * s ** m)
    return FracSeries(J, c, fr_up(rho + rem * U0 ** (m - (J + 1))))


def g_series(J):
    return (a_series(J) + FracSeries(J, [Fraction(1, 2)])
            + s_series(Fraction(1, 2), J) - s_series(Fraction(1), J))


def exp_g(e, J):
    return exp_useries(g_series(J).scale(e))


def d_part(kind, J):
    k = _emtail.HARMONIC_KINDS[kind]
    d0 = (FracSeries(J, [k.kappa, k.c / 2]) + h_series(2, J).scale(k.b)
          + h_series(1, J).scale(k.a))
    return k.a + k.b, k.b, d0


def expansion(P, Q, e, kind, J):
    t = rational_useries(P[::-1], Q[::-1], J)
    if e:
        t = t * exp_g(e, J)
    alpha_l, b, d0 = d_part(kind, J)
    return alpha_l, b, t, t * d0
