"""Term recipes, the harmonic kinds, and validated Euler-Maclaurin tails.

Every catalog series is one :class:`TermRecipe`, with D one of the
:data:`HARMONIC_KINDS`, D_n = kappa + a H_n + b H_2n + c/(2n):

    t_n = scale * y^n * (P/Q)(n) * b(n)^e * D(n),    b(n) = C(2n,n)/4^n.

At y = 1 the terms decay like n^(-3/2) or n^(-2): summing them to 15
digits directly is hopeless, so the tail past N is evaluated
analytically instead.

Pipeline, all error-tracked:

1. Expand ln(b(n) sqrt(pi n)) as a power series g(u) in u = 1/n with a
   tail coefficient rho certifying |remainder| <= rho u^(J+1) on
   0 < u <= 1/33 (Stirling series for ln Gamma with enveloped
   remainders), then exponentiate the series with a rigorous exp
   remainder.  Each Stirling term c (n+a)^-d, d = 2j-1, expands as
   c (-a)^i C(d-1+i, i) u^(d+i); rho takes the Lagrange remainder
   c C(J, d-1) a^(J-d+1) of (1 + au)^-d, au >= 0, and c U0^(d-J-1) for a
   term of degree d > J.  It runs to js(J) = max(8, J//2 + 1) terms.
2. Expand the harmonic factor via H_m = ln m + gamma + h_m with the
   enveloped asymptotic series for h_m, to kh(J) = max(7, J//2 + 1)
   terms: D(n) = alpha_L ln n + D0(u) + b ln 2 + alpha_L gamma, D0 =
   kappa + b h_2n + a h_n + (c/2) u, so each term becomes

       t_n = sum_j (W0_j + W1_j ln n) n^(-sigma0-j)  +  graded remainder,

   W0 = pi^(-e/2) (R + (b ln 2 + alpha_L gamma) T), W1 = pi^(-e/2)
   alpha_L T, with T = (P*/Q*)(u) exp(e g(u)) and R = T D0.
3. Sum over n > N exactly in terms of the Hurwitz-type sums
   Z(s,a) = sum n^-s and ZL(s,a) = sum n^-s ln n, both evaluated by
   Euler-Maclaurin with first-omitted-term (Z) and derivative-sign (ZL)
   remainder bounds.  For integer a and s with denominator 1 or 2,
   a^-s = a^-t (sqrt a) with t an integer, so every Euler-Maclaurin term
   and each remainder is that factor times an exact rational (for ZL,
   R1 ln a + R0); each bracket is summed in integers over one
   denominator, rounded once and multiplied by at most one sqrt a ball.

Every series up to T and R is an exact :class:`USeries`: integer
numerators up to degree J over one positive denominator, plus a rational
rho with |f(u) - poly(u)| <= rho u^(J+1) on the validity window.  Sums,
scalings and products work on the integers; a product folds its
coefficients past degree J into rho as sum_{m>J} |c_m| U0^(m-J-1), one
integer Horner pass in base 33.  Only :func:`build_poly` rounds: each
T_j and R_j once at the working precision, from its numerator and the
denominator, and it applies the three irrational factors, ln 2, gamma
and pi^(-e/2), as balls there.  Valid for N >= 32 (so a = N+1 >= 33).

The degree of a tail is a parameter, 1 <= J <= J_MAX = 12, and the
remainder of a
degree-J tail falls like N^-(sigma0+J).  :func:`plan` solves the cut N
and the degree J from a tolerance, the way Johansson (Numer. Algorithms,
2015) chooses N and M for the Hurwitz zeta function: the cheapest pair
whose modelled radius meets it, with J >= 4 and N <= 2048, else (2048,
12).  At 15 digits that is J = 4 at N = 468, where every tail used to
run J = 12 at N = 2048; the composite tail of Theorem 2.4 cuts at the
same N and makes up its weight with J = 5.

Shared work.  Every entry expands the same b(n) and the same harmonic
asymptotics, and the single-recipe tails of one tolerance sit at the
same a = N+1, so the pure pieces are memoized with
``functools.lru_cache``, each keyed by its exact arguments and filled on
first use (nothing is computed at import).  The exact series depend on
the degree J only, so every precision a run climbs to rounds the same
build:

    _bern(m), _bern_fact(K)     B_m, and B_2k/(2k)! for k <= K over one
                                denominator, exact, unbounded
    _h_series(s, J)             h_{sn} series, D-factor building block
    _g_series(J)                ln(b(n) sqrt(pi n))
    _exp_g(e, J)                exp(e g) = (b(n) sqrt(pi n))^e
    _d_part(kind, J)            the harmonic factor's (alpha_L, b, D0)
    _expansion(P, Q, e, kind, J)  (alpha_L, b, T, R) of a recipe
    build_poly(recipe, prec, J) W0 and W1, rounded at ``prec``
    z_em, zl_em(s, a, prec)     the Hurwitz-type sums, bounded (keyed by a)
    _ln(a, prec), _sqrt(a, prec) ln a and sqrt a, bounded
    plan(tol, weight)           the planned (N, J) of a tolerance, bounded

A cached value is handed to every later caller, so it must never be
mutated: ``USeries`` operators and :class:`Ball` operations always build
new objects, and a series' coefficients are a tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import bernfrac
from mpmath.libmp import from_rational, round_ceiling, to_rational

from .ball_arith import (
    Ball,
    ConstantName,
    constant,
    _euler_gamma_ball,
)
from .exact_core import SurdQ5
from .intpoly import padd, peval, pscale, reduce_ratio

# the largest tail degree in u = 1/n, the one the tails are tested at;
# the expansion certifies its rho at any degree, but whether U0 and the
# cut N >= 32 still suit tails past degree 12 is unchecked
J_MAX = 12
_U0_INV = 33
U0 = Fraction(1, _U0_INV)    # validity window 0 < u <= U0
_MIN_A = 33                  # tails valid for a = N+1 >= 33
_ZERO = Fraction(0)

__all__ = ["TermRecipe", "HarmonicKind", "HARMONIC_KINDS", "tail_enclosure",
           "build_poly", "z_em", "zl_em", "plan", "J_MAX", "U0"]

_PREC_CACHE = 256            # entries per cache keyed by J, prec or tol
_Z_CACHE = 2048              # (s, a, prec) entries per Hurwitz-sum cache

# every cache below hands out shared objects: callers must not mutate them


@functools.lru_cache(maxsize=None)
def _bern(m: int) -> Fraction:
    p, q = bernfrac(m)
    return Fraction(int(p), int(q))


def _fr_abs_hi(b: Ball) -> Fraction:
    """Exact rational upper bound for |values in b| (mpf hulls are dyadic)."""
    p, q = to_rational(b.abs_hi())
    return Fraction(int(p), int(q))


_UP_BITS = 120


def _up(p: int, q: int) -> Fraction:
    """Round p/q >= 0, q > 0, up to a dyadic with a short mantissa; the
    result depends on the value p/q only."""
    if not p:
        return _ZERO
    return Fraction((p << _UP_BITS) // q + 1, 1 << _UP_BITS)


def _fr_up(x: Fraction) -> Fraction:
    """Round a nonnegative rational up to a dyadic with a short mantissa."""
    return _up(x.numerator, x.denominator)


def _fold(v) -> int:
    """sum_m |v[m]| 33^(k-m), k = len(v) - 1: one integer Horner pass,
    so that sum_m |v[m]| U0^m = _fold(v) / 33^k."""
    acc = 0
    for x in v:
        acc = acc * _U0_INV + abs(x)
    return acc


def _abs_at_u0(num, den: int) -> Fraction:
    """sum_m |num[m]| U0^m / den, exact."""
    return Fraction(_fold(num), den * _U0_INV ** max(len(num) - 1, 0))


def _js(J: int) -> int:
    """The Stirling terms of :func:`_s_series` at degree J."""
    return max(8, J // 2 + 1)


def _kh(J: int) -> int:
    """The asymptotic terms of :func:`_h_series` at degree J."""
    return max(7, J // 2 + 1)


@dataclass(frozen=True)
class HarmonicKind:
    """D_n = kappa + a H_n + b H_2n + c/(2n) for n >= 1; the summation
    kernel reads D_1 and the increment, :func:`_d_part` the four."""

    kappa: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    @functools.cached_property
    def first(self) -> Fraction:
        """D_1 = kappa + a + 3b/2 + c/2."""
        return self.kappa + self.a + Fraction(3, 2) * self.b + self.c / 2

    @functools.cached_property
    def increment(self) -> tuple[tuple, tuple]:
        """(num, den) in lowest terms, D_{n+1} - D_n = num(n)/den(n):
        a/(n+1) + b (4n+3)/((2n+1)(2n+2)) - (c/2)/(n(n+1)), over
        2n(n+1)(2n+1)."""
        num = padd(padd(pscale(2 * self.a, (0, 1, 2)),
                        pscale(self.b, (0, 3, 4))), pscale(-self.c, (1, 2)))
        den = math.lcm(*(v.denominator for v in num))
        return reduce_ratio(tuple(int(v * den) for v in num),
                            pscale(den, (0, 2, 6, 4)))

    def delta(self, n: int) -> Fraction:
        num, den = self.increment
        return Fraction(peval(num, n), peval(den, n))


HARMONIC_KINDS = {kind: HarmonicKind(*map(Fraction, kabc)) for kind, kabc in {
    "1": (1, 0, 0, 0),                      # the trivial factor D = 1
    "H": (0, 1, 0, 0),                      # H_n
    "HD": (0, -1, 1, 0),                    # H_2n - H_n
    "HDM": (0, -1, 1, -1),                  # H_{2n-1} - H_n
    "H2N": (0, 0, 1, 0),                    # H_2n
    "HD_HALF": (0, Fraction(-1, 2), 1, 0),  # H_2n - H_n/2
}.items()}


# --------------------------------------------------------------------
# u-series with graded remainders
# --------------------------------------------------------------------

class USeries:
    """f(u) = sum_{m<=J} c[m] u^m + r(u), |r(u)| <= rho u^(J+1) on (0, U0],
    with c[m] = num[m]/den exact: integer numerators over one positive
    denominator, in lowest terms, and rho an exact rational.

    The degree J is len(num) - 1; the operators combine series of one
    degree only.
    """

    __slots__ = ("num", "den", "rho")

    def __init__(self, J: int, coeffs=(), rho: Fraction = _ZERO):
        """The series of the rational coefficients ``coeffs``, padded
        with zeros to degree J."""
        if len(coeffs) > J + 1:
            # a dropped coefficient would leave no trace in rho
            raise ValueError(f"{len(coeffs)} coefficients at degree {J}")
        coeffs = [Fraction(x) for x in coeffs]
        den = math.lcm(*(x.denominator for x in coeffs))
        self.num = (tuple(x.numerator * (den // x.denominator)
                          for x in coeffs)
                    + (0,) * (J + 1 - len(coeffs)))
        self.den = den
        self.rho = Fraction(rho)

    @classmethod
    def _of(cls, num, den: int, rho: Fraction) -> "USeries":
        """num/den + rho, den > 0, reduced to lowest terms."""
        g = math.gcd(den, *num)
        if g > 1:
            num = [x // g for x in num]
            den //= g
        out = object.__new__(cls)
        out.num, out.den, out.rho = tuple(num), den, rho
        return out

    @property
    def J(self) -> int:
        return len(self.num) - 1

    @property
    def c(self) -> tuple:
        """The coefficients as Fractions, a read-only view."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def bound(self) -> Fraction:
        """An upper bound of |f| on (0, U0]: sum_m |c_m| U0^m + rho
        U0^(J+1), over den 33^(J+1) q for rho = p/q."""
        p, q = self.rho.numerator, self.rho.denominator
        return _up(_fold(self.num) * _U0_INV * q + p * self.den,
                   self.den * _U0_INV ** (self.J + 1) * q)

    def _add(self, other: "USeries", sign: int) -> "USeries":
        if other.J != self.J:
            raise ValueError(f"degrees {self.J} and {other.J} differ")
        g = math.gcd(self.den, other.den)
        m1, m2 = other.den // g, sign * (self.den // g)
        return USeries._of([a * m1 + b * m2
                            for a, b in zip(self.num, other.num)],
                           self.den * m1, _fr_up(self.rho + other.rho))

    def __add__(self, other: "USeries") -> "USeries":
        return self._add(other, 1)

    def __sub__(self, other: "USeries") -> "USeries":
        return self._add(other, -1)

    def scale(self, k: Fraction) -> "USeries":
        k = Fraction(k)
        return USeries._of([k.numerator * a for a in self.num],
                           k.denominator * self.den,
                           _fr_up(abs(k) * self.rho))

    def __mul__(self, other: "USeries") -> "USeries":
        J = self.J
        if other.J != J:
            raise ValueError(f"degrees {J} and {other.J} differ")
        a, b = self.num, other.num
        conv = [0] * (2 * J + 1)
        for i, x in enumerate(a):
            if x:
                for j2, y in enumerate(b):
                    if y:
                        conv[i + j2] += x * y
        # the degrees past J fold into rho exactly: on (0, U0],
        # |sum_{m>J} c_m u^m| <= u^(J+1) sum_{m>J} |c_m| U0^(m-J-1);
        # rho = high + |a| rho_b + |b| rho_a + rho_a rho_b U0^(J+1), each
        # term over d_a d_b 33^(J+1) q_a q_b
        d1, d2 = self.den, other.den
        p1, q1 = self.rho.numerator, self.rho.denominator
        p2, q2 = other.rho.numerator, other.rho.denominator
        u2 = _U0_INV * _U0_INV
        rho = (_fold(conv[J + 1:]) * u2 * q1 * q2
               + _fold(a) * _U0_INV * p2 * d2 * q1
               + _fold(b) * _U0_INV * p1 * d1 * q2 + p1 * p2 * d1 * d2)
        return USeries._of(conv[:J + 1], d1 * d2,
                           _up(rho, d1 * d2 * _U0_INV ** (J + 1) * q1 * q2))


# --------------------------------------------------------------------
# exact rational division P*(u)/Q*(u) with certified remainder
# --------------------------------------------------------------------

def _interval_horner(Q, lo: Fraction, hi: Fraction):
    """Exact interval evaluation of a polynomial on [lo, hi]."""
    a, b = Fraction(Q[-1]), Fraction(Q[-1])
    for q in reversed(Q[:-1]):
        cands = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(cands) + q, max(cands) + q
    return a, b


def _poly_abs_min(Q, lo: Fraction, hi: Fraction, depth: int = 0) -> Fraction:
    """Rigorous lower bound for min |Q(u)| on [lo, hi]."""
    a, b = _interval_horner(Q, lo, hi)
    if a > 0:
        return a
    if b < 0:
        return -b
    if depth >= 24:
        raise ArithmeticError("denominator may vanish on the validity window")
    mid = (lo + hi) / 2
    return min(_poly_abs_min(Q, lo, mid, depth + 1),
               _poly_abs_min(Q, mid, hi, depth + 1))


def rational_useries(P, Q, J: int) -> USeries:
    """P*(u)/Q*(u) by integer synthetic division, Q*(0) != 0.

    With P and Q cleared to integers and q0 = Q*(0) > 0, c_m has a
    denominator dividing q0^(m+1), so x_m = c_m q0^(J+1) is an integer:
    q0 x_m = P_m q0^(J+1) - sum_{i>=1} Q_i x_(m-i).  The residual E =
    P - Q c, past degree J, over min |Q*| bounds the remainder."""
    fr = [Fraction(x) for x in (*P, *Q)]
    L = math.lcm(*(x.denominator for x in fr))
    if fr[len(P)] < 0:
        L = -L
    p = [int(x * L) for x in fr[:len(P)]]
    q = [int(x * L) for x in fr[len(P):]]
    den = q[0] ** (J + 1)

    x = []

    def residual(m):
        """(P - Q c)_m q0^(J+1) without its i = 0 term, from x_(<m)."""
        acc = p[m] * den if m < len(p) else 0
        for i in range(max(1, m - J), min(m, len(q) - 1) + 1):
            acc -= q[i] * x[m - i]
        return acc

    for m in range(J + 1):
        x.append(residual(m) // q[0])
    high = [residual(m) for m in range(J + 1, max(J + len(q), len(p)))]
    qmin = _poly_abs_min(q, _ZERO, U0)
    rho = _up(_fold(high) * qmin.denominator,
              den * _U0_INV ** max(len(high) - 1, 0) * qmin.numerator)
    return USeries._of(x, den, rho)


# --------------------------------------------------------------------
# exp of a u-series that vanishes at u = 0
# --------------------------------------------------------------------

def _exp_hi(x: Fraction) -> Fraction:
    """Exact-rational upper bound for e^x, x >= 0 (coarse is fine)."""
    b = Ball.from_fraction(x, 80).exp()
    return _fr_abs_hi(b)


def exp_useries(f: USeries) -> USeries:
    """exp(f) for a series with f(0) = 0."""
    if f.num[0]:
        raise ValueError("exp_useries needs a series that vanishes at 0")
    J = f.J
    out = term = USeries(J, [1])
    for k in range(1, J + 1):
        term = term * f
        out = out + term.scale(Fraction(1, math.factorial(k)))
    # truncated powers P^(J+1)/((J+1)!) + ... <= qhat^(J+1) e^(qhat U0)/(J+1)!
    qhat = _abs_at_u0(f.num[1:], f.den)
    out = USeries._of(out.num, out.den,
                      _fr_up(out.rho + qhat ** (J + 1) * _exp_hi(qhat * U0)
                             / math.factorial(J + 1)))
    # exp(poly + r) = exp(poly) exp(r): |exp(r) - 1| <= |r| e^|r|
    d0 = f.rho * U0 ** (J + 1)
    return USeries._of(out.num, out.den,
                       _fr_up(out.rho + out.bound() * f.rho * _exp_hi(d0)))


# --------------------------------------------------------------------
# Stirling / harmonic building blocks
# --------------------------------------------------------------------

def _a_series(J: int) -> USeries:
    """(n + 1/2) ln(1 + u/2) - 1 - n ln(1 + u) + u-free normalization.

    Exact alternating coefficients; remainder bounded by the three
    first-omitted magnitudes (each factor series is alternating with
    decreasing terms on (0, U0]).
    """
    coeffs = [Fraction(-1, 2)]
    for m in range(1, J + 1):
        v = (Fraction(1, (m + 1) * 2 ** (m + 1)) - Fraction(1, m + 1)
             + Fraction(1, 2 * m))
        coeffs.append((-1) ** m * v)
    rho = (Fraction(1, (J + 2) * 2 ** (J + 2)) + Fraction(1, J + 2)
           + Fraction(1, 2 * (J + 1)))
    return USeries(J, coeffs, rho)


def _s_series(a: Fraction, J: int) -> USeries:
    """The Stirling correction S(n+a) = sum_{j<=js} B_2j/(2j(2j-1)
    (n+a)^(2j-1)) as a series in u = 1/n, a >= 0, js = :func:`_js`.

    With d = 2j-1, (n+a)^-d = u^d (1+au)^-d = u^d sum_i C(d-1+i, i)
    (-au)^i; the terms of degree d+i <= J are coefficients, over one
    denominator.  For x = au >= 0 the Lagrange remainder of (1+x)^-d
    after degree J-d is at most C(J, d-1) x^(J-d+1), and a term of
    degree d > J is at most u^d.

    For real n + a > 0 the Stirling series envelops its remainder at
    every order, so it is at most the first omitted term, at most
    |B_(2js+2)|/((2js+2)(2js+1)) u^(2js+1).  That folds into rho as
    U0^(2js+1-(J+1)), which bounds u^(2js+1-(J+1)) only while 2js+1 >=
    J+1; js >= J//2 + 1 makes 2js+1 >= J+2 at every J."""
    a = Fraction(a)
    js = _js(J)
    an, ad = a.numerator, a.denominator
    coefs = []                        # (d, numerator, denominator)
    for j in range(1, js + 1):
        b = _bern(2 * j)
        coefs.append((2 * j - 1, b.numerator,
                      b.denominator * 2 * j * (2 * j - 1)))
    L = math.lcm(*(cd for d, _, cd in coefs if d <= J))
    num = [0] * (J + 1)
    rho = _ZERO
    for d, cn, cd in coefs:
        coef = Fraction(abs(cn), cd)
        if d > J:
            rho += coef * U0 ** (d - J - 1)
            continue
        w = cn * (L // cd)
        for i in range(J - d + 1):
            num[d + i] += (w * (-an) ** i * ad ** (J - 1 - i)
                           * math.comb(d - 1 + i, i))
        rho += coef * math.comb(J, d - 1) * a ** (J - d + 1)
    b = _bern(2 * js + 2)
    rem = Fraction(abs(b.numerator),
                   b.denominator * (2 * js + 2) * (2 * js + 1))
    return USeries._of(num, L * ad ** (J - 1),
                       _fr_up(rho + rem * U0 ** (2 * js + 1 - (J + 1))))


@functools.lru_cache(maxsize=_PREC_CACHE)
def _h_series(s: int, J: int) -> USeries:
    """h_{sn} = H_{sn} - ln(sn) - gamma as a series in u = 1/n, from
    h_x = 1/(2x) - sum_{k<=kh} B_2k/(2k x^2k) + remainder, kh = :func:`_kh`.

    For real x > 0 the series envelops its remainder at every order, so
    it is at most |B_(2kh+2)|/((2kh+2) x^(2kh+2)).  That folds into rho
    as U0^(2kh+2-(J+1)), which bounds u^(2kh+2-(J+1)) only while 2kh+2
    >= J+1; kh >= J//2 + 1 makes 2kh+2 >= J+3 at every J."""
    kh = _kh(J)
    terms = []                        # (2k, numerator, denominator)
    for k in range(1, kh + 1):
        b = _bern(2 * k)
        terms.append((2 * k, -b.numerator,
                      b.denominator * 2 * k * s ** (2 * k)))
    den = math.lcm(2 * s, *(vd for m, _, vd in terms if m <= J))
    num = [0] * (J + 1)
    num[1] = den // (2 * s)
    rho = _ZERO
    for m, vn, vd in terms:
        if m <= J:
            num[m] += vn * (den // vd)
        else:
            rho = _fr_up(rho + Fraction(abs(vn), vd)
                         * U0 ** (m - (J + 1)))
    m = 2 * kh + 2
    b = _bern(m)
    rem = Fraction(abs(b.numerator), b.denominator * m * s ** m)
    return USeries._of(num, den, _fr_up(rho + rem * U0 ** (m - (J + 1))))


@functools.lru_cache(maxsize=_PREC_CACHE)
def _g_series(J: int) -> USeries:
    """ln(b(n) sqrt(pi n)) as a u-series."""
    return (_a_series(J) + USeries(J, [Fraction(1, 2)])
            + _s_series(Fraction(1, 2), J) - _s_series(Fraction(1), J))


@functools.lru_cache(maxsize=_PREC_CACHE)
def _exp_g(e: int, J: int) -> USeries:
    """(b(n) sqrt(pi n))^e = exp(e g) as a u-series."""
    return exp_useries(_g_series(J).scale(e))


@functools.lru_cache(maxsize=_PREC_CACHE)
def _d_part(kind: str, J: int) -> tuple[Fraction, Fraction, USeries]:
    """Harmonic factor D(n) = alpha_L ln n + D0(u) + b ln 2 + alpha_L gamma;
    returns (alpha_L, b, D0), all exact.

    With H_n = ln n + gamma + h_n, alpha_L = a + b and D0 = kappa +
    b h_2n + a h_n + (c/2) u."""
    k = HARMONIC_KINDS[kind]
    d0 = (USeries(J, [k.kappa, k.c / 2]) + _h_series(2, J).scale(k.b)
          + _h_series(1, J).scale(k.a))
    return k.a + k.b, k.b, d0


# --------------------------------------------------------------------
# recipes and the assembled coefficient polynomials
# --------------------------------------------------------------------

@dataclass(frozen=True)
class TermRecipe:
    """t_n = scale * y^n * (P/Q)(n) * b(n)^e * D_kind(n) for n >= 1,
    coefficients ascending, y exact in Q or Q(sqrt5); its stream, sign
    and tail are derived by :func:`series_engine.series_from`."""

    key: str
    P: tuple
    Q: tuple
    e: int
    dkind: str
    scale: Fraction = Fraction(1)
    y: Fraction | SurdQ5 = Fraction(1)

    @property
    def sigma0(self) -> Fraction:
        return Fraction(len(self.Q) - len(self.P)) + Fraction(self.e, 2)


@functools.lru_cache(maxsize=_PREC_CACHE)
def _expansion(P: tuple, Q: tuple, e: int, dkind: str, J: int):
    """(alpha_L, b, T, R) of a recipe, exact: T = (P*/Q*)(u) exp(e g(u))
    and R = T D0, with (alpha_L, b, D0) from :func:`_d_part`."""
    t = rational_useries(P[::-1], Q[::-1], J)
    if e:
        t = t * _exp_g(e, J)
    alpha_l, b, d0 = _d_part(dkind, J)
    return alpha_l, b, t, t * d0


class BallPoly(NamedTuple):
    """sum_{j<=J} c[j] u^j with |f(u) - poly(u)| <= rho u^(J+1), each c[j]
    a Ball, or None where the coefficient is exactly 0."""

    c: tuple
    rho: Fraction


def _times(c: Fraction, x: Ball) -> Ball:
    """c x, an exact shift when c = 1/2^k."""
    k = c.denominator.bit_length() - 1
    return x.mul_2exp(-k) if c == Fraction(1, 1 << k) else x * c


@functools.lru_cache(maxsize=_PREC_CACHE)
def build_poly(recipe: TermRecipe, prec: int, J: int = J_MAX):
    """(sigma0, W0, W1): t_n = sum_j (W0_j + W1_j ln n) n^(-sigma0-j) + rem,
    the sum over j <= J and |rem| <= (W0.rho + W1.rho ln n) n^(-sigma0-J-1).

    W0 = pi^(-e/2) (R + K T) and W1 = pi^(-e/2) alpha_L T, K = b ln 2 +
    alpha_L gamma: each T_j and R_j is rounded once at ``prec``, from its
    integer numerator and the series' denominator, and the three
    constants are the only balls."""
    alpha_l, b, t, r = _expansion(recipe.P, recipe.Q, recipe.e,
                                  recipe.dkind, J)
    k = None
    if b:
        k = _times(b, constant(ConstantName.LN2, prec))
    if alpha_l:
        g = _times(alpha_l, _euler_gamma_ball(prec))
        k = g if k is None else k + g
    pref = None
    if recipe.e:
        pi = constant(ConstantName.PI, prec)
        if recipe.e == 1:
            pref = 1 / pi.sqrt()
        elif recipe.e == 2:
            pref = 1 / pi
        else:
            pref = 1 / pi.sqrt().pow_int(recipe.e)

    def times_pref(x: Ball | None) -> Ball | None:
        return x if x is None or pref is None else x * pref

    an, ad = alpha_l.numerator, alpha_l.denominator * t.den
    w0, w1 = [], []
    for tj, rj in zip(t.num, r.num):
        x = Ball.from_ratio(rj, r.den, prec) if rj else None
        if k is not None and tj:
            y = k * Ball.from_ratio(tj, t.den, prec)
            x = y if x is None else x + y
        w0.append(times_pref(x))
        w1.append(times_pref(Ball.from_ratio(an * tj, ad, prec))
                  if an and tj else None)
    rho0 = r.rho + (t.rho * _fr_abs_hi(k) if k is not None else 0)
    rho1 = abs(alpha_l) * t.rho
    if pref is not None:
        rho0, rho1 = (v * _fr_abs_hi(pref) for v in (rho0, rho1))
    return (recipe.sigma0, BallPoly(tuple(w0), _fr_up(rho0)),
            BallPoly(tuple(w1), _fr_up(rho1)))


# --------------------------------------------------------------------
# Euler-Maclaurin evaluation of Z(s,a) and ZL(s,a)
# --------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _bern_fact(K: int) -> tuple[int, list]:
    """(L, c): B_2k/(2k)! = c[k] / L for 1 <= k <= K, L the least common
    denominator, exact."""
    v = [_bern(2 * k) / math.factorial(2 * k) for k in range(1, K + 1)]
    L = math.lcm(*(x.denominator for x in v))
    return L, [0] + [x.numerator * (L // x.denominator) for x in v]


# a convergent of pi, below it: 4/(2 pi)^(2K) < 4/(2 _PI_LO)^(2K)
_PI_LO = Fraction(103993, 33102)


@functools.lru_cache(maxsize=_Z_CACHE)
def _ln(a: int, prec: int) -> Ball:
    return Ball.from_int(a, prec).ln()


@functools.lru_cache(maxsize=_Z_CACHE)
def _sqrt(a: int, prec: int) -> Ball:
    return Ball.from_int(a, prec).sqrt()


def _int_exponent(s: Fraction) -> int:
    """t with a^-s = a^-t, times sqrt a when s is a half-integer."""
    if s.denominator > 2:
        raise ValueError("exponent must be an integer or half-integer")
    return math.ceil(s)


def _mpf_up(x: Fraction, d: int):
    """An mpf upper bound of x/d >= 0."""
    return from_rational(x.numerator, x.denominator * d, 53, round_ceiling)


@functools.lru_cache(maxsize=_Z_CACHE)
def z_em(s: Fraction, a: int, prec: int, k_order: int = 10) -> Ball:
    """sum_{n >= a} n^-s with the remainder folded into the radius.

    With a^-s = a^-t (sqrt a), t an integer, every Euler-Maclaurin term
    is a^-t (sqrt a) times an exact rational: the bracket a/(s-1) + 1/2 +
    sum_{k<=K} B_2k/(2k)! (s)_(2k-1) a^(1-2k), summed in integers over
    one denominator and rounded once; the first omitted term of that
    sum bounds the remainder.
    """
    s = Fraction(s)
    sn, sd = s.numerator, s.denominator
    at = a ** _int_exponent(s)
    L, bf = _bern_fact(k_order + 1)
    x2 = (sd * a) ** 2
    poch = sn                            # sd^(2k-1) (s)_(2k-1)
    acc = 0                              # sum over L (sd a)^(2K-1)
    for k in range(1, k_order + 1):
        acc = acc * x2 + bf[k] * poch
        poch *= (sn + (2 * k - 1) * sd) * (sn + 2 * k * sd)
    den = L * (sd * a) ** (2 * k_order - 1)
    x = a / (s - 1) + Fraction(1, 2) + Fraction(acc, den)
    err = Fraction(abs(bf[k_order + 1]) * poch, den * x2)
    val = Ball.from_fraction(x / at, prec).widened(_mpf_up(err, at))
    return val * _sqrt(a, prec) if sd == 2 else val


@functools.lru_cache(maxsize=_Z_CACHE)
def zl_em(s: Fraction, a: int, prec: int) -> Ball:
    """sum_{n >= a} n^-s ln n with a certified remainder.

    The remainder bound 4 (2 pi)^(-2K) |g^(2K-1)(a)| requires g^(2K) to
    keep one sign on [a, inf), which reduces to
    ln a >= sum_{i<2K} 1/(s+i); K adapts downward until that holds.
    Every term is a^-t (sqrt a) (R1 ln a + R0) with exact rationals R1
    and R0, summed as in :func:`z_em`; each is rounded once.
    """
    s = Fraction(s)
    sn, sd = s.numerator, s.denominator
    at = a ** _int_exponent(s)
    la = _ln(a, prec)
    la_lo_ok = None
    for k_order in (10, 8, 6, 4, 3):
        num, den = 0, 1                  # sum_{i<2K} 1/(s+i) = num/den
        for i in range(2 * k_order):
            f = sn + i * sd
            num, den = num * f + sd * den, den * f
        gap = la - Ball.from_fraction(Fraction(num, den), prec)
        if gap.is_positive():
            la_lo_ok = k_order
            break
    if la_lo_ok is None:
        raise ArithmeticError("no valid Euler-Maclaurin order for ZL")
    k_order = la_lo_ok

    # g^(m)(x) = x^(-s-m) (p_m ln x + q_m), sd^m (p_m, q_m) = (P, Q)
    L, bf = _bern_fact(k_order)
    x2 = (sd * a) ** 2
    P, Q = 1, 0
    acc1 = acc0 = 0                      # sums over L (sd a)^(2K-1)
    for m in range(1, 2 * k_order):
        f = sn + (m - 1) * sd
        P, Q = -f * P, sd * P - f * Q
        if m % 2:
            bk = bf[(m + 1) // 2]
            acc1, acc0 = acc1 * x2 + bk * P, acc0 * x2 + bk * Q
    den = L * (sd * a) ** (2 * k_order - 1)
    sm1 = 1 / (s - 1)
    r1 = a * sm1 + Fraction(1, 2) - Fraction(acc1, den)
    r0 = a * sm1 * sm1 - Fraction(acc0, den)
    # |p ln a + q| is largest at an end of the enclosure of ln a
    g = max(abs(P * v + Q) for v in la.to_interval_fractions())
    err = g * L / den * 4 / (2 * _PI_LO) ** (2 * k_order)
    val = (la * Ball.from_fraction(r1 / at, prec)
           + Ball.from_fraction(r0 / at, prec)).widened(_mpf_up(err, at))
    return val * _sqrt(a, prec) if sd == 2 else val


# --------------------------------------------------------------------
# the plan: cut N and degree J from the tolerance
# --------------------------------------------------------------------

# The error model.  Over the twelve catalog recipes, at J = 4..12 and
# N = 32..2048, the radius of tail_enclosure(recipe, N, prec, J) stays
# below 10^-3 26^-J (32/N)^(J+2), at any precision: each extra degree
# gains about 26x at N = 32 (24x to 33x measured), each doubling of N
# 2^(J+2).  The bound holds with a margin of 1.5 to 7 on that grid.
_MODEL_C = Fraction(1, 1000)
_MODEL_F = 26
_PLAN_J_MIN = 4
_PLAN_N_MAX = 2048           # the cut of J_MAX when no plan closes below it
# one more degree costs a cold tail about as much as this many kernel
# steps do (0.57 ms against 0.82 us per step, 15 digits, 2-core VM)
_DEGREE_STEPS = 600


def _model_cut(tol: Fraction, J: int) -> int | None:
    """The least N in [_MIN_A - 1, _PLAN_N_MAX] with model radius <= tol,
    or None; exact integer arithmetic, so every platform plans alike."""
    m = J + 2
    # 10^-3 26^-J (32/N)^m <= tol  <=>  N^m >= need
    need = _MODEL_C * (_MIN_A - 1) ** m / (_MODEL_F ** J * tol)
    lo, hi = _MIN_A - 1, _PLAN_N_MAX
    if hi ** m < need:
        return None
    if lo ** m >= need:
        return lo
    while hi - lo > 1:              # lo fails, hi closes
        mid = (lo + hi) // 2
        if mid ** m >= need:
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=_PREC_CACHE)
def plan(tol: Fraction, weight: Fraction = Fraction(1)) -> tuple[int, int]:
    """(N, J): N the cut of least cost, N + _DEGREE_STEPS J, whose model
    radius is at most ``tol`` at some _PLAN_J_MIN <= J <= J_MAX, with
    N <= _PLAN_N_MAX (else _PLAN_N_MAX), so all tails of one tolerance
    share N; J the least degree whose model radius at N, times
    ``weight``, is at most ``tol`` (else J_MAX).  The model only steers:
    the caller still checks the enclosure it gets against ``tol``."""
    tol = Fraction(tol)
    best = (_PLAN_N_MAX, J_MAX)
    best_cost = None
    for J in range(_PLAN_J_MIN, J_MAX + 1):
        N = _model_cut(tol, J)
        if N is None:
            continue
        cost = N + _DEGREE_STEPS * J
        if best_cost is None or cost < best_cost:
            best, best_cost = (N, J), cost
    N = best[0]
    for J in range(_PLAN_J_MIN, J_MAX + 1):
        cut = _model_cut(tol / weight, J)
        if cut is not None and cut <= N:
            return N, J
    return N, J_MAX


# --------------------------------------------------------------------
# the tail enclosure
# --------------------------------------------------------------------

def tail_enclosure(recipe: TermRecipe, N: int, prec: int,
                   J: int = J_MAX) -> Ball:
    """Rigorous ball enclosing sum_{n > N} t_n from the degree-J
    expansion; requires y = 1, N + 1 >= 33 and 1 <= J <= J_MAX."""
    if recipe.y != 1:
        raise ValueError(f"an Euler-Maclaurin tail needs y = 1, not "
                         f"{recipe.y}")
    a = N + 1
    if a < _MIN_A:
        raise ValueError(f"asymptotic tail needs N >= {_MIN_A - 1}")
    if not 1 <= J <= J_MAX:
        raise ValueError(f"degree {J} outside 1..{J_MAX}")
    wp = prec + 30
    sigma0, w0, w1 = build_poly(recipe, wp, J)
    tot = Ball.zero(wp)
    for j, (x0, x1) in enumerate(zip(w0.c, w1.c)):
        s = sigma0 + j
        if x0 is not None:
            tot = tot + x0 * z_em(s, a, wp)
        if x1 is not None:
            tot = tot + x1 * zl_em(s, a, wp)
    s_rem = sigma0 + J + 1
    rem = Fraction(0)
    if w0.rho:
        rem += w0.rho * _fr_abs_hi(z_em(s_rem, a, wp))
    if w1.rho:
        rem += w1.rho * _fr_abs_hi(zl_em(s_rem, a, wp))
    if rem:
        tot = tot.widened(Ball.from_fraction(rem, wp).abs_hi())
    if recipe.scale != 1:
        tot = tot * Ball.from_fraction(recipe.scale, wp)
    return Ball(tot.mid, tot.rad, prec)
