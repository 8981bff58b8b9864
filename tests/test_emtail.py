"""Euler-Maclaurin tail enclosures for the slowly convergent series."""

import functools
import math
from fractions import Fraction

import mpmath
import pytest

from binomharm import _emtail, registry
from binomharm.ball_arith import Ball, ConstantName, constant
from binomharm.exact_core import central_binomial, harmonic
from binomharm.series_engine import HARMONIC_KINDS, AsymptoticTail, d_value

import _useries_oracle as oracle
from _frozen import RHS_REFS, Z_REFS, ZL_REFS, assert_contains

PREC = 160

ASYMPTOTIC_IDS = ("EQ1", "EQ2", "EQ3", "EQ34", "EQ35", "EQ36", "THM25A",
                  "THM25B", "THM26", "THM27")


def interval(b):
    return b.to_interval_fractions()


# ----------------------------------------------------------------------
# the Euler-Maclaurin zeta-like building blocks


@pytest.mark.parametrize("s,a,ref", Z_REFS)
def test_z_em_matches_reference(s, a, ref):
    ball = _emtail.z_em(Fraction(s), a, PREC)
    assert_contains(ball, ref, what=f"Z({s},{a})")
    assert ball.rad_fraction() < Fraction(1, 10 ** 30)


@pytest.mark.parametrize("s,a,ref", ZL_REFS)
def test_zl_em_matches_reference(s, a, ref):
    ball = _emtail.zl_em(Fraction(s), a, PREC)
    assert_contains(ball, ref, what=f"ZL({s},{a})")
    assert ball.rad_fraction() < Fraction(1, 10 ** 25)


# Z and ZL against mpmath's Hurwitz zeta, on s = 3/2..17 in half steps.
# Each ball must contain zeta(s, a) (for ZL, -zeta'(s, a)), and its
# radius must be at most _EM_ULPS 2^-prec |value| + (1 + 2^-20) T, with
# T the Euler-Maclaurin remainder at order K = 10, evaluated here from
# its formula: |B_22/22!| (s)_21 a^(-s-21) for Z, and 4 (2 pi)^-20
# |g^(19)(a)| for ZL, where g^(m)(a) = (-1)^m a^(-s-m) (s)_m (ln a -
# sum_{i<m} 1/(s+i)) is the m-th derivative of x^-s ln x.  Rounding
# dominates at the low precisions and T at the high ones, so a dropped
# remainder fails the containment and a slack one the radius.  Measured:
# the rounding share is at most 7.0 ulps for Z and 12.9 for ZL.

_EM_S = [Fraction(k, 2) for k in range(3, 35)]
_EM_ULPS = 16
_EM_K = 10


@functools.lru_cache(maxsize=None)
def _hurwitz(s, a):
    """(zeta(s, a), -zeta'(s, a), T_Z, T_ZL) in mpmath, accurate to
    well past 700 bits: mpmath sums zeta(s) - sum_{n<a} n^-s, which
    cancels about s log2(a) bits."""
    with mpmath.workprec(780 + 2 * int(s) * a.bit_length()):
        sm = _mp(s)
        z = mpmath.zeta(sm, a)
        zl = -mpmath.zeta(sm, a, derivative=1)
        K = _EM_K
        t_z = (abs(_mp(_emtail._bern(2 * K + 2)))
               / mpmath.factorial(2 * K + 2) * mpmath.rf(sm, 2 * K + 1)
               * mpmath.mpf(a) ** (-sm - 2 * K - 1))
        m = 2 * K - 1
        hs = mpmath.fsum(1 / (sm + i) for i in range(m))
        t_zl = (4 / (2 * mpmath.pi) ** (2 * K) * mpmath.mpf(a) ** (-sm - m)
                * mpmath.rf(sm, m) * abs(mpmath.log(a) - hs))
        return z, zl, t_z, t_zl


def _mp_interval(ball):
    """The ball's ends as mpf, exactly (they are dyadic)."""
    with mpmath.workprec(ball.prec + 64):
        return tuple(_mp(v) for v in ball.to_interval_fractions())


@pytest.mark.parametrize("prec", (64, 144, 400, 700))
@pytest.mark.parametrize("a", (33, 469, 2049))
def test_z_and_zl_against_mpmath(a, prec):
    # ZL's sign condition ln a >= sum_{i<2K} 1/(s+i) holds at K = 10
    # on the whole grid: the sum is largest at s = 3/2, about 3.01
    assert math.log(33) > sum(1 / (1.5 + i) for i in range(2 * _EM_K)) + 0.4
    for s in _EM_S:
        refs = _hurwitz(s, a)
        for fn, v, t in ((_emtail.z_em, refs[0], refs[2]),
                         (_emtail.zl_em, refs[1], refs[3])):
            ball = fn(s, a, prec)
            lo, hi = _mp_interval(ball)
            what = f"{fn.__name__}({s}, {a}) at {prec} bits"
            assert lo <= v <= hi, what
            cap = (_EM_ULPS * mpmath.ldexp(abs(v), -prec)
                   + t * (1 + mpmath.ldexp(1, -20)))
            assert _mp(ball.rad_fraction()) <= cap, what


def test_pi_lo_is_below_pi():
    with mpmath.workdps(30):
        assert _mp(_emtail._PI_LO) < mpmath.pi
        assert mpmath.pi - _mp(_emtail._PI_LO) < mpmath.mpf(10) ** -9


def test_z_em_monotone_in_a():
    lo1, hi1 = interval(_emtail.z_em(Fraction(3, 2), 33, PREC))
    lo2, hi2 = interval(_emtail.z_em(Fraction(3, 2), 64, PREC))
    assert hi2 < lo1  # dropping terms strictly reduces a positive sum


# ----------------------------------------------------------------------
# recipe polynomials


def test_build_poly_is_cached():
    recipe = registry._RECIPES["EQ1"]
    a = _emtail.build_poly(recipe, 120)
    b = _emtail.build_poly(recipe, 120)
    assert a is b


# ----------------------------------------------------------------------
# the shared caches
#
# Every cached piece is pure, so a tail must not depend on what earlier
# calls left in the caches, nor on the order in which they filled them.


def _clear_caches():
    cached = [f for f in vars(_emtail).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    return {f.__name__ for f in cached}


def _all_tails(keys):
    out = {}
    for key in keys:
        for N in (32, 2048):
            for prec in (PREC, 240):
                for J in (_emtail._PLAN_J_MIN, _emtail.J_MAX):
                    t = _emtail.tail_enclosure(registry._RECIPES[key], N,
                                               prec, J)
                    out[key, N, prec, J] = (t.mid, t.rad)
    return out


def test_tails_do_not_depend_on_cache_state():
    keys = list(registry._RECIPES)
    assert len(keys) == 12
    names = _clear_caches()
    assert {"build_poly", "_expansion", "z_em", "zl_em", "_g_series",
            "_exp_g", "_d_part", "_h_series", "_bern"} <= names
    cold = _all_tails(keys)
    warm = _all_tails(keys)
    _clear_caches()
    reverse = _all_tails(keys[::-1])
    assert warm == cold
    assert reverse == cold


_S_GRID = [Fraction(k, 2) for k in range(3, 35)]


@pytest.mark.parametrize("a", [33, 2049])
def test_cached_z_sums_equal_uncached(a):
    _clear_caches()
    for s in _S_GRID:
        for fn in (_emtail.z_em, _emtail.zl_em):
            got = fn(s, a, PREC)
            assert fn(s, a, PREC) is got
            fresh = fn.__wrapped__(s, a, PREC)
            assert (got.mid, got.rad) == (fresh.mid, fresh.rad), \
                f"{fn.__name__}({s}, {a})"


def test_one_exact_build_serves_every_precision():
    # the exact expansion depends on the degree only: EQ1's tails at the
    # first two precisions of a ladder (+64 bits) build it once, and each
    # equals a cold build at its own precision
    recipe = registry._RECIPES["EQ1"]
    _clear_caches()
    tails = {}
    for prec in (144, 208):
        t = _emtail.tail_enclosure(recipe, 468, prec, _emtail.J_MAX)
        tails[prec] = (t.mid, t.rad)
    assert _emtail._expansion.cache_info().misses == 1
    assert _emtail._expansion.cache_info().hits == 1
    for prec, got in tails.items():
        _clear_caches()
        t = _emtail.tail_enclosure(recipe, 468, prec, _emtail.J_MAX)
        assert (t.mid, t.rad) == got, prec


def test_tail_requires_min_index():
    recipe = registry._RECIPES["EQ1"]
    with pytest.raises(ValueError):
        _emtail.tail_enclosure(recipe, 31, PREC)
    _emtail.tail_enclosure(recipe, 32, PREC)  # boundary is allowed


# ----------------------------------------------------------------------
# recipes against the streams they describe
#
# An asymptotic tail has no runtime hypothesis check, so a recipe that
# drifts from its stream would give an unsound tail.  Each recipe term
# scale * (P/Q)(n) * b(n)^e * D(n) must equal the exact stream term.


def _recipe_term(recipe, n):
    b = Fraction(central_binomial(n), 4 ** n)
    p = sum(c * n ** i for i, c in enumerate(recipe.P))
    q = sum(c * n ** i for i, c in enumerate(recipe.Q))
    d = Fraction(1) if recipe.dkind == "1" else d_value(recipe.dkind, n)
    return recipe.scale * Fraction(p, q) * b ** recipe.e * d


_REG = registry.make_registry()
_EM_IDS = [eid for eid, entry in _REG.items()
           if isinstance(entry.make_stream()[1], AsymptoticTail)]


def test_em_ids_are_the_asymptotic_ids():
    assert sorted(_EM_IDS) == sorted(ASYMPTOTIC_IDS)


@pytest.mark.parametrize("eid", _EM_IDS)
def test_recipe_terms_equal_stream_terms(eid):
    stream, strat = _REG[eid].make_stream()
    for n, t in stream.iter_exact():
        if n > 256:
            break
        assert t == _recipe_term(strat.recipe, n), f"{eid} term {n}"


def test_thm24_components_match_first_principles():
    # THM24's stream is derived from its own recipes, so its two
    # rational components are checked against the definitions instead:
    # U D = Cat(n) / (4^n (2n+1)) (H_2n - H_n/2) and U D W with
    # W = (2n)!! / (2n+1)!!
    stream, _ = _REG["THM24"].make_stream()
    for n, (ud, udw) in stream.iter_exact():
        if n > 256:
            break
        cat = math.comb(2 * n, n) // (n + 1)
        want = (Fraction(cat, 4 ** n * (2 * n + 1))
                * (harmonic(2 * n) - harmonic(n) / 2))
        w = Fraction(math.prod(range(2, 2 * n + 1, 2)),
                     math.prod(range(1, 2 * n + 2, 2)))
        assert ud == want, f"U D term {n}"
        assert udw == want * w, f"U D W term {n}"


# ----------------------------------------------------------------------
# tails against exact partial-sum movement
#
# For any correct tail, T(32) - T(M) must enclose the exact finite
# window sum_{n=33}^{M} t_n; the window is computed by exact rational
# summation of the stream, so no asymptotics are shared between the two
# sides.  Every degree a plan can pick, 4..12, is checked on the window
# up to M = 512, and the largest degree also up to M = 2048.

_PLAN_DEGREES = range(_emtail._PLAN_J_MIN, _emtail.J_MAX + 1)


@functools.lru_cache(maxsize=None)
def _exact_window(eid, top):
    stream, _ = registry.make_registry()[eid].make_stream()
    window = Fraction(0)
    for n, t in stream.iter_exact():
        if n > top:
            break
        if n >= 33:
            window += t
    return window


_WINDOW_CASES = (
    [pytest.param(eid, _emtail.J_MAX, 2048, id=eid)
     for eid in ASYMPTOTIC_IDS]
    + [pytest.param(eid, J, 512, id=f"{eid}-J{J}")
       for eid in ASYMPTOTIC_IDS for J in _PLAN_DEGREES])


@pytest.mark.parametrize("eid,J,top", _WINDOW_CASES)
def test_tail_window_consistency(eid, J, top):
    _, strat = registry.make_registry()[eid].make_stream()
    window = _exact_window(eid, top)
    t32 = _emtail.tail_enclosure(strat.recipe, 32, PREC, J)
    ttop = _emtail.tail_enclosure(strat.recipe, top, PREC, J)
    lo, hi = interval(t32 - ttop)
    assert lo <= window <= hi, \
        f"{eid} at J={J}: window {float(window)} escapes tail"


def test_thm24_composite_tail_window_consistency():
    reg = registry.make_registry()
    stream, strat = reg["THM24"].make_stream()
    s32, _ = stream.partial_sum(32, PREC)
    s2048, _ = stream.partial_sum(2048, PREC)
    window = s2048 - s32
    t32 = strat.tail_ball(stream, 32, PREC, None)
    t2048 = strat.tail_ball(stream, 2048, PREC, None)
    dlo, dhi = interval(window)
    wlo, whi = interval(t32 - t2048)
    assert wlo <= dlo and dhi <= whi
    # each planned degree, on the window 33..512: (pi/2) tailA - tailB
    dlo, dhi = interval(stream.partial_sum(512, PREC)[0] - s32)
    half_pi = constant(ConstantName.PI, PREC).mul_2exp(-1)
    for J in _PLAN_DEGREES:
        def tail(N):
            return (half_pi * _emtail.tail_enclosure(strat.recipe_a, N,
                                                     PREC, J)
                    - _emtail.tail_enclosure(strat.recipe_b, N, PREC, J))
        wlo, whi = interval(tail(32) - tail(512))
        assert wlo <= dlo and dhi <= whi, f"J={J}"


def test_tail_absolute_remainder_eq1():
    # S - S_N must fall inside tail(N), with S the closed form, at
    # every degree a plan can pick
    reg = registry.make_registry()
    entry = reg["EQ1"]
    stream, strat = entry.make_stream()
    s32 = stream.partial_sum_exact(32)
    remainder = Fraction(RHS_REFS["EQ1"]) - s32
    slack = Fraction(1, 10 ** 40)
    for J in _PLAN_DEGREES:
        lo, hi = interval(_emtail.tail_enclosure(strat.recipe, 32, PREC, J))
        assert lo - slack <= remainder <= hi + slack, f"J={J}"


def test_tail_shrinks_with_n():
    recipe = registry._RECIPES["EQ34"]
    widths = []
    for N in (32, 128, 1024, 4096):
        lo, hi = interval(_emtail.tail_enclosure(recipe, N, PREC))
        widths.append(hi - lo)
        assert hi - lo >= 0
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < widths[0] / 10 ** 6


def test_scaled_recipe_negates_tail():
    # the tails enclose exactly opposite values, so their sum straddles 0
    t34 = _emtail.tail_enclosure(registry._RECIPES["EQ34"], 64, PREC)
    t35 = _emtail.tail_enclosure(registry._RECIPES["EQ35"], 64, PREC)
    lo, hi = interval(t34 + t35)
    assert lo <= 0 <= hi
    assert t34.is_positive() and t35.is_negative()


# ----------------------------------------------------------------------
# the u-series builders against independent evaluations
#
# Each series must satisfy |f(u) - poly(u)| <= rho u^(J+1) at u = 1/n,
# n in (33, 100, 1000), at every degree a plan can pick, with f
# evaluated from its definition; the coefficients are exact, so rho is
# the whole bound.  The inputs are chosen so that the remainder term
# under test dominates rho: for h_sn the terms past degree J folded into
# rho, for exp(e g) at e = 200 the truncation bound of the exp series.
# Dropping either term fails these tests, and at n = 33 rho u^(J+1) is
# within 10x of the true remainder.

_SERIES_PREC = 256
_SERIES_NS = (33, 100, 1000)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _assert_remainder(ser, f, what, slack=10):
    J = ser.J
    for n in _SERIES_NS:
        u = Fraction(1, n)
        poly = sum(c * u ** m for m, c in enumerate(ser.c))
        err = abs(f(n) - _mp(poly))
        bound = _mp(ser.rho * u ** (J + 1))
        assert err <= bound, f"{what} at n={n}, J={J}"
        if n == _SERIES_NS[0]:
            assert bound <= slack * err, f"{what}: rho slack at J={J}"


@pytest.mark.parametrize("J", _PLAN_DEGREES)
@pytest.mark.parametrize("s", (1, 2))
def test_h_series_against_digamma(s, J):
    # h_m = H_m - ln m - gamma = psi(m + 1) - ln m
    with mpmath.workdps(90):
        _assert_remainder(
            _emtail._h_series(s, J),
            lambda n: mpmath.digamma(s * n + 1) - mpmath.log(s * n),
            f"h_{s}n")


@pytest.mark.parametrize("J", _PLAN_DEGREES)
def test_exp_g_against_central_binomial(J):
    # exp(e g(1/n)) = (b(n) sqrt(pi n))^e, b(n) = C(2n,n)/4^n exact
    e = 200

    def f(n):
        b = _mp(Fraction(central_binomial(n), 4 ** n))
        return (b * mpmath.sqrt(mpmath.pi * n)) ** e

    with mpmath.workdps(90):
        _assert_remainder(_emtail._exp_g(e, J), f,
                          f"exp({e} g)")


# rational_useries, _g_series and build_poly on the same grid.  P*/Q* is
# checked in exact rationals against P(n)/Q(n), on each distinct (P, Q) of
# the catalog recipes; its rho is the synthetic division's residual, and
# at n = 33 rho u^(J+1) is within 2x of the true remainder (measured:
# 1.0x to 1.1x).  g(u) = ln(b(n) sqrt(pi n)) has only odd powers of u, so
# at odd J its true remainder starts at u^(J+2); at n = 33, rho u^(J+1)
# is within 300x of it at even J (measured: 152x to 289x) and 10^4 at
# odd J (2820x to 9767x).  build_poly is checked against each recipe's
# exact term, at n = 33 within 2500x (measured: 1.06x for THM24B to
# 2229x for THM27 at J = 11, where exp(e g)'s truncation bound
# dominates).

_PQ = sorted({(r.P, r.Q) for r in registry._RECIPES.values()})


def _peval(coeffs, n):
    return sum(c * n ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("J", _PLAN_DEGREES)
@pytest.mark.parametrize("P,Q", _PQ)
def test_rational_useries_against_exact_ratio(P, Q, J):
    # P*(u)/Q*(u) = n^(deg Q - deg P) P(n)/Q(n), u = 1/n
    ser = _emtail.rational_useries(P[::-1], Q[::-1], J)
    assert all(type(v) is Fraction for v in (*ser.c, ser.rho))
    for n in _SERIES_NS:
        u = Fraction(1, n)
        f = Fraction(_peval(P, n) * n ** (len(Q) - len(P)), _peval(Q, n))
        err = abs(f - sum(c * u ** m for m, c in enumerate(ser.c)))
        bound = ser.rho * u ** (J + 1)
        assert 0 < err <= bound, f"n={n}"
        if n == _SERIES_NS[0]:
            assert bound <= 2 * err, "rho slack"


def test_exp_useries_needs_a_series_vanishing_at_zero():
    # exp(f) is built from the powers of f, which must start at u^1
    with pytest.raises(ValueError):
        _emtail.exp_useries(_emtail.USeries(4, [Fraction(1, 10 ** 9)]))


@pytest.mark.parametrize("J", _PLAN_DEGREES)
def test_g_series_against_central_binomial(J):
    def f(n):
        b = _mp(Fraction(central_binomial(n), 4 ** n))
        return mpmath.log(b * mpmath.sqrt(mpmath.pi * n))

    with mpmath.workdps(90):
        _assert_remainder(_emtail._g_series(J), f, "g",
                          slack=300 if J % 2 == 0 else 10 ** 4)


@pytest.mark.parametrize("J", _PLAN_DEGREES)
@pytest.mark.parametrize("key", sorted(registry._RECIPES))
def test_build_poly_against_exact_term(key, J):
    # (P/Q)(n) b(n)^e D(n) = sum_j (W0_j + W1_j ln n) n^(-sigma0-j) + rem,
    # |rem| <= (W0.rho + W1.rho ln n) n^(-sigma0-J-1), plus the radii of
    # the rounded coefficients
    recipe = registry._RECIPES[key]
    sigma0, w0, w1 = _emtail.build_poly(recipe, _SERIES_PREC, J)
    with mpmath.workdps(90):
        for n in _SERIES_NS:
            term = _recipe_term(recipe, n) / recipe.scale
            ln = mpmath.log(n)
            mid = rad = 0
            for j, (x0, x1) in enumerate(zip(w0.c, w1.c)):
                power = mpmath.power(n, -_mp(sigma0 + j))
                for x, f in ((x0, 1), (x1, ln)):
                    if x is not None:
                        mid += _mp(x.mid_fraction()) * f * power
                        rad += _mp(x.rad_fraction()) * f * power
            err = abs(_mp(term) - mid)
            bound = rad + ((_mp(w0.rho) + _mp(w1.rho) * ln)
                           * mpmath.power(n, -_mp(sigma0 + J + 1)))
            assert err <= bound, f"{key} at n={n}, J={J}"
            if n == _SERIES_NS[0]:
                assert bound <= 2500 * err, f"{key}: rho slack at J={J}"


@pytest.mark.parametrize("J", _PLAN_DEGREES)
@pytest.mark.parametrize("kind", sorted(HARMONIC_KINDS))
def test_d_part_encloses_d_value(kind, J):
    # alpha_L ln n + D0(1/n) + b ln 2 + alpha_L gamma, widened by
    # rho n^-(J+1), against the hand-written harmonic factor
    alpha, b, d0 = _emtail._d_part(kind, J)
    for n in _SERIES_NS:
        u = Fraction(1, n)
        val = (Ball.from_int(n, PREC).ln() * Ball.from_fraction(alpha, PREC)
               + constant(ConstantName.LN2, PREC) * b
               + _emtail._euler_gamma_ball(PREC) * alpha
               + Ball.from_fraction(sum(c * u ** m
                                        for m, c in enumerate(d0.c)), PREC))
        val = val.widened(
            Ball.from_fraction(d0.rho * u ** (J + 1), PREC).abs_hi())
        lo, hi = interval(val)
        assert lo <= d_value(kind, n) <= hi, (kind, n)


@pytest.mark.parametrize("J", _PLAN_DEGREES)
@pytest.mark.parametrize("kind", sorted(HARMONIC_KINDS))
def test_d_part_is_exact(kind, J):
    # (alpha_L, b) = (a + b, b), and D0 = kappa + b h_2n + a h_n + (c/2) u
    # coefficient by coefficient, in exact rationals; the constants
    # b ln 2 + alpha_L gamma stay out of D0
    k = HARMONIC_KINDS[kind]
    alpha, b, d0 = _emtail._d_part(kind, J)
    assert (alpha, b) == (k.a + k.b, k.b)
    assert all(type(v) is Fraction for v in (alpha, b, *d0.c, d0.rho))
    h1, h2 = _emtail._h_series(1, J), _emtail._h_series(2, J)
    want = [k.b * x + k.a * y for x, y in zip(h2.c, h1.c)]
    want[0] += k.kappa
    want[1] += k.c / 2
    assert list(d0.c) == want
    rho = abs(k.b) * h2.rho + abs(k.a) * h1.rho
    assert rho <= d0.rho <= rho + Fraction(1, 2 ** 110)


# ----------------------------------------------------------------------
# the Stirling correction S(n + a), a = 1/2 and 1 (the two that
# _g_series takes), at every degree J = 1..12
#
# Its coefficients are exact, coef (-a)^i C(d-1+i, i) for each term
# coef (n+a)^-d, d = 2j-1, and are checked here against the series of
# (1 + au)^-d built by repeated multiplication; its rho, the Lagrange
# remainders of (1 + au)^-d plus the enveloped Stirling remainder, is
# checked against S(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2.
# At n = 33, rho u^(J+1) is within 50x of the true remainder (measured:
# 1.0x to 46x), except at a = 1/2, J = 9 and 11, where the coefficient
# of S(n + 1/2) at u^(J+1) is 2% and 0.15% of the next one and the true
# remainder is that much smaller (measured: 1003x and 193x).

_S_SLACK = {(Fraction(1, 2), 9): 1100, (Fraction(1, 2), 11): 250}
_S_DEGREES = range(1, _emtail.J_MAX + 1)
_S_SHIFTS = (Fraction(1, 2), Fraction(1))


def _stirling(x):
    return (mpmath.loggamma(x) - (x - mpmath.mpf(1) / 2) * mpmath.log(x)
            + x - mpmath.log(2 * mpmath.pi) / 2)


def _inverse_power(a, d, k):
    """The coefficients of (1 + au)^-d to degree k, as the d-th power of
    the geometric series of 1/(1 + au)."""
    geo = [(-a) ** i for i in range(k + 1)]
    out = [Fraction(1)] + [Fraction(0)] * k
    for _ in range(d):
        out = [sum(out[i] * geo[m - i] for i in range(m + 1))
               for m in range(k + 1)]
    return out


@pytest.mark.parametrize("J", _S_DEGREES)
@pytest.mark.parametrize("a", _S_SHIFTS)
def test_s_series_coefficients_are_exact(a, J):
    want = [Fraction(0)] * (J + 1)
    for j in range(1, _emtail._js(J) + 1):
        d = 2 * j - 1
        if d > J:
            continue
        coef = _emtail._bern(2 * j) / (2 * j * (2 * j - 1))
        for i, v in enumerate(_inverse_power(a, d, J - d)):
            assert v == (-a) ** i * math.comb(d - 1 + i, i)
            want[d + i] += coef * v
    assert _emtail._s_series(a, J).c == tuple(want)


@pytest.mark.parametrize("J", _S_DEGREES)
@pytest.mark.parametrize("a", _S_SHIFTS)
def test_s_series_against_log_gamma(a, J):
    with mpmath.workdps(90):
        _assert_remainder(_emtail._s_series(a, J),
                          lambda n: _stirling(n + _mp(a)), f"S(n+{a})",
                          slack=_S_SLACK.get((a, J), 50))


# ----------------------------------------------------------------------
# degrees past J_MAX
#
# The Stirling and harmonic orders grow with J, js(J) = max(8, J//2 + 1)
# and kh(J) = max(7, J//2 + 1), so each enveloped remainder sits at
# u^(J+2) or beyond and folds into rho at every degree.  Each series is
# checked at J = 16, 24 and 40 against mpmath at 150 digits (at 120,
# digamma(2n + 1) - ln(2n) at n = 1000 is off by 1.4e-121, more than the
# true remainder of h_2n at J = 40, 4.6e-123).  At n = 33, rho u^(J+1)
# over the true remainder measures 11.7x to 12.1x for S(n + 1/2), 237x
# to 279x for S(n + 1), where the Lagrange terms C(J, d-1) a^(J-d+1)
# dominate, and 1.004x to 1.09x for h_n and h_2n.

_LARGE_DEGREES = (16, 24, 40)


def test_orders_put_the_remainders_past_degree_j():
    assert (_emtail._js(12), _emtail._kh(12)) == (8, 7)
    for J in range(1, 400):
        assert 2 * _emtail._js(J) + 1 >= J + 2
        assert 2 * _emtail._kh(J) + 2 >= J + 3


@pytest.mark.parametrize("J", _LARGE_DEGREES)
@pytest.mark.parametrize("a", _S_SHIFTS)
def test_s_series_at_large_degrees(a, J):
    with mpmath.workdps(150):
        _assert_remainder(_emtail._s_series(a, J),
                          lambda n: _stirling(n + _mp(a)), f"S(n+{a})",
                          slack=15 if a == Fraction(1, 2) else 300)


@pytest.mark.parametrize("J", _LARGE_DEGREES)
@pytest.mark.parametrize("s", (1, 2))
def test_h_series_at_large_degrees(s, J):
    with mpmath.workdps(150):
        _assert_remainder(
            _emtail._h_series(s, J),
            lambda n: mpmath.digamma(s * n + 1) - mpmath.log(s * n),
            f"h_{s}n", slack=1.2)


# ----------------------------------------------------------------------
# the product of two u-series is their exact convolution to degree J, and
# it folds its degrees past J into rho: rho must be exactly sum_{m>J}
# |c_m| U0^(m-J-1) of the product's high coefficients c_m, which cancel
# in part here, up to its upward rounding


@pytest.mark.parametrize("J", _S_DEGREES)
def test_useries_product_folds_the_high_degrees(J):
    a = [Fraction((-1) ** m) for m in range(J + 1)]
    b = [Fraction(m + 1) for m in range(J + 1)]
    prod = _emtail.USeries(J, a) * _emtail.USeries(J, b)
    conv = [sum(a[i] * b[m - i]
                for i in range(max(0, m - J), min(m, J) + 1))
            for m in range(2 * J + 1)]
    assert prod.c == tuple(conv[:J + 1])
    high = sum(abs(conv[m]) * _emtail.U0 ** (m - J - 1)
               for m in range(J + 1, 2 * J + 1))
    assert high <= prod.rho <= high + Fraction(1, 2 ** 110)


# ----------------------------------------------------------------------
# the integer algebra against the Fraction oracle
#
# USeries keeps integer numerators over one denominator; the oracle in
# _useries_oracle.py keeps the Fraction algebra that came before it,
# one reduced Fraction per coefficient and every rho rounded term by
# term.  Each builder must give the oracle's coefficients and rho
# exactly, at every degree J = 1..12, so no tail can move.


def _same(got, want, what):
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1, what
    assert got.c == want.c, f"{what}: coefficients"
    assert got.rho == want.rho, f"{what}: rho"


def _pair(J, coeffs, rho):
    return _emtail.USeries(J, coeffs, rho), oracle.FracSeries(J, coeffs, rho)


@pytest.mark.parametrize("J", _S_DEGREES)
def test_useries_algebra_equals_fraction_oracle(J):
    # coefficients over many distinct denominators, some cancelling
    a, a_o = _pair(J, [Fraction((-1) ** m * (m + 2), 3 ** m + 1)
                       for m in range(J + 1)], Fraction(7, 3))
    b, b_o = _pair(J, [Fraction(0)] + [Fraction(m + 1, 10 * m + 4)
                                       for m in range(1, J + 1)],
                   Fraction(1, 3 ** 40))
    _same(a + b, a_o + b_o, "a + b")
    _same(b + a, b_o + a_o, "b + a")
    _same(a - b, a_o - b_o, "a - b")
    _same(a - a, a_o - a_o, "a - a")
    _same(a.scale(Fraction(-5, 6)), a_o.scale(Fraction(-5, 6)), "scale")
    _same(a * b, a_o * b_o, "a b")
    _same(b * b, b_o * b_o, "b b")
    assert a.bound() == a_o.bound()
    _same(_emtail.exp_useries(b), oracle.exp_useries(b_o), "exp b")


@pytest.mark.parametrize("J", _S_DEGREES)
def test_rational_useries_equals_fraction_oracle(J):
    for P, Q in _PQ:
        _same(_emtail.rational_useries(P[::-1], Q[::-1], J),
              oracle.rational_useries(P[::-1], Q[::-1], J), f"{P}/{Q}")


@pytest.mark.parametrize("J", _S_DEGREES)
def test_series_builders_equal_fraction_oracle(J):
    _same(_emtail._a_series(J), oracle.a_series(J), "a")
    for a in _S_SHIFTS:
        _same(_emtail._s_series(a, J), oracle.s_series(a, J), f"S(n+{a})")
    for s in (1, 2):
        _same(_emtail._h_series(s, J), oracle.h_series(s, J), f"h_{s}n")
    _same(_emtail._g_series(J), oracle.g_series(J), "g")
    for e in (1, 2, 3):
        _same(_emtail._exp_g(e, J), oracle.exp_g(e, J), f"exp({e} g)")
    for kind in sorted(HARMONIC_KINDS):
        got, want = _emtail._d_part(kind, J), oracle.d_part(kind, J)
        assert got[:2] == want[:2], kind
        _same(got[2], want[2], f"D0 of {kind}")


@pytest.mark.parametrize("J", _S_DEGREES)
def test_expansions_equal_fraction_oracle(J):
    for key, r in sorted(registry._RECIPES.items()):
        got = _emtail._expansion(r.P, r.Q, r.e, r.dkind, J)
        want = oracle.expansion(r.P, r.Q, r.e, r.dkind, J)
        assert got[:2] == want[:2], key
        _same(got[2], want[2], f"T of {key}")
        _same(got[3], want[3], f"R of {key}")
