"""Ball arithmetic (midpoint plus radius) over binary floats.

A :class:`Ball` encloses a real number: the true value always lies in
[mid - rad, mid + rad].  Rounding primitives are delegated to
``mpmath.libmp`` with directed rounding modes, the same foundation
mpmath's own interval type is built on.  On top of the directed
rounding, every operation pads the radius by an explicit ulp bound, so
enclosure is preserved even if a nearest-rounded midpoint is off by the
maximal half-ulp.

The module also provides the named mathematical constants used by the
identity registry.  pi, ln 2 and sqrt5 come from directed libmp
primitives.  Catalan's constant, zeta(3) and zeta(2) are three rows of
one fixed-point kernel, ``_summed_ball``: each row is a first term t_1,
a step ratio t_{n+1}/t_n = A(n)/B(n) of integer polynomials, a sign
pattern and a scale, summed with an explicit ulp error counter.

  * G (Lupas): t_1 = 608/9, A = 32n^3 (2n-1)(40n^2+56n+19),
    B = (4n+1)^2 (4n+3)^2 (40n^2-24n+3), alternating, scale 2^-6;
  * zeta(3): t_1 = 1/2, A = n^3, B = 2(n+1)^2 (2n+1), alternating,
    scale 5/2;
  * zeta(2): t_1 = 1/2, A = n^2, B = 2(n+1)(2n+1), positive, scale 3.

The stop rule's tail allowance assumes every later ratio is below 1/4,
and that holds for every n >= 1, not only for the terms summed: B - 4A,
Taylor-shifted to n = 1, has the coefficients (8555, 41432, 77576,
70016, 30464, 5120) for G, (20, 28, 10) for zeta(3) and (8, 6) for
zeta(2), all positive.  The kernel also checks 4A(n) < B(n) exactly at
each summed n.  zeta(2) in particular is deliberately not derived from
pi, so identities whose right-hand side is zeta(2) are checked against
an independent route.
"""

from __future__ import annotations

import enum
import threading
from fractions import Fraction
from functools import partial
from math import ceil, log2
from typing import Callable, NamedTuple

from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_asin,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_ln2,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    round_up,
    to_rational,
    to_str,
)
from mpmath.libmp import mpf_euler  # internal use only; not a registry constant

from .exact_core import SurdQ5

__all__ = [
    "Ball",
    "ConstantName",
    "DomainError",
    "constant",
    "working_precision",
]

#: Radius arithmetic runs at this many bits, always rounded up.
_RADP = 30

_LOG2_10 = log2(10)


class DomainError(ValueError):
    """Raised when an operation leaves its mathematical domain."""


def working_precision(digits: int) -> int:
    """Bits of working precision for a target of ``digits`` decimal digits."""
    return ceil(digits * _LOG2_10) + 64


def _up(x, y):
    """x + y rounded up (radius arithmetic)."""
    return mpf_add(x, y, _RADP, round_up)


def _upmul(x, y):
    return mpf_mul(x, y, _RADP, round_up)


def _eps(mid, prec):
    """Outward pad covering a half-ulp nearest-rounding error of ``mid``."""
    if mid == fzero:
        return fzero
    return mpf_shift(mpf_abs(mid), 1 - prec)


def _man_bits(x) -> int:
    """Mantissa bit count of a raw mpf; caps exact-arithmetic growth."""
    return x[3]


class Ball:
    """Enclosure mid +/- rad of a real number at a working precision."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid, rad, prec: int):
        self.mid = mid
        self.rad = rad
        self.prec = prec

    # ---------------- constructors ----------------

    @staticmethod
    def zero(prec: int) -> "Ball":
        return Ball(fzero, fzero, prec)

    @staticmethod
    def from_int(n: int, prec: int) -> "Ball":
        lo = from_int(n, prec, round_floor)
        hi = from_int(n, prec, round_ceiling)
        return Ball._from_endpoint_tuples(lo, hi, prec)

    @staticmethod
    def from_fraction(q, prec: int) -> "Ball":
        q = Fraction(q)
        return Ball.from_ratio(q.numerator, q.denominator, prec)

    @staticmethod
    def from_ratio(p: int, q: int, prec: int) -> "Ball":
        """p/q for integers p and q > 0, in any terms: each end is
        rounded from the exact quotient."""
        lo = from_rational(p, q, prec, round_floor)
        hi = from_rational(p, q, prec, round_ceiling)
        return Ball._from_endpoint_tuples(lo, hi, prec)

    @staticmethod
    def from_surd(s: SurdQ5, prec: int) -> "Ball":
        if not s.b:
            return Ball.from_fraction(s.a, prec)
        # a + b sqrt5 can cancel almost completely (e.g. powers of the
        # golden-ratio conjugate), so raise the working precision until
        # the enclosure is accurate relative to the value itself
        wp = prec + 20
        for _ in range(64):
            out = (Ball.from_fraction(s.a, wp)
                   + Ball.from_fraction(s.b, wp) * _sqrt5_ball(wp))
            if out.rad == fzero:
                return Ball(out.mid, out.rad, prec)
            if out.mid != fzero:
                rel_ok = mpf_cmp(
                    out.rad, mpf_shift(mpf_abs(out.mid), 2 - prec)) <= 0
                if rel_ok:
                    return Ball(out.mid, out.rad, prec)
            wp *= 2
        raise ArithmeticError(
            "surd conversion failed to reach relative accuracy "
            f"(prec={prec}); is the value zero?")

    @staticmethod
    def _from_endpoint_tuples(lo, hi, prec: int) -> "Ball":
        cmp = mpf_cmp(lo, hi)
        if cmp > 0:
            raise ValueError("endpoint order violated")
        if cmp == 0:
            return Ball(lo, fzero, prec)
        mid = mpf_shift(mpf_add(lo, hi, prec, round_nearest), -1)
        half = mpf_shift(mpf_sub(hi, lo, _RADP, round_up), -1)
        rad = _up(half, _eps(mid, prec))
        return Ball(mid, rad, prec)

    # ---------------- bounds and predicates ----------------

    def lo(self):
        """A lower bound of the enclosure (raw mpf tuple)."""
        return mpf_sub(self.mid, self.rad, self.prec + 10, round_floor)

    def hi(self):
        return mpf_add(self.mid, self.rad, self.prec + 10, round_ceiling)

    def abs_hi(self):
        """Upper bound of |x| over the ball."""
        return mpf_add(mpf_abs(self.mid), self.rad, _RADP, round_up)

    def abs_lo(self):
        """Lower bound of |x| over the ball (0 if the ball straddles 0)."""
        v = mpf_sub(mpf_abs(self.mid), self.rad, self.prec + 10, round_floor)
        return v if mpf_cmp(v, fzero) > 0 else fzero

    def is_positive(self) -> bool:
        """True when every point of the ball is > 0."""
        return mpf_cmp(self.lo(), fzero) > 0

    def is_negative(self) -> bool:
        return mpf_cmp(self.hi(), fzero) < 0

    def definitely_less_than(self, other: "Ball") -> bool:
        return mpf_cmp(self.hi(), other.lo()) < 0

    def overlaps(self, other: "Ball") -> bool:
        """True unless the enclosures are strictly disjoint (ties overlap)."""
        return not (self.definitely_less_than(other)
                    or other.definitely_less_than(self))

    def mid_fraction(self) -> Fraction:
        """The midpoint as an exact rational (mpf values are dyadic)."""
        p, q = to_rational(self.mid)
        return Fraction(int(p), int(q))

    def rad_fraction(self) -> Fraction:
        p, q = to_rational(self.rad)
        return Fraction(int(p), int(q))

    def to_interval_fractions(self) -> tuple[Fraction, Fraction]:
        pl, ql = to_rational(self.lo())
        ph, qh = to_rational(self.hi())
        return Fraction(int(pl), int(ql)), Fraction(int(ph), int(qh))

    def mid_str(self, digits: int) -> str:
        return to_str(self.mid, digits)

    def rad_str(self, digits: int = 3) -> str:
        return to_str(self.rad, digits)

    def __repr__(self) -> str:
        return f"Ball({to_str(self.mid, 12)} +/- {to_str(self.rad, 3)}, prec={self.prec})"

    # ---------------- arithmetic ----------------

    def _coerce(self, other):
        if isinstance(other, Ball):
            return other
        if isinstance(other, (int, Fraction)):
            return Ball.from_fraction(other, self.prec)
        if isinstance(other, SurdQ5):
            return Ball.from_surd(other, self.prec)
        return None

    def __neg__(self) -> "Ball":
        return Ball(mpf_neg(self.mid), self.rad, self.prec)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if self.rad == fzero and o.rad == fzero:
            # exact + exact stays exact (prec 0 means no rounding), so
            # cancellations such as 1 - x*x at x = 1 yield a true zero
            mid = mpf_add(self.mid, o.mid, 0, round_nearest)
            if _man_bits(mid) <= 4 * prec:
                return Ball(mid, fzero, prec)
        mid = mpf_add(self.mid, o.mid, prec, round_nearest)
        rad = _up(_up(self.rad, o.rad), _eps(mid, prec))
        return Ball(mid, rad, prec)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        if self.rad == fzero and o.rad == fzero:
            mid = mpf_mul(self.mid, o.mid, 0, round_nearest)
            if _man_bits(mid) <= 4 * prec:
                return Ball(mid, fzero, prec)
        mid = mpf_mul(self.mid, o.mid, prec, round_nearest)
        rad = _upmul(mpf_abs(self.mid), o.rad)
        rad = _up(rad, _upmul(mpf_abs(o.mid), self.rad))
        rad = _up(rad, _upmul(self.rad, o.rad))
        rad = _up(rad, _eps(mid, prec))
        return Ball(mid, rad, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        yl, yh = o.lo(), o.hi()
        if mpf_cmp(yl, fzero) <= 0 and mpf_cmp(yh, fzero) >= 0:
            raise DomainError("division by an interval containing zero")
        xl, xh = self.lo(), self.hi()
        wp = prec + 10
        cands_lo = [mpf_div(a, b, wp, round_floor)
                    for a in (xl, xh) for b in (yl, yh)]
        cands_hi = [mpf_div(a, b, wp, round_ceiling)
                    for a in (xl, xh) for b in (yl, yh)]
        lo = min(cands_lo, key=_mpf_key)
        hi = max(cands_hi, key=_mpf_key)
        return Ball._from_endpoint_tuples(lo, hi, prec)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def mul_2exp(self, k: int) -> "Ball":
        """Exact scaling by 2^k."""
        return Ball(mpf_shift(self.mid, k), mpf_shift(self.rad, k), self.prec)

    def pow_int(self, k: int) -> "Ball":
        if k < 0:
            return Ball.from_int(1, self.prec) / self.pow_int(-k)
        out = Ball.from_int(1, self.prec)
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # ---------------- monotone elementary functions ----------------

    def _monotone(self, f, check):
        lo_t, hi_t = self.lo(), self.hi()
        check(lo_t, hi_t)
        wp = self.prec + 10
        flo = f(lo_t, wp, round_floor)
        fhi = f(hi_t, wp, round_ceiling)
        # one extra outward ulp on each side, beyond the directed rounding
        flo = mpf_sub(flo, _ulp(flo, wp), wp, round_floor)
        fhi = mpf_add(fhi, _ulp(fhi, wp), wp, round_ceiling)
        return Ball._from_endpoint_tuples(flo, fhi, self.prec)

    def sqrt(self) -> "Ball":
        def check(lo_t, hi_t):
            if mpf_cmp(lo_t, fzero) < 0:
                raise DomainError("sqrt of an interval reaching below zero")
        return self._monotone(mpf_sqrt, check)

    def ln(self) -> "Ball":
        def check(lo_t, hi_t):
            if mpf_cmp(lo_t, fzero) <= 0:
                raise DomainError("log of an interval reaching zero or below")
        return self._monotone(mpf_log, check)

    def exp(self) -> "Ball":
        return self._monotone(mpf_exp, lambda lo_t, hi_t: None)

    def asin(self) -> "Ball":
        def check(lo_t, hi_t):
            if mpf_cmp(lo_t, from_int(-1)) < 0 or mpf_cmp(hi_t, fone) > 0:
                raise DomainError("asin of an interval outside [-1, 1]")
        return self._monotone(mpf_asin, check)

    # ---------------- set operations ----------------

    def union(self, other: "Ball") -> "Ball":
        prec = min(self.prec, other.prec)
        lo = min(self.lo(), other.lo(), key=_mpf_key)
        hi = max(self.hi(), other.hi(), key=_mpf_key)
        return Ball._from_endpoint_tuples(lo, hi, prec)

    def widened(self, extra_rad) -> "Ball":
        """Ball with radius increased by a nonnegative mpf tuple."""
        return Ball(self.mid, _up(self.rad, extra_rad), self.prec)


def _mpf_key(t):
    """Total-order key for raw mpf tuples (finite values only)."""
    return _MpfCmp(t)


class _MpfCmp:
    __slots__ = ("t",)

    def __init__(self, t):
        self.t = t

    def __lt__(self, other):
        return mpf_cmp(self.t, other.t) < 0


def _ulp(x, prec):
    if x == fzero:
        return fzero
    return mpf_shift(mpf_abs(x), -prec)


def ball_sum(balls, prec: int) -> Ball:
    out = Ball.zero(prec)
    for b in balls:
        out = out + b
    return out


# ====================================================================
# Named constants
# ====================================================================

class ConstantName(enum.Enum):
    PI = "pi"
    LN2 = "ln2"
    CATALAN_G = "catalan_g"
    ZETA3 = "zeta3"
    SQRT5 = "sqrt5"
    ALPHA = "alpha"
    ZETA2 = "zeta2"


_CONSTANT_CACHE: dict[tuple[ConstantName, int], Ball] = {}
_CONSTANT_LOCK = threading.Lock()


def constant(name: ConstantName, prec: int) -> Ball:
    """Enclosure of a named constant with rad <= 2^(2-prec) |mid|."""
    name = ConstantName(name)
    key = (name, prec)
    cached = _CONSTANT_CACHE.get(key)
    if cached is not None:
        return cached
    with _CONSTANT_LOCK:
        cached = _CONSTANT_CACHE.get(key)
        if cached is not None:
            return cached
        ball = _COMPUTE[name](prec)
        hi_rad = _upmul(mpf_shift(mpf_abs(ball.mid), 2 - prec), fone)
        if mpf_cmp(ball.rad, hi_rad) > 0:
            raise ArithmeticError(f"constant {name} failed its radius contract")
        _CONSTANT_CACHE[key] = ball
        return ball


def _directed_const(f, prec):
    lo = f(prec + 10, round_floor)
    hi = f(prec + 10, round_ceiling)
    return Ball._from_endpoint_tuples(lo, hi, prec)


def _pi_ball(prec):
    return _directed_const(mpf_pi, prec)


def _ln2_ball(prec):
    return _directed_const(mpf_ln2, prec)


def _euler_gamma_ball(prec):
    # Internal helper for harmonic-number asymptotics; not a registry constant.
    return _directed_const(mpf_euler, prec)


def _sqrt5_ball(prec):
    wp = prec + 10
    five = from_int(5)
    lo = mpf_sqrt(five, wp, round_floor)
    hi = mpf_sqrt(five, wp, round_ceiling)
    return Ball._from_endpoint_tuples(lo, hi, prec)


def _alpha_ball(prec):
    return (_sqrt5_ball(prec + 10) + 1).mul_2exp(-1)


class _Row(NamedTuple):
    """A summed constant: scale * sum_{n>=1} (+-1)^(n-1) t_n, with
    t_1 = ``t1`` and t_{n+1} = t_n A(n)/B(n)."""

    t1: Fraction
    A: Callable[[int], int]
    B: Callable[[int], int]
    alternating: bool
    scale: Fraction


#: B - 4A, Taylor-shifted to n = 1, has only positive coefficients in
#: every row, so A(n)/B(n) < 1/4 for every n >= 1 (see the module
#: docstring); the kernel still checks it exactly at each summed n.
_ROWS = {
    # Lupas: G = 2^-6 sum (-1)^(n-1) 2^(8n) (40n^2-24n+3) (n!)^2 ((2n)!)^3
    #                     / (n^3 (2n-1) ((4n)!)^2)
    ConstantName.CATALAN_G: _Row(
        Fraction(608, 9),
        lambda n: 32 * n ** 3 * (2 * n - 1) * (40 * n * n + 56 * n + 19),
        lambda n: ((4 * n + 1) * (4 * n + 3)) ** 2 * (40 * n * n - 24 * n + 3),
        True, Fraction(1, 64)),
    # zeta(3) = (5/2) sum (-1)^(n-1) / (n^3 C(2n,n))
    ConstantName.ZETA3: _Row(
        Fraction(1, 2), lambda n: n ** 3,
        lambda n: 2 * (n + 1) ** 2 * (2 * n + 1), True, Fraction(5, 2)),
    # zeta(2) = 3 sum 1 / (n^2 C(2n,n)), independent of pi
    ConstantName.ZETA2: _Row(
        Fraction(1, 2), lambda n: n * n,
        lambda n: 2 * (n + 1) * (2 * n + 1), False, Fraction(3)),
}


def _summed_ball(name: ConstantName, prec: int) -> Ball:
    """Sum one row of ``_ROWS`` in fixed point at scale 2^wp, with an
    ulp error counter on the running term.

    The sum stops at the first term t with t <= et.  The true term is
    then at most t + et, and with every later ratio below 1/4 the true
    tail is below et + 2 for an alternating row and below t + et + 2
    for a positive one; the error bound takes that on.  The scale is
    applied after summing, its denominator a power of two.
    """
    row = _ROWS[name]
    wp = prec + 30
    t, et = (row.t1.numerator << wp) // row.t1.denominator, 1
    s, es = 0, 0
    n = 1
    while True:
        s += -t if row.alternating and n % 2 == 0 else t
        es += et
        if t <= et:
            es += et + 2 if row.alternating else t + et + 2
            break
        a, b = row.A(n), row.B(n)
        if 4 * a >= b:
            raise ArithmeticError(
                f"{name.value}: term ratio {a}/{b} is not below 1/4 at n={n}")
        t = t * a // b
        et = et * a // b + 2
        n += 1
    k, d = row.scale.numerator, row.scale.denominator
    return _fixed_to_ball(k * s, k * es, wp, prec).mul_2exp(
        1 - d.bit_length())


def _fixed_to_ball(s: int, es: int, wp: int, prec: int) -> Ball:
    """Ball of s 2^-wp whose error is at most es units of 2^-wp."""
    mid = from_man_exp(s, -wp, prec + 10, round_nearest)
    rad = _up(from_man_exp(es + 1, -wp), _eps(mid, prec + 10))
    return Ball(mid, rad, prec)


_COMPUTE = {
    ConstantName.PI: _pi_ball,
    ConstantName.LN2: _ln2_ball,
    ConstantName.SQRT5: _sqrt5_ball,
    ConstantName.ALPHA: _alpha_ball,
    **{name: partial(_summed_ball, name) for name in _ROWS},
}
