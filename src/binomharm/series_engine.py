"""Series summation engine: term streams, tail bounds, rigorous sums.

:func:`series_from`, the one constructor, turns a :class:`TermRecipe`
into (stream, tail), or two into Theorem 2.4's composite pair.

A :class:`HarmonicStream` holds a series as data: t_n = U_n D_n with
U_{n+1} = U_n x A(n)/B(n) for a point x of Q or Q(sqrt5), integer
polynomials A, B as ascending coefficient tuples, and D the harmonic
factor of a kind in :data:`HARMONIC_KINDS` (D_1 and the increment
D_{n+1} - D_n as a pair of integer polynomials).  :class:`Thm24Stream`
combines two of them.  ``iter_exact`` is the exact reference route;
``stream.cursor(prec)`` runs one resumable fixed-point kernel (integers
at scale 2^p with ulp error counters, step polynomials evaluated up to
64 indices at a time), whose ``advance(N)`` carries the sum on to N, so
a sum steps each index once across its cuts.

A :class:`TailStrategy` encloses the tail past a cut N.  The
Euler-Maclaurin tails (:class:`AsymptoticTail`, and :class:`Thm24Tail`
for Theorem 2.4) plan their sums from the tolerance: one cut N shared
by every such tail, and the degree J each one's weight needs there
(:func:`_emtail.plan`).  A :class:`GeometricTail` derives its ratio
bound Q from the stream's A/B tuples, harmonic kind and a bound on |x|,
and proves |t_{n+1}| <= Q |t_n| for every n >= N, and the declared sign
pattern, as signs of integer polynomials (:func:`intpoly.first_negative`)
before it returns a ball.  :func:`sum_to_precision` proves Q at the
first cut and jumps to the cut where the tail |t_N| Q/(1 - Q), shrinking
by Q per term, meets the tolerance.  A refuted claim raises
:class:`TailHypothesisViolation` at the least failing n; a stream or
value the proof cannot read exactly raises TypeError.

Streams, tails and :class:`SumResult` are frozen dataclasses: two
recipes that build the same series build equal, hash-equal streams and
tails, and a sum is a value that can be handed to every caller.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from mpmath.libmp import fzero, mpf_cmp, to_rational

from . import _emtail
from ._emtail import HARMONIC_KINDS, TermRecipe
from .ball_arith import (Ball, ConstantName, DomainError, constant,
                         _fixed_to_ball, _up)
from .exact_core import SurdQ5, harmonic
from .intpoly import (_trim, first_negative, lead_sign, padd, peval, pmul,
                      pscale, pvalues, reduce_ratio, taylor_shift)

__all__ = [
    "SignPattern",
    "HARMONIC_KINDS",
    "TermRecipe",
    "series_from",
    "TermStream",
    "HarmonicStream",
    "Thm24Stream",
    "TailStrategy",
    "GeometricTail",
    "AsymptoticTail",
    "Thm24Tail",
    "TailHypothesisViolation",
    "PrecisionNotReached",
    "SumResult",
    "sum_to_precision",
    "empirical_tail_check",
]


class SignPattern(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ALTERNATING = "alternating"
    UNKNOWN = "unknown"


class TailHypothesisViolation(ArithmeticError):
    """A declared tail hypothesis was definitely violated by actual terms."""


class PrecisionNotReached(ArithmeticError):
    """The requested digits could not be certified within the term budget."""

    def __init__(self, message, best: Optional[Ball] = None,
                 n_terms: int = 0, requested_digits: int = 0):
        super().__init__(message)
        self.best = best
        self.n_terms = n_terms
        self.requested_digits = requested_digits


def _fraction_of(t) -> Fraction:
    """Exact Fraction of a raw (dyadic) mpf tuple."""
    p, q = to_rational(t)
    return Fraction(int(p), int(q))


@functools.lru_cache(maxsize=None)
def _d_at(kind: str, first: int, m: int) -> Fraction:
    """D_m of a stream of harmonic kind ``kind`` that starts at index
    ``first``: D_first plus the increments from first to m - 1."""
    hk = HARMONIC_KINDS[kind]
    return hk.first + sum((hk.delta(n) for n in range(first, m)), Fraction(0))


def d_value(kind: str, n: int) -> Fraction:
    """Direct (cache-based) value of the harmonic factor, for crosschecks."""
    if kind == "1":
        return Fraction(1)
    if kind == "H":
        return harmonic(n)
    if kind == "HD":
        return harmonic(2 * n) - harmonic(n)
    if kind == "HDM":
        return harmonic(2 * n - 1) - harmonic(n)
    if kind == "H2N":
        return harmonic(2 * n)
    if kind == "HD_HALF":
        return harmonic(2 * n) - harmonic(n) / 2
    raise ValueError(f"unknown harmonic kind {kind!r}")


# --------------------------------------------------------------------
# Term streams
# --------------------------------------------------------------------

class TermStream:
    """Base class; subclasses define exact term recurrences."""

    first_index: int = 1
    sign: SignPattern = SignPattern.UNKNOWN

    def iter_exact(self) -> Iterator[tuple[int, object]]:
        raise NotImplementedError

    def term(self, n: int):
        """Exact n-th term (linear cost; intended for spot checks)."""
        for k, t in self.iter_exact():
            if k == n:
                return t
            if k > n:
                break
        raise IndexError(f"index {n} before stream start")

    def partial_sum_exact(self, N: int):
        total = None
        for n, t in self.iter_exact():
            if n > N:
                break
            total = t if total is None else total + t
        if total is None:
            total = Fraction(0)
        return total

    def cursor(self, prec: int):
        """A fresh kernel state at precision ``prec``, before the first
        term; see :class:`_HarmonicCursor`."""
        raise NotImplementedError

    def partial_sum(self, N: int, prec: int) -> tuple[Ball, Ball]:
        """(sum of terms up to N, last term) as balls, on the fixed-point
        kernel."""
        return self.cursor(prec).advance(N)


def _to_fixed(v, p: int) -> tuple[int, int]:
    """(m, e): m * 2^-p is within e * 2^-p of the exact value v.

    v is a Fraction or an element a + b sqrt5 of Q(sqrt5); the surd part
    is taken exactly as floor(|B| sqrt5 2^p) = isqrt(5 B^2 4^p).
    """
    if isinstance(v, SurdQ5):
        den = math.lcm(v.a.denominator, v.b.denominator)
        A = v.a.numerator * (den // v.a.denominator)
        B = v.b.numerator * (den // v.b.denominator)
        r = math.isqrt(5 * B * B << 2 * p)
        return ((A << p) + (r if B >= 0 else -r)) // den, 2
    v = Fraction(v)
    return (v.numerator << p) // v.denominator, 1


@dataclass(frozen=True)
class HarmonicStream(TermStream):
    """t_n = U_n * D_n; U by an exact step ratio, D incremental.

    U_first = seed and U_{n+1} = U_n * point * A(n) / B(n), with
    ``point`` an exact element of Q or Q(sqrt5) and A, B integer
    polynomials given as ascending coefficient tuples, B(n) != 0 for
    n >= first_index.  D_n is the harmonic factor named by ``kind``, a
    key of :data:`HARMONIC_KINDS`.

    The fixed-point kernel keeps U and D as integers at scale 2^p with
    ulp error counters and evaluates A, B and the increment of D on
    plain ints.  A rational point p/q is folded into the step as
    A(n) p / (B(n) q); the pair needs no reduction, since the floor
    of u a / b and the error counter ceil(e |a| / b) depend only on
    the value a/b once b > 0.  An irrational point is one fixed-point
    integer floor(point 2^p) with a 2-ulp error, so a Q(sqrt5) stream
    costs one extra big-integer product per term.
    """

    seed: Fraction | SurdQ5
    A: tuple
    B: tuple
    kind: str = "1"
    point: Fraction | SurdQ5 = Fraction(1)
    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1

    def ratio(self, n: int) -> Fraction:
        """The exact step ratio r(n) = A(n) / B(n)."""
        return Fraction(peval(self.A, n), peval(self.B, n))

    def iter_exact(self):
        u = self.seed if isinstance(self.seed, SurdQ5) else Fraction(self.seed)
        hk = HARMONIC_KINDS[self.kind]
        d = hk.first
        n = self.first_index
        while True:
            yield n, u * d
            u = u * (self.point * self.ratio(n))
            d = d + hk.delta(n)
            n += 1

    def cursor(self, prec: int) -> "_HarmonicCursor":
        return _HarmonicCursor(self, prec)


# indices per block of step-polynomial values in _HarmonicCursor.advance:
# enough to spread the cost of each pvalues call, few enough that the
# value lists stay small
_BLOCK = 64


class _HarmonicCursor:
    """The fixed-point kernel of one :class:`HarmonicStream` as a
    resumable state: U, D, the running sum S and the last term T as
    integers at scale 2^p, each with its ulp error counter, and n, the
    next index to add.

    ``advance(N)`` adds the terms up to N and returns (S, T) as balls.
    It evaluates A(n) xn, B(n) xd and the increment of D with
    :func:`intpoly.pvalues`, up to :data:`_BLOCK` indices per call and
    never past N, and steps through those values one index at a time.
    The loop is deterministic, so its state after advance(N) is the one
    a loop started at first_index reaches at N: advancing through the
    cuts N1 <= N2 <= ... returns, bit for bit, what a fresh sum to each
    cut returns, and steps every index once.  A cut below the last one
    raises ValueError, since a sum cannot be undone.
    """

    def __init__(self, stream: HarmonicStream, prec: int):
        A, B = stream.A, stream.B
        if not all(isinstance(c, int) for c in A + B):
            # a float would flow through u a // b and void the error count
            raise TypeError("the step ratio needs integer coefficients")
        self.prec = prec
        self.p = p = prec + 40
        self.A, self.B = A, B
        self.u, self.eu = _to_fixed(stream.seed, p)
        if isinstance(stream.point, SurdQ5):
            self.x, self.ex = _to_fixed(stream.point, p)
            self.xn = self.xd = 1
        else:
            self.x = self.ex = None
            point = Fraction(stream.point)
            self.xn, self.xd = point.numerator, point.denominator
        hk = HARMONIC_KINDS[stream.kind]
        self.dnum, self.dden = hk.increment
        self.trivial = stream.kind == "1"
        self.d, self.ed = _to_fixed(hk.first, p)
        self.s = self.es = self.t = self.et = 0
        self.n = stream.first_index
        self.cut = None

    def advance(self, N: int) -> tuple[Ball, Ball]:
        if self.cut is not None and N < self.cut:
            raise ValueError(f"cannot advance back from {self.cut} to {N}")
        self.cut = N
        p, A, B, xn, xd = self.p, self.A, self.B, self.xn, self.xd
        x, ex, dnum, dden = self.x, self.ex, self.dnum, self.dden
        trivial = self.trivial
        u, eu, d, ed = self.u, self.eu, self.d, self.ed
        s, es, t, et = self.s, self.es, self.t, self.et
        n = self.n
        while n <= N:
            # the step polynomials a block at a time, clipped at N
            hi = min(n + _BLOCK - 1, N)
            avals = pvalues(A, n, hi, xn)
            bvals = pvalues(B, n, hi, xd)
            if trivial:
                nums = dens = avals  # unread: D stays 1
            else:
                nums = pvalues(dnum, n, hi)
                dens = pvalues(dden, n, hi)
            for a, b, dn, dd in zip(avals, bvals, nums, dens):
                if trivial:
                    t, et = u, eu
                else:
                    t = (u * d) >> p
                    et = ((abs(u) * ed + abs(d) * eu + eu * ed) >> p) + 2
                s += t
                es += et
                if x is not None:
                    eu = ((abs(u) * ex + abs(x) * eu + eu * ex) >> p) + 2
                    u = (u * x) >> p
                if b < 0:
                    a, b = -a, -b
                u = u * a // b
                eu = (eu * abs(a) + b - 1) // b + 1
                if not trivial:
                    d += (dn << p) // dd
                    ed += 1
            n = hi + 1
        self.u, self.eu, self.d, self.ed = u, eu, d, ed
        self.s, self.es, self.t, self.et = s, es, t, et
        self.n = n
        return (_fixed_to_ball(s, es, p, self.prec),
                _fixed_to_ball(t, et, p, self.prec))


@dataclass(frozen=True)
class Thm24Stream(TermStream):
    """Composite stream t_n = U_n D_n (pi/2 - W_n).

    U_n = Cat(n) / (4^n (2n+1)), D_n = H_{2n} - H_n/2,
    W_n = (2n)!! / (2n+1)!!.  The two rational sums Sa = sum U D
    (stream ``sa``) and Sb = sum U D W (stream ``sb``) are kept apart
    as two harmonic streams, so pi enters exactly once, at combination
    time.
    """

    sa: HarmonicStream
    sb: HarmonicStream
    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1

    def iter_exact(self):
        # Terms involve pi and are not exact; exact iteration yields the
        # rational pair (U D, U D W) packed as a tuple for internal use.
        for (n, a), (_, b) in zip(self.sa.iter_exact(), self.sb.iter_exact()):
            yield n, (a, b)

    def cursor(self, prec: int) -> "_Thm24Cursor":
        return _Thm24Cursor(self.sa.cursor(prec), self.sb.cursor(prec),
                            constant(ConstantName.PI, prec).mul_2exp(-1))


class _Thm24Cursor(NamedTuple):
    """The two component cursors of a :class:`Thm24Stream`, combined
    with pi/2 at each cut."""

    sa: _HarmonicCursor
    sb: _HarmonicCursor
    half_pi: Ball

    def advance(self, N: int) -> tuple[Ball, Ball]:
        sa, ud_last = self.sa.advance(N)
        sb, _ = self.sb.advance(N)
        # the last combined term; W_N < 1 so |t_N| <= U D * pi/2
        return self.half_pi * sa - sb, ud_last * self.half_pi


# --------------------------------------------------------------------
# Tail strategies
# --------------------------------------------------------------------

def _signed_tail_ball(bound_hi: Fraction, sign: SignPattern, prec: int) -> Ball:
    """Center a magnitude bound according to the stream's sign pattern."""
    b = Ball.from_fraction(bound_hi, prec)
    if sign is SignPattern.POSITIVE:
        half = b.mul_2exp(-1)
        return Ball(half.mid, _up(half.rad, half.abs_hi()), prec)
    if sign is SignPattern.NEGATIVE:
        half = (-b).mul_2exp(-1)
        return Ball(half.mid, _up(half.rad, half.abs_hi()), prec)
    return Ball(fzero, b.abs_hi(), prec)


class TailStrategy:
    kind = "abstract"

    def tail_ball(self, stream: TermStream, N: int, prec: int,
                  t_last: Optional[Ball],
                  tol: Optional[Fraction] = None) -> Optional[Ball]:
        """Enclosure of sum_{n>N} t_n, or None if no bound is available yet.

        ``tol`` is the radius a planned sum needs, the one ``plan_terms``
        solved N for; a strategy that plans sizes its enclosure by it."""
        raise NotImplementedError

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        """Predetermined N when the strategy can solve for it, else None."""
        return None


def _exact_sign(v) -> int:
    """Sign of an exact value of Q or Q(sqrt5); TypeError otherwise."""
    if isinstance(v, SurdQ5):
        return v.sign()
    if isinstance(v, (int, Fraction)):
        return (v > 0) - (v < 0)
    raise TypeError(f"the sign of a {type(v).__name__} cannot be decided "
                    f"exactly")


def _holds_from(c: tuple, N: int, claim: str) -> None:
    """Prove c(n) >= 0 for every integer n >= N, or raise the least
    integer where it fails."""
    n = first_negative(c, N)
    if n is not None:
        raise TailHypothesisViolation(f"{claim} fails at n={n}")


_Q_BITS = 32        # significant bits of a derived Q
_D_INDEX_MAX = 64   # D_lo is D at min(N, this): exact, cached, cheap
_RETRIES = 8        # witnesses re-derived before a cut is left unproven


@dataclass(frozen=True)
class GeometricTail(TailStrategy):
    """|t_{n+1}| <= Q |t_n| for every n >= N, with Q < 1 derived from the
    stream and proven; the tail is |t_N| Q / (1 - Q), centred on [0, b]
    or [-b, 0] when the stream declares its terms POSITIVE or NEGATIVE.

    Here t_{n+1} / t_n = x A(n)/B(n) D_{n+1}/D_n.  D's increment
    num/den is >= 0 (num >= 0, den >= 1 from first_index on), so
    D_n >= D_lo = p/q, D at index min(N, 64), and D_{n+1}/D_n <=
    1 + delta(n)/D_lo for n >= N.  :meth:`ratio` derives Q = xbar
    max(|A(N)/B(N)|, lim |A/B|) (1 + delta(N)/D_lo), rounded up to 32
    significant bits, and, with A and B of one sign on [N, inf), proves

        Q.num xbar.den |B(n)| p den(n)
            - Q.den xbar.num |A(n)| (p den(n) + q num(n)) >= 0

    for every n >= N.  Where |A/B| climbs past its value at N, the proof
    returns the least failing n, and Q derived at that n is proven
    again.  A POSITIVE (NEGATIVE) declaration is proven from seed > 0
    (< 0), x > 0, A(n) B(n) > 0 for n >= first_index, and D > 0.

    ``point_bound`` is xbar >= |x|, by default |x| for a rational point
    and the upper end of a 128-bit enclosure of an irrational one; it is
    checked by one exact sign in Q(sqrt5).
    """

    point_bound: Optional[Fraction] = None
    kind = "geometric"

    def tail_ball(self, stream, N, prec, t_last, tol=None):
        q = self.ratio(stream, N)
        return None if q is None else self.bound(stream, q, t_last, prec)

    @staticmethod
    def bound(stream, q: Fraction, t_last: Ball, prec: int) -> Ball:
        """The tail past the cut of ``t_last`` for a proven ratio q."""
        t_hi = _fraction_of(t_last.abs_hi())
        return _signed_tail_ball(t_hi * q / (1 - q), stream.sign, prec)

    def ratio(self, stream, N: int,
              claim: Optional[Fraction] = None) -> Optional[Fraction]:
        """A Q proven to bound |t_(n+1)/t_n| for every n >= N, or None:
        ``claim`` if given (refuted: TailHypothesisViolation at the least
        failing n), else the derived Q, derived again at each witness."""
        derive, first_failure = self._step_proof(stream, N)
        q = derive(N) if claim is None else claim
        for _ in range(_RETRIES):
            if q is None:
                return None
            n = first_failure(q)
            if n is None:
                return q
            if claim is not None:
                raise TailHypothesisViolation(f"|t_(n+1)| <= {q} |t_n| "
                                              f"fails at n={n}")
            q = derive(n)
        return None

    def _xbar(self, point) -> Fraction:
        """A proven rational bound xbar >= |point|."""
        xbar = self.point_bound
        if xbar is None:
            xbar = (Ball.from_surd(abs(point), 128).to_interval_fractions()[1]
                    if isinstance(point, SurdQ5) else abs(point))
        if not isinstance(xbar, (int, Fraction)):
            raise TypeError(f"point_bound is a {type(xbar).__name__}, not an "
                            f"exact rational")
        if _exact_sign(xbar - abs(point)) < 0:
            raise TailHypothesisViolation(f"point bound {xbar} is below "
                                          f"|x| = {abs(point)}")
        return Fraction(xbar)

    def _step_proof(self, stream, N: int):
        """Prove the hypotheses of the step claim for n >= N and the
        declared sign, and return (derive, first_failure): the derived Q
        at an index n (None unless below 1), and the least n >= N where
        the claim for a given Q fails (None if none does)."""
        if not isinstance(stream, HarmonicStream):
            raise TypeError(f"{type(stream).__name__} has no exact step "
                            f"ratios to prove a geometric tail on")
        A, B, first = stream.A, stream.B, stream.first_index
        num, den = HARMONIC_KINDS[stream.kind].increment
        m = max(first, min(N, _D_INDEX_MAX))
        d_lo = _d_at(stream.kind, first, m)
        p, q = d_lo.numerator, d_lo.denominator
        if p <= 0:
            raise TypeError(f"harmonic kind {stream.kind!r} has D = {d_lo} "
                            f"at n={m}, so D_(n+1)/D_n has no bound")
        _holds_from(num, first, "the harmonic increment's numerator >= 0")
        _holds_from(padd(den, (-1,)), first,
                    "the harmonic increment's denominator >= 1")
        sa, sb = lead_sign(A), lead_sign(B)
        _holds_from(pscale(sa, A), N, "A(n) of one sign")
        _holds_from(padd(pscale(sb, B), (-1,)), N, "B(n) of one sign, nonzero")
        xbar = self._xbar(stream.point)
        want = {SignPattern.POSITIVE: 1,
                SignPattern.NEGATIVE: -1}.get(stream.sign)
        if want is not None:
            if (_exact_sign(stream.seed) != want
                    or _exact_sign(stream.point) <= 0):
                raise TailHypothesisViolation(
                    f"declared sign {stream.sign.value}: seed {stream.seed} "
                    f"of that sign and point {stream.point} > 0 fails at "
                    f"n={first}")
            _holds_from(padd(pmul(A, B), (-1,)), first,
                        f"declared sign {stream.sign.value}: A(n) B(n) > 0")
        lhs = pscale(xbar.denominator * p * sb, pmul(B, den))
        rhs = pscale(-xbar.numerator * sa,
                     pmul(A, padd(pscale(p, den), pscale(q, num))))
        # lim |A/B| as n -> oo; None when it is infinite
        a, b = _trim(A), _trim(B)
        lim = (None if len(a) > len(b) else Fraction(0) if len(a) < len(b)
               else abs(Fraction(a[-1], b[-1])))

        def derive(n: int) -> Optional[Fraction]:
            if lim is None:
                return None
            r = max(abs(Fraction(peval(A, n), peval(B, n))), lim)
            v = xbar * r * (1 + Fraction(peval(num, n), peval(den, n)) / d_lo)
            if v >= 1:
                return None
            # rounded up to _Q_BITS significant bits
            s = _Q_BITS + v.denominator.bit_length() - v.numerator.bit_length()
            v = Fraction(-((-v.numerator << s) // v.denominator), 1 << s)
            return v if v < 1 else None

        def first_failure(Q: Fraction) -> Optional[int]:
            if not isinstance(Q, (int, Fraction)):
                raise TypeError(f"Q is a {type(Q).__name__}, not an exact "
                                f"rational")
            return first_negative(padd(pscale(Q.numerator, lhs),
                                       pscale(Q.denominator, rhs)), N)

        return derive, first_failure


class _PlannedEmTail(TailStrategy):
    """An Euler-Maclaurin tail whose cut N and degree J are solved from
    the tolerance by :func:`_emtail.plan`: N is the one cut of every tail
    at that tolerance, and ``weight``, the tail's radius in units of one
    recipe's model radius, sets J.  A planned degree whose tail misses
    the tolerance gives way to the next degrees at the same cut, up to
    J_MAX, before the sum moves to a larger cut.  A call with no
    tolerance, such as a probe of :func:`empirical_tail_check`, runs at
    the largest degree; a cut below 32 gets no tail."""

    weight = Fraction(1)

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        return _emtail.plan(tol, self.weight)[0]

    def tail_ball(self, stream, N, prec, t_last, tol=None):
        if N < 32:
            return None
        if tol is None:
            return self._enclose(N, prec, _emtail.J_MAX)
        J = _emtail.plan(tol, self.weight)[1]
        tail = self._enclose(N, prec, J)
        while J < _emtail.J_MAX and tail.rad_fraction() > tol:
            J += 1
            tail = self._enclose(N, prec, J)
        return tail


@dataclass(frozen=True)
class AsymptoticTail(_PlannedEmTail):
    """Euler-Maclaurin tail for t_n = scale * R(n) b(n)^e D(n); see the
    private _emtail module for the machinery."""

    recipe: TermRecipe
    kind = "asymptotic"

    def _enclose(self, N, prec, J):
        return _emtail.tail_enclosure(self.recipe, N, prec, J)


@dataclass(frozen=True)
class Thm24Tail(_PlannedEmTail):
    """Composite tail (pi/2) * tailA - tailB for the double-factorial series."""

    recipe_a: TermRecipe
    recipe_b: TermRecipe
    kind = "asymptotic-composite"
    # the radius is (pi/2) rad A + rad B, and pi/2 + 1 < 13/5
    weight = Fraction(13, 5)

    def _enclose(self, N, prec, J):
        ta = _emtail.tail_enclosure(self.recipe_a, N, prec, J)
        tb = _emtail.tail_enclosure(self.recipe_b, N, prec, J)
        return constant(ConstantName.PI, prec).mul_2exp(-1) * ta - tb


# --------------------------------------------------------------------
# The one constructor: a term recipe to its stream and tail
# --------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _recipe_step(P: tuple, Q: tuple, e: int) -> tuple[tuple, tuple]:
    """P(n+1) Q(n) (4n+2)^e / (P(n) Q(n+1) (n+1)^e) in lowest terms."""
    return reduce_ratio(pmul(taylor_shift(P, 1), Q, *[(2, 4)] * e),
                        pmul(P, taylor_shift(Q, 1), *[(1, 1)] * e))


def _recipe_stream(r: TermRecipe) -> HarmonicStream:
    """The recipe's terms from n = 1: the C(2n,n) step at the point
    y/4^e, the seed t_1/D_1 = scale y P(1)/(Q(1) 2^e), and alternating
    signs when y < 0, else the seed's (which :class:`GeometricTail`
    proves)."""
    A, B = _recipe_step(r.P, r.Q, r.e)
    point = r.y * Fraction(1, 4 ** r.e)
    c = r.scale * Fraction(peval(r.P, 1) * 2 ** r.e, peval(r.Q, 1))
    sign = (SignPattern.ALTERNATING if _exact_sign(r.y) < 0
            else SignPattern.NEGATIVE if c < 0 else SignPattern.POSITIVE)
    return HarmonicStream(seed=point * c, A=A, B=B, kind=r.dkind,
                          point=point, sign=sign)


def series_from(*recipes: TermRecipe) -> tuple:
    """(stream, tail) of sum_{n>=1} t_n: a geometric tail when |y| < 1,
    Euler-Maclaurin when y = 1, else DomainError.  Theorem 2.4 passes
    the recipes of its components U D and U D W."""
    if len(recipes) == 2:
        return (Thm24Stream(*map(_recipe_stream, recipes)),
                Thm24Tail(*recipes))
    r, = recipes
    if _exact_sign(abs(r.y) - 1) < 0:
        return _recipe_stream(r), GeometricTail()
    if _exact_sign(r.y - 1) == 0:
        return _recipe_stream(r), AsymptoticTail(r)
    raise DomainError(f"the series {r.key} needs |y| < 1 or y = 1, not "
                      f"y = {r.y}")


# --------------------------------------------------------------------
# Rigorous summation
# --------------------------------------------------------------------

@dataclass(frozen=True)
class SumResult:
    value: Ball
    n_terms: int
    prec: int
    tail: Ball
    mode: str = "fixed"


def _tol_for(target_digits: int) -> Fraction:
    return Fraction(45, 100) / Fraction(10) ** target_digits


def sum_to_precision(stream: TermStream, strategy: TailStrategy,
                     target_digits: int, max_terms: int = 10 ** 7,
                     prec: Optional[int] = None) -> SumResult:
    """Enclose the series value with rad <= 0.45 * 10^-target_digits.

    Since the tolerance is taken relative to max(|mid|, 1) >= 1, the
    returned radius also satisfies rad <= 10^-target_digits * max(|mid|, 1).
    """
    from .ball_arith import working_precision
    if prec is None:
        prec = working_precision(target_digits)
    tol = _tol_for(target_digits)
    half_tol_ball = Ball.from_fraction(tol / 2, prec)
    # an empty sum proves nothing: its zero last term would give a zero
    # geometric tail, and so a zero-width enclosure of the value 0
    if max_terms < stream.first_index:
        raise PrecisionNotReached(
            f"term budget {max_terms} ends before the first term "
            f"(index {stream.first_index})",
            n_terms=0, requested_digits=target_digits)

    cursor = stream.cursor(prec)
    planned = strategy.plan_terms(tol / 2, max_terms)
    if planned is not None:
        # the last cut summed and its enclosure, kept for the report when
        # the budget runs out; no cut summed reports 0 terms
        best, best_n = None, 0
        N = planned
        while N <= max_terms:
            total, last = cursor.advance(N)
            tail = strategy.tail_ball(stream, N, prec, last, tol / 2)
            if tail is not None and mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
                return SumResult(total + tail, N, prec, tail)
            best, best_n = None if tail is None else total + tail, N
            N *= 4
        raise PrecisionNotReached(
            f"needs about {N} terms, budget is {max_terms}",
            best=best, n_terms=best_n, requested_digits=target_digits)

    # A geometric tail: prove Q at the first cut (doubling while no Q
    # below 1 is derived), then jump to the cut where |t_N| Q/(1 - Q),
    # shrinking at least by Q per term, meets the tolerance; predict
    # again on a miss.  A Q proven at N holds past every later cut.
    N, q = min(16, max_terms), None
    while True:
        total, last = cursor.advance(N)
        if q is None:
            q = strategy.ratio(stream, N)
        tail = None if q is None else strategy.bound(stream, q, last, prec)
        if tail is not None and mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
            return SumResult(total + tail, N, prec, tail)
        if N >= max_terms:
            raise PrecisionNotReached(
                f"tail bound still too large after {N} terms",
                best=None if tail is None else total + tail, n_terms=N,
                requested_digits=target_digits)
        N = min(max_terms, 2 * N if q is None
                else N + _steps_to(_fraction_of(tail.rad), tol / 2, q))


def _steps_to(rad: Fraction, tol: Fraction, q: Fraction) -> int:
    """The least k >= 1 with rad q^k <= tol, in floating point."""
    def ln(v: Fraction) -> float:
        return math.log(v.numerator) - math.log(v.denominator)
    return max(1, math.ceil((ln(rad) - ln(tol)) / -ln(q)))


def empirical_tail_check(stream: TermStream, strategy: TailStrategy,
                         probes=(32, 128, 512), prec: int = 160) -> list[dict]:
    """Compare each declared tail bound against observed partial-sum gaps.

    For each probe N the observed quantity |S(4N) - S(N)| must not
    definitely exceed the claimed bound for the tail at N.  Results are
    reported, never raised; a False entry is a finding, not a crash, and
    a tail hypothesis refuted at N is one, with its witness in ``note``.
    """
    cursor = stream.cursor(prec)
    sums = {n: cursor.advance(n) for n in sorted({*probes,
                                                  *(4 * N for N in probes)})}
    out = []
    for N in probes:
        s1, t1 = sums[N]
        diff = sums[4 * N][0] - s1
        try:
            tail = strategy.tail_ball(stream, N, prec, t1)
        except TailHypothesisViolation as exc:
            out.append({"N": N, "ok": False,
                        "observed": float(_fraction_of(diff.abs_lo())),
                        "bound": None,
                        "note": f"tail hypothesis violated: {exc}"})
            continue
        if tail is None:
            out.append({"N": N, "ok": None, "observed": None, "bound": None,
                        "note": "no bound available at this N"})
            continue
        observed_lo = _fraction_of(diff.abs_lo())
        bound_hi = _fraction_of(tail.abs_hi())
        ok = observed_lo <= bound_hi
        out.append({
            "N": N,
            "ok": bool(ok),
            "observed": float(observed_lo),
            "bound": float(bound_hi),
        })
    return out
