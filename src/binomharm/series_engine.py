"""Series summation engine: term streams, tail bounds, rigorous sums.

A :class:`TermStream` produces the terms of one series exactly, as
``Fraction`` or ``SurdQ5`` values.  :class:`HarmonicStream` holds every
series as data: t_n = U_n D_n with U_{n+1} = U_n x A(n)/B(n) for a
point x of Q or Q(sqrt5) and integer polynomials A, B given as
ascending coefficient tuples, and D the harmonic factor of a kind in
:data:`HARMONIC_KINDS`, the one table of D_first and of the increment
D_{n+1} - D_n as a pair of integer polynomials.  The composite
:class:`Thm24Stream` is built from two of them.  Exact iteration
(``iter_exact``, ``partial_sum_exact``) is the reference route for
tests; ``partial_sum`` runs one fixed-point kernel for every stream:
integers at scale 2^p with explicit ulp error counters, the polynomials
evaluated on plain ints, an irrational point held as one such integer.

The kernel is resumable: ``stream.cursor(prec)`` holds its state, and
``advance(N)`` carries it from the last cut on to N.  So
:func:`sum_to_precision` sums each index once per precision rung across
its checkpoints, and :func:`empirical_tail_check` once across its
probes; the balls are bit for bit those of a sum restarted at
first_index.  On the 44 geometric sums of perfbench's ``deep_digits``
workload at 200 digits the kernel now takes 26,336 steps, the sum of
the reported cuts, where restarting at every checkpoint took 51,968.
Each step reads its step-polynomial values from blocks of up to 64
indices, evaluated by :func:`intpoly.pvalues` (Horner over the whole
block) and clipped at the cut, in place of two ``peval`` calls per
index, four when D is not 1; the integers, and so the balls, are the
same.  On that workload this cut the kernel's time from about 0.104 to
0.086 s (one cold batch at seed 1, 2-core VM).

A :class:`TailStrategy` turns a truncation point N into a rigorous
enclosure of the discarded tail.  Three kinds exist: a geometric
envelope, an Euler-Maclaurin asymptotic expansion (the only one able to
certify 15+ digits for the n^{-3/2}- and n^{-2}-type series), and the
composite Euler-Maclaurin tail of Theorem 2.4.

A geometric tail at N is proven, not sampled: before it returns a ball,
:meth:`GeometricTail.tail_ball` proves |t_{n+1}| <= Q |t_n| for every
integer n >= N, with Q = sup_env(N), and the stream's declared sign
pattern for every n >= first_index.  Each claim is the sign of one
integer polynomial read off the stream's A/B tuples, its harmonic kind
and a rational bound on |x|, decided exactly by
:func:`intpoly.first_negative`.  A failed claim raises
:class:`TailHypothesisViolation` with the least failing n; a stream or
value the proof cannot read exactly raises TypeError instead of passing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from mpmath.libmp import fzero, mpf_cmp, to_rational

from .ball_arith import Ball, ConstantName, constant, _fixed_to_ball, _up
from .exact_core import SurdQ5, harmonic
from .intpoly import (first_negative, lead_sign, padd, peval, pmul, pscale,
                      pvalues)

__all__ = [
    "SignPattern",
    "HarmonicKind",
    "HARMONIC_KINDS",
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


# --------------------------------------------------------------------
# Harmonic-difference kinds: first value and increment of D_n
# --------------------------------------------------------------------

class HarmonicKind(NamedTuple):
    """D_first and the increment D_{n+1} - D_n = num(n) / den(n)."""

    first: Fraction
    num: tuple
    den: tuple

    def delta(self, n: int) -> Fraction:
        return Fraction(peval(self.num, n), peval(self.den, n))

    def step_bound(self, n: int) -> Fraction:
        """1 + delta(n) / first.  D increases (delta >= 0), so while
        first > 0, D_n >= first and D_{n+1}/D_n <= this bound."""
        p, q = self.first.numerator, self.first.denominator
        den = p * peval(self.den, n)
        return Fraction(den + q * peval(self.num, n), den)


HARMONIC_KINDS = {
    # the trivial factor D = 1
    "1": HarmonicKind(Fraction(1), (0,), (1,)),
    # H_n: H_1, 1/(n+1)
    "H": HarmonicKind(Fraction(1), (1,), (1, 1)),
    # H_2n - H_n: H_2 - H_1, 1/((2n+1)(2n+2))
    "HD": HarmonicKind(Fraction(1, 2), (1,), (2, 6, 4)),
    # H_{2n-1} - H_n: 0, 1/(2n) + 1/(2n+1) - 1/(n+1)
    "HDM": HarmonicKind(Fraction(0), (1, 3), (0, 2, 6, 4)),
    # H_2n: H_2, 1/(2n+1) + 1/(2n+2)
    "H2N": HarmonicKind(Fraction(3, 2), (3, 4), (2, 6, 4)),
    # H_2n - H_n/2: H_2 - H_1/2, 1/(2n+1)
    "HD_HALF": HarmonicKind(Fraction(1), (1,), (1, 2)),
}


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


@dataclass
class HarmonicStream(TermStream):
    """t_n = U_n * D_n; U by an exact step ratio, D incremental.

    U_first = seed and U_{n+1} = U_n * point * A(n) / B(n), with
    ``point`` an exact element of Q or Q(sqrt5) and A, B integer
    polynomials given as ascending coefficient tuples, B(n) != 0 for
    n >= first_index.  D_n is the harmonic factor named by ``kind``, a
    key of :data:`HARMONIC_KINDS`: 1 (D = 1), H, HD (H_{2n}-H_n),
    HDM (H_{2n-1}-H_n), H2N (H_{2n}), HD_HALF (H_{2n}-H_n/2).

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
        first, self.dnum, self.dden = HARMONIC_KINDS[stream.kind]
        self.trivial = stream.kind == "1"
        self.d, self.ed = _to_fixed(first, p)
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


@dataclass
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
                  t_last: Optional[Ball]) -> Optional[Ball]:
        """Enclosure of sum_{n>N} t_n, or None if no bound is available yet."""
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


@dataclass
class GeometricTail(TailStrategy):
    """|t_{n+1}| <= Q |t_n| for every n >= N, with Q = sup_env(N) < 1.

    Tail bound: |t_N| Q / (1 - Q), centred on [0, b] or [-b, 0] when the
    stream declares its terms POSITIVE or NEGATIVE.

    :meth:`tail_ball` returns a ball only once both hypotheses are
    proven for every integer n, with no cap on n.  For a harmonic stream
    t_{n+1} / t_n = x A(n)/B(n) D_{n+1}/D_n.  With D_first = p/q > 0 and
    increment delta = num/den >= 0 (num >= 0, den >= 1 from n =
    first_index on), D increases, so D_{n+1}/D_n <= 1 + delta(n)/D_first.
    With xbar >= |x| rational, and A and B each of one sign on [N, inf)
    with B != 0, the step claim follows from

        Q.num xbar.den |B(n)| p den(n)
            - Q.den xbar.num |A(n)| (p den(n) + q num(n)) >= 0,

    one integer polynomial decided for all n >= N.  A POSITIVE (NEGATIVE)
    declaration is proven from seed > 0 (< 0), x > 0, A(n) B(n) > 0 for
    n >= first_index, and D > 0.

    ``point_bound`` is xbar; a rational point may leave it None (xbar =
    |x|), an irrational one must give it, and xbar >= |x| is then
    decided by one exact sign in Q(sqrt5).
    """

    sup_env: Callable[[int], Fraction]
    point_bound: Optional[Fraction] = None
    kind = "geometric"

    def tail_ball(self, stream, N, prec, t_last):
        q = self.sup_env(N)
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"sup_env({N}) is a {type(q).__name__}, not an "
                            f"exact rational")
        if q >= 1:
            return None
        self._prove(stream, N, Fraction(q))
        t_hi = _fraction_of(t_last.abs_hi())
        bound = t_hi * q / (1 - q)
        return _signed_tail_ball(bound, stream.sign, prec)

    def _xbar(self, point) -> Fraction:
        """A proven rational bound xbar >= |point|."""
        xbar = self.point_bound
        if xbar is None:
            if not isinstance(point, (int, Fraction)):
                raise TypeError(f"a {type(point).__name__} point needs a "
                                f"rational point_bound")
            return abs(Fraction(point))
        if not isinstance(xbar, (int, Fraction)):
            raise TypeError(f"point_bound is a {type(xbar).__name__}, not an "
                            f"exact rational")
        if _exact_sign(xbar - abs(point)) < 0:
            raise TailHypothesisViolation(f"point bound {xbar} is below "
                                          f"|x| = {abs(point)}")
        return Fraction(xbar)

    def _prove(self, stream, N: int, Q: Fraction) -> None:
        if not isinstance(stream, HarmonicStream):
            raise TypeError(f"{type(stream).__name__} has no exact step "
                            f"ratios to prove a geometric tail on")
        A, B, first = stream.A, stream.B, stream.first_index
        d_first, num, den = HARMONIC_KINDS[stream.kind]
        p, q = d_first.numerator, d_first.denominator
        if p <= 0:
            raise TypeError(f"harmonic kind {stream.kind!r} starts at D = "
                            f"{d_first}, so D_(n+1)/D_n has no bound")
        _holds_from(num, first, "the harmonic increment's numerator >= 0")
        _holds_from(padd(den, (-1,)), first,
                    "the harmonic increment's denominator >= 1")
        sa, sb = lead_sign(A), lead_sign(B)
        _holds_from(pscale(sa, A), N, "A(n) of one sign")
        _holds_from(padd(pscale(sb, B), (-1,)), N, "B(n) of one sign, nonzero")
        xbar = self._xbar(stream.point)
        claim = padd(
            pscale(Q.numerator * xbar.denominator * p * sb, pmul(B, den)),
            pscale(-Q.denominator * xbar.numerator * sa,
                   pmul(A, padd(pscale(p, den), pscale(q, num)))))
        _holds_from(claim, N, f"|t_(n+1)| <= {Q} |t_n|")

        want = {SignPattern.POSITIVE: 1,
                SignPattern.NEGATIVE: -1}.get(stream.sign)
        if want is None:
            return
        if _exact_sign(stream.seed) != want or _exact_sign(stream.point) <= 0:
            raise TailHypothesisViolation(
                f"declared sign {stream.sign.value}: seed {stream.seed} of "
                f"that sign and point {stream.point} > 0 fails at n={first}")
        _holds_from(padd(pmul(A, B), (-1,)), first,
                    f"declared sign {stream.sign.value}: A(n) B(n) > 0")


@dataclass
class AsymptoticTail(TailStrategy):
    """Euler-Maclaurin tail for t_n = scale * R(n) b(n)^e D(n).

    Built lazily; see the private _emtail module for the machinery.
    """

    recipe: "object"              # _emtail.EmRecipe
    kind = "asymptotic"
    min_n: int = 32

    def tail_ball(self, stream, N, prec, t_last):
        if N < self.min_n:
            return None
        from . import _emtail
        return _emtail.tail_enclosure(self.recipe, N, prec)

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        return 2048


@dataclass
class Thm24Tail(TailStrategy):
    """Composite tail (pi/2) * tailA - tailB for the double-factorial series."""

    recipe_a: "object"
    recipe_b: "object"
    kind = "asymptotic-composite"
    min_n: int = 32

    def tail_ball(self, stream, N, prec, t_last):
        if N < self.min_n:
            return None
        from . import _emtail
        ta = _emtail.tail_enclosure(self.recipe_a, N, prec)
        tb = _emtail.tail_enclosure(self.recipe_b, N, prec)
        half_pi = constant(ConstantName.PI, prec).mul_2exp(-1)
        return half_pi * ta - tb

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        return 2048


# --------------------------------------------------------------------
# Rigorous summation
# --------------------------------------------------------------------

@dataclass
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
        # the last enclosure, kept for the report when the budget runs out
        best, best_n = None, 0
        N = planned
        while N <= max_terms:
            total, last = cursor.advance(N)
            tail = strategy.tail_ball(stream, N, prec, last)
            if tail is not None:
                if mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
                    return SumResult(total + tail, N, prec, tail)
                best, best_n = total + tail, N
            N *= 4
        raise PrecisionNotReached(
            f"needs about {N} terms, budget is {max_terms}",
            best=best, n_terms=N if best is None else best_n,
            requested_digits=target_digits)

    # Geometric-style strategies: iterate with doubling checkpoints.
    checkpoint = 16
    while True:
        N = min(checkpoint, max_terms)
        total, last = cursor.advance(N)
        tail = strategy.tail_ball(stream, N, prec, last)
        if tail is not None and mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
            value = total + tail
            return SumResult(value, N, prec, tail)
        if N >= max_terms:
            best = None
            if tail is not None:
                best = total + tail
            raise PrecisionNotReached(
                f"tail bound still too large after {N} terms",
                best=best, n_terms=N, requested_digits=target_digits)
        checkpoint *= 2


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
