"""Series summation engine: term streams, tail bounds, rigorous sums.

A :class:`TermStream` produces the terms of one series exactly, as
``Fraction`` or ``SurdQ5`` values, through simple first-order
recurrences (term ratios, incremental harmonic updates).  Partial sums
are evaluated in one of three modes:

``exact``  exact rational / quadratic-field arithmetic (small N),
``fixed``  fixed-point integers at scale 2^p with explicit ulp error
           counters (the workhorse for long rational sums),
``ball``   ball arithmetic term by term (surd-valued streams).

A :class:`TailStrategy` turns a truncation point N into a rigorous
enclosure of the discarded tail.  Three kinds exist: a geometric
envelope, an Euler-Maclaurin asymptotic expansion (the only one able to
certify 15+ digits for the n^{-3/2}- and n^{-2}-type series), and the
composite Euler-Maclaurin tail of Theorem 2.4.  Declared ratio
envelopes are re-checked exactly at runtime on the terms actually
produced; a violation raises :class:`TailHypothesisViolation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from mpmath.libmp import from_man_exp, fzero, mpf_cmp, to_rational

from .ball_arith import Ball, ConstantName, constant, _eps, _up
from .exact_core import SurdQ5, harmonic

__all__ = [
    "SignPattern",
    "TermStream",
    "PureRatioStream",
    "HarmonicStream",
    "SurdHarmonicStream",
    "ShiftedStream",
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
# Harmonic-difference state machines: first value and increment of D_n
# --------------------------------------------------------------------

def _d_first(kind: str) -> Fraction:
    return {
        "H": Fraction(1),                 # H_1
        "HD": Fraction(1, 2),             # H_2 - H_1
        "HDM": Fraction(0),               # H_1 - H_1
        "H2N": Fraction(3, 2),            # H_2
        "HD_HALF": Fraction(1),           # H_2 - H_1/2
    }[kind]


def _d_delta(kind: str, n: int) -> Fraction:
    """D_{n+1} - D_n for the harmonic factor of the given kind."""
    if kind == "H":
        return Fraction(1, n + 1)
    if kind == "HD":
        return Fraction(1, (2 * n + 1) * (2 * n + 2))
    if kind == "HDM":
        return (Fraction(1, 2 * n) + Fraction(1, 2 * n + 1)
                - Fraction(1, n + 1))
    if kind == "H2N":
        return Fraction(1, 2 * n + 1) + Fraction(1, 2 * n + 2)
    if kind == "HD_HALF":
        return Fraction(1, 2 * n + 1)
    raise ValueError(f"unknown harmonic kind {kind!r}")


def d_value(kind: str, n: int) -> Fraction:
    """Direct (cache-based) value of the harmonic factor, for crosschecks."""
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
    supports_fixed: bool = False

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

    def partial_sum_ball(self, N: int, prec: int) -> tuple[Ball, Ball]:
        """(sum of terms up to N, last term) as balls."""
        total = Ball.zero(prec)
        last = Ball.zero(prec)
        for n, t in self.iter_exact():
            if n > N:
                break
            last = (Ball.from_surd(t, prec) if isinstance(t, SurdQ5)
                    else Ball.from_fraction(t, prec))
            total = total + last
        return total, last

    def partial_sum_fixed(self, N: int, prec: int) -> tuple[Ball, Ball]:
        raise NotImplementedError(f"{type(self).__name__} has no fixed mode")

    def partial_sum(self, N: int, prec: int) -> tuple[Ball, Ball]:
        """(partial sum, last term) in the preferred mode for this stream."""
        if self.supports_fixed and N > 64:
            return self.partial_sum_fixed(N, prec)
        return self.partial_sum_ball(N, prec)


@dataclass
class PureRatioStream(TermStream):
    """t_{first} = seed, t_{n+1} = t_n * ratio(n), all exactly rational."""

    seed: Fraction
    ratio: Callable[[int], Fraction]
    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1
    supports_fixed: bool = True

    def iter_exact(self):
        t = Fraction(self.seed)
        n = self.first_index
        while True:
            yield n, t
            t = t * self.ratio(n)
            n += 1

    def partial_sum_fixed(self, N: int, prec: int):
        p = prec + 40
        v = (self.seed.numerator << p) // self.seed.denominator
        ev = 1
        s, es = 0, 0
        n = self.first_index
        t_last, et_last = v, ev
        while n <= N:
            s += v
            es += ev
            t_last, et_last = v, ev
            r = self.ratio(n)
            a, b = r.numerator, r.denominator
            v = v * a // b
            ev = (ev * abs(a) + b - 1) // b + 1
            n += 1
        return (_fixed_ball(s, es, p, prec), _fixed_ball(t_last, et_last, p, prec))


@dataclass
class HarmonicStream(TermStream):
    """t_n = U_n * (D_n + g(n)); U by exact term ratio, D incremental.

    U_{first} = seed, U_{n+1} = U_n * uratio(n); D_n is one of the
    harmonic-difference kinds H, HD (H_{2n}-H_n), HDM (H_{2n-1}-H_n),
    H2N (H_{2n}), HD_HALF (H_{2n}-H_n/2).
    """

    seed: Fraction
    uratio: Callable[[int], Fraction]
    kind: str
    g: Optional[Callable[[int], Fraction]] = None
    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1
    supports_fixed: bool = True

    def __post_init__(self):
        if self.g is not None:
            self.supports_fixed = False

    def iter_exact(self):
        u = Fraction(self.seed)
        d = _d_first(self.kind)
        n = self.first_index
        while True:
            dd = d + self.g(n) if self.g is not None else d
            yield n, u * dd
            u = u * self.uratio(n)
            d = d + _d_delta(self.kind, n)
            n += 1

    def partial_sum_fixed(self, N: int, prec: int):
        p = prec + 40
        u = (self.seed.numerator << p) // self.seed.denominator
        eu = 1
        d0 = _d_first(self.kind)
        d = (d0.numerator << p) // d0.denominator
        ed = 1
        s, es = 0, 0
        t_last, et_last = 0, 0
        n = self.first_index
        while n <= N:
            t = (u * d) >> p
            et = ((abs(u) * ed + abs(d) * eu + eu * ed) >> p) + 2
            s += t
            es += et
            t_last, et_last = t, et
            r = self.uratio(n)
            a, b = r.numerator, r.denominator
            u = u * a // b
            eu = (eu * abs(a) + b - 1) // b + 1
            dd = _d_delta(self.kind, n)
            d += (dd.numerator << p) // dd.denominator
            ed += 1
            n += 1
        return (_fixed_ball(s, es, p, prec), _fixed_ball(t_last, et_last, p, prec))


@dataclass
class SurdHarmonicStream(TermStream):
    """t_n = C(2n,n) * x^n * D_n with x in Q(sqrt5); exact surd terms."""

    x: SurdQ5
    kind: str                     # 'H' or 'HD'
    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1

    def iter_exact(self):
        u = self.x * 2            # C(2,1) x
        d = _d_first(self.kind)
        n = self.first_index
        while True:
            yield n, u * d
            cr = Fraction((2 * n + 1) * (2 * n + 2), (n + 1) * (n + 1))
            u = u * self.x * cr
            d = d + _d_delta(self.kind, n)
            n += 1


@dataclass
class ShiftedStream(TermStream):
    """t_m = C(2m+k, m) x^m, starting at m = 0."""

    k: int
    x: Fraction
    sign: SignPattern = SignPattern.UNKNOWN
    first_index: int = 0
    supports_fixed: bool = True

    def __post_init__(self):
        self.x = Fraction(self.x)
        self.sign = (SignPattern.POSITIVE if self.x > 0
                     else SignPattern.ALTERNATING)

    def _ratio(self, m: int) -> Fraction:
        k = self.k
        return self.x * Fraction((2 * m + k + 1) * (2 * m + k + 2),
                                 (m + 1) * (m + k + 1))

    def iter_exact(self):
        t = Fraction(1)
        m = 0
        while True:
            yield m, t
            t = t * self._ratio(m)
            m += 1

    def partial_sum_fixed(self, N: int, prec: int):
        inner = PureRatioStream(seed=Fraction(1), ratio=self._ratio,
                                sign=self.sign, first_index=0)
        return inner.partial_sum_fixed(N, prec)


@dataclass
class Thm24Stream(TermStream):
    """Composite stream t_n = U_n D_n (pi/2 - W_n).

    U_n = Cat(n) / (4^n (2n+1)), D_n = H_{2n} - H_n/2,
    W_n = (2n)!! / (2n+1)!!.  Exact bookkeeping keeps the two rational
    sums Sa = sum U D and Sb = sum U D W separate, so pi enters exactly
    once, at combination time.
    """

    sign: SignPattern = SignPattern.POSITIVE
    first_index: int = 1
    supports_fixed: bool = True

    U1 = Fraction(1, 12)

    @staticmethod
    def uratio(n: int) -> Fraction:
        return Fraction((2 * n + 1) ** 2, 2 * (n + 2) * (2 * n + 3))

    @staticmethod
    def wratio(n: int) -> Fraction:
        return Fraction(2 * n + 2, 2 * n + 3)

    def iter_exact_components(self):
        """Yields (n, U_n, D_n, W_n) exactly."""
        u = self.U1
        d = Fraction(1)
        w = Fraction(2, 3)
        n = 1
        while True:
            yield n, u, d, w
            u = u * self.uratio(n)
            d = d + Fraction(1, 2 * n + 1)
            w = w * self.wratio(n)
            n += 1

    def iter_exact(self):
        # Terms involve pi and are not exact; exact iteration yields the
        # rational pair (U D, U D W) packed as a tuple for internal use.
        for n, u, d, w in self.iter_exact_components():
            ud = u * d
            yield n, (ud, ud * w)

    def partial_pair_fixed(self, N: int, prec: int) -> tuple[Ball, Ball, Ball]:
        """(Sa, Sb, last |UD| hi) with Sa = sum U D, Sb = sum U D W."""
        p = prec + 40
        u = (1 << p) // 12
        eu = 1
        d, ed = 1 << p, 1
        w, ew = (2 << p) // 3, 1
        sa, esa, sb, esb = 0, 0, 0, 0
        t2_last, et2_last = 0, 0
        n = 1
        while n <= N:
            t2 = (u * d) >> p
            et2 = ((u * ed + d * eu + eu * ed) >> p) + 2
            t3 = (t2 * w) >> p
            et3 = ((abs(t2) * ew + w * et2 + et2 * ew) >> p) + 2
            sa += t2
            esa += et2
            sb += t3
            esb += et3
            t2_last, et2_last = t2, et2
            r = self.uratio(n)
            u = u * r.numerator // r.denominator
            eu = (eu * r.numerator + r.denominator - 1) // r.denominator + 1
            d += (1 << p) // (2 * n + 1)
            ed += 1
            r = self.wratio(n)
            w = w * r.numerator // r.denominator
            ew = (ew * r.numerator + r.denominator - 1) // r.denominator + 1
            n += 1
        return (_fixed_ball(sa, esa, p, prec), _fixed_ball(sb, esb, p, prec),
                _fixed_ball(t2_last, et2_last, p, prec))

    def partial_sum_fixed(self, N: int, prec: int):
        sa, sb, t2 = self.partial_pair_fixed(N, prec)
        half_pi = constant(ConstantName.PI, prec).mul_2exp(-1)
        total = half_pi * sa - sb
        # the last combined term; W_N < 1 so |t_N| <= U D * pi/2
        last = t2 * half_pi
        return total, last

    def partial_sum_ball(self, N: int, prec: int):
        return self.partial_sum_fixed(N, prec)


def _fixed_ball(s: int, es: int, p: int, prec: int) -> Ball:
    # from_man_exp with no rounding spec keeps the value exact
    mid = from_man_exp(s, -p)
    rad = _up(from_man_exp(es + 1, -p), _eps(mid, prec + 10))
    return Ball(mid, rad, prec)


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
    has_runtime_check = True

    def tail_ball(self, stream: TermStream, N: int, prec: int,
                  t_last: Optional[Ball]) -> Optional[Ball]:
        """Enclosure of sum_{n>N} t_n, or None if no bound is available yet."""
        raise NotImplementedError

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        """Predetermined N when the strategy can solve for it, else None."""
        return None

    def check_step(self, n: int, t_prev, t_cur) -> None:
        """Raise TailHypothesisViolation on a definite hypothesis breach.

        ``t_cur`` is the term at index ``n``, ``t_prev`` the one before it.
        """


@dataclass
class GeometricTail(TailStrategy):
    """|t_{n+1}| <= step_env(n) |t_n| with sup_{n>=N} step_env(n) <= sup_env(N).

    Tail bound: |t_N| Q / (1 - Q) at Q = sup_env(N) < 1.
    """

    step_env: Callable[[int], Fraction]
    sup_env: Callable[[int], Fraction]
    kind = "geometric"

    def tail_ball(self, stream, N, prec, t_last):
        q = self.sup_env(N)
        if q >= 1:
            return None
        t_hi = _fraction_of(t_last.abs_hi())
        bound = t_hi * q / (1 - q)
        return _signed_tail_ball(bound, stream.sign, prec)

    def check_step(self, n, t_prev, t_cur):
        env = self.step_env(n - 1)
        if isinstance(t_prev, Fraction) and isinstance(t_cur, Fraction):
            if abs(t_cur) > env * abs(t_prev):
                raise TailHypothesisViolation(
                    f"geometric envelope violated at n={n}: "
                    f"|t|={abs(t_cur)} > {env} * {abs(t_prev)}")
        elif isinstance(t_prev, SurdQ5) and isinstance(t_cur, SurdQ5):
            # decide env |t_prev| - |t_cur| >= 0 exactly in Q(sqrt5)
            if (abs(t_prev) * env - abs(t_cur)).sign() < 0:
                raise TailHypothesisViolation(
                    f"geometric envelope violated at n={n}: "
                    f"|t| > {env} * |t_prev| in Q(sqrt5)")


@dataclass
class AsymptoticTail(TailStrategy):
    """Euler-Maclaurin tail for t_n = scale * R(n) b(n)^e D(n).

    Built lazily; see the private _emtail module for the machinery.
    """

    recipe: "object"              # _emtail.EmRecipe
    kind = "asymptotic"
    has_runtime_check = False
    min_n: int = 32

    def tail_ball(self, stream, N, prec, t_last):
        if N < self.min_n:
            return None
        from . import _emtail
        return _emtail.tail_enclosure(self.recipe, N, prec)

    def plan_terms(self, tol: Fraction, max_terms: int) -> Optional[int]:
        return 2048

    def check_step(self, n, t_prev, t_cur):
        pass


@dataclass
class Thm24Tail(TailStrategy):
    """Composite tail (pi/2) * tailA - tailB for the double-factorial series."""

    recipe_a: "object"
    recipe_b: "object"
    kind = "asymptotic-composite"
    has_runtime_check = False
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

    def check_step(self, n, t_prev, t_cur):
        pass


# --------------------------------------------------------------------
# Rigorous summation
# --------------------------------------------------------------------

@dataclass
class SumResult:
    value: Ball
    n_terms: int
    prec: int
    tail: Ball
    mode: str


def _tol_for(target_digits: int) -> Fraction:
    return Fraction(45, 100) / Fraction(10) ** target_digits


def _run_checks(stream, strategy, upto):
    """Replay the declared hypotheses against the first terms exactly."""
    if not strategy.has_runtime_check or isinstance(stream, Thm24Stream):
        return
    prev = None
    for n, t in stream.iter_exact():
        if n > upto:
            break
        if prev is not None:
            strategy.check_step(n, prev, t)
        prev = t


def sum_to_precision(stream: TermStream, strategy: TailStrategy,
                     target_digits: int, max_terms: int = 10 ** 7,
                     prec: Optional[int] = None,
                     check_hypotheses: bool = True) -> SumResult:
    """Enclose the series value with rad <= 0.45 * 10^-target_digits.

    Since the tolerance is taken relative to max(|mid|, 1) >= 1, the
    returned radius also satisfies rad <= 10^-target_digits * max(|mid|, 1).
    """
    from .ball_arith import working_precision
    if prec is None:
        prec = working_precision(target_digits)
    tol = _tol_for(target_digits)
    half_tol_ball = Ball.from_fraction(tol / 2, prec)

    planned = strategy.plan_terms(tol / 2, max_terms)
    if planned is not None:
        if check_hypotheses:
            _run_checks(stream, strategy, min(planned, 512, max_terms))
        N = planned
        while True:
            if N > max_terms:
                raise PrecisionNotReached(
                    f"needs about {N} terms, budget is {max_terms}",
                    n_terms=N, requested_digits=target_digits)
            total, last = stream.partial_sum(N, prec)
            tail = strategy.tail_ball(stream, N, prec, last)
            if tail is not None and mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
                break
            N *= 4
        value = total + tail
        return SumResult(value, N, prec, tail, _mode_name(stream, N))

    # Geometric-style strategies: iterate with doubling checkpoints.
    if check_hypotheses:
        _run_checks(stream, strategy, min(160, max_terms))
    checkpoint = 16
    while True:
        N = min(checkpoint, max_terms)
        total, last = stream.partial_sum(N, prec)
        tail = strategy.tail_ball(stream, N, prec, last)
        if tail is not None and mpf_cmp(tail.rad, half_tol_ball.mid) <= 0:
            value = total + tail
            return SumResult(value, N, prec, tail, _mode_name(stream, N))
        if N >= max_terms:
            best = None
            if tail is not None:
                best = total + tail
            raise PrecisionNotReached(
                f"tail bound still too large after {N} terms",
                best=best, n_terms=N, requested_digits=target_digits)
        checkpoint *= 2


def _mode_name(stream, N):
    if stream.supports_fixed and N > 64:
        return "fixed"
    return "ball"


def empirical_tail_check(stream: TermStream, strategy: TailStrategy,
                         probes=(32, 128, 512), prec: int = 160) -> list[dict]:
    """Compare each declared tail bound against observed partial-sum gaps.

    For each probe N the observed quantity |S(4N) - S(N)| must not
    definitely exceed the claimed bound for the tail at N.  Results are
    reported, never raised; a False entry is a finding, not a crash.
    """
    out = []
    for N in probes:
        s1, t1 = stream.partial_sum(N, prec)
        s4, _ = stream.partial_sum(4 * N, prec)
        diff = s4 - s1
        tail = strategy.tail_ball(stream, N, prec, t1)
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
