"""Exact integer and rational building blocks.

Everything in this module is exact: arbitrary-precision integers,
``fractions.Fraction`` rationals, and elements of the quadratic field
Q(sqrt5).  The series engine and the identity registry build their terms
from these primitives, so any numerical disagreement downstream can only
come from the controlled rounding in the ball layer, never from term
generation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

#: Largest index accepted by fib/lucas/alpha_power.  Beyond this, exact
#: arithmetic on the results is no longer practical.
MAX_INDEX = 2 ** 20


class SequenceCache:
    """Thread-safe cache for cumulative integer/rational sequences.

    Stores a prefix of a sequence defined by a step function and extends
    it on demand.  ``cap`` bounds the number of cached entries; requests
    beyond the cap are computed by extending a private copy so the shared
    cache never grows past the cap.
    """

    def __init__(self, first, step, cap: int = 1 << 22):
        self._values = [first]
        self._step = step
        self._cap = cap
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError("sequence index must be nonnegative")
        values = self._values
        if n < len(values):
            return values[n]
        with self._lock:
            values = self._values
            if n < self._cap:
                while len(values) <= n:
                    values.append(self._step(len(values), values[-1]))
                return values[n]
        # Beyond the cap: compute without growing the shared cache.
        k = min(len(values), self._cap) - 1
        v = values[k]
        while k < n:
            k += 1
            v = self._step(k, v)
        return v


# harmonic(0) = 0, harmonic(n) = harmonic(n-1) + 1/n
_HARMONIC = SequenceCache(Fraction(0), lambda n, prev: prev + Fraction(1, n))


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = sum_{k=1..n} 1/k (H_0 = 0)."""
    if n < 0:
        raise ValueError("harmonic number index must be nonnegative")
    return _HARMONIC[n]


def central_binomial(n: int) -> int:
    """The central binomial coefficient C(2n, n)."""
    if n < 0:
        raise ValueError("central binomial index must be nonnegative")
    return comb(2 * n, n)


def catalan_number(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("Catalan number index must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2, with 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    return prod(range(n, 1, -2)) if n > 1 else 1


def _check_index(n: int) -> None:
    if abs(n) > MAX_INDEX:
        raise ValueError(f"index {n} exceeds MAX_INDEX = {MAX_INDEX}")


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0 by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fib(n: int) -> int:
    """Fibonacci number F_n for any integer n (F_{-m} = (-1)^{m-1} F_m)."""
    _check_index(n)
    if n < 0:
        f = _fib_pair(-n)[0]
        return f if (-n) % 2 == 1 else -f
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """Lucas number L_n for any integer n (L_{-m} = (-1)^m L_m)."""
    _check_index(n)
    m = abs(n)
    a, b = _fib_pair(m)
    ln = 2 * b - a
    if n < 0 and m % 2 == 1:
        return -ln
    return ln


@dataclass(frozen=True)
class SurdQ5:
    """An element a + b*sqrt5 of the quadratic field Q(sqrt5).

    Field arithmetic is exact.  Division is by the conjugate; the norm
    a^2 - 5 b^2 vanishes only for a = b = 0 because 5 is not a rational
    square, so every nonzero element is invertible.
    """

    a: Fraction
    b: Fraction

    @staticmethod
    def from_rational(q) -> "SurdQ5":
        return SurdQ5(Fraction(q), Fraction(0))

    @staticmethod
    def sqrt5() -> "SurdQ5":
        return SurdQ5(Fraction(0), Fraction(1))

    def _coerce(self, other):
        if isinstance(other, SurdQ5):
            return other
        if isinstance(other, (int, Fraction)):
            return SurdQ5.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SurdQ5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SurdQ5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return SurdQ5(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SurdQ5(self.a * o.a + 5 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        norm = o.a * o.a - 5 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        conj_num = self * o.conjugate()
        return SurdQ5(conj_num.a / norm, conj_num.b / norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def conjugate(self) -> "SurdQ5":
        """The Galois conjugate a - b*sqrt5."""
        return SurdQ5(self.a, -self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign (-1, 0 or 1) of the real number a + b*sqrt5."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        # opposite signs: the larger of a^2 and 5 b^2 wins; they cannot
        # tie because 5 is not a rational square
        a, b = self.a, self.b
        a2 = (a.numerator * b.denominator) ** 2
        b2 = 5 * (b.numerator * a.denominator) ** 2
        return sa if a2 > b2 else sb

    def __abs__(self) -> "SurdQ5":
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt5)"


def alpha_power(n: int) -> SurdQ5:
    """Golden-ratio power alpha^n = (L_n + F_n sqrt5) / 2, any integer n."""
    _check_index(n)
    return SurdQ5(Fraction(lucas(n), 2), Fraction(fib(n), 2))


def beta_power(n: int) -> SurdQ5:
    """Conjugate power beta^n = (L_n - F_n sqrt5) / 2, any integer n."""
    return alpha_power(n).conjugate()


#: Identifiers of the Binet-consequence identities checked exactly.
BINET_IDENTITY_IDS = (
    "alpha_fib",      # alpha^{2m} = alpha^m F_m sqrt5 - (-1)^{m+1}
    "alpha_lucas",    # alpha^{2m} = alpha^m L_m - (-1)^m
    "beta_lucas",     # beta^{2m}  = beta^m  L_m - (-1)^m
    "fib_square",     # F_n^2 + (-1)^{n+m-1} F_m^2 = F_{n-m} F_{n+m}
    "lucas_product",  # L_{n+m} + (-1)^m L_{n-m} = L_n L_m
)


def check_binet_identity(identity_id: str, m: int, n: int = 0) -> bool:
    """Exactly evaluate one of the Binet-consequence identities.

    The alpha/beta identities depend on m only; n is ignored for them.
    Returns True when both sides agree exactly in Q(sqrt5) / Z.
    """
    sign_m = -1 if m % 2 else 1
    if identity_id == "alpha_fib":
        lhs = alpha_power(2 * m)
        rhs = alpha_power(m) * SurdQ5(Fraction(0), Fraction(fib(m))) - (-sign_m)
        return lhs == rhs
    if identity_id == "alpha_lucas":
        return alpha_power(2 * m) == alpha_power(m) * lucas(m) - sign_m
    if identity_id == "beta_lucas":
        return beta_power(2 * m) == beta_power(m) * lucas(m) - sign_m
    if identity_id == "fib_square":
        sgn = -1 if (n + m - 1) % 2 else 1
        return fib(n) ** 2 + sgn * fib(m) ** 2 == fib(n - m) * fib(n + m)
    if identity_id == "lucas_product":
        return lucas(n + m) + sign_m * lucas(n - m) == lucas(n) * lucas(m)
    raise ValueError(f"unknown identity id {identity_id!r}")
