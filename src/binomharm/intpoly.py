"""Integer polynomials as ascending coefficient tuples, and a sign decider.

Every step ratio, harmonic increment and tail-proof polynomial in the
package is a tuple ``(c0, c1, ..., cd)`` of Python ints standing for
c0 + c1 n + ... + cd n^d.  This module holds the arithmetic on them
(evaluation, products, Taylor shifts, exact gcds) and one decision
procedure, :func:`first_negative`: the least integer n >= N with
c(n) < 0, or None when c(n) >= 0 for every integer n >= N.

The decision is exact and never samples.  The polynomial is first
Taylor-shifted to N; when every coefficient of c(N + m) is >= 0 the
claim holds for all m >= 0 (Descartes' rule of signs with no sign
change, Collins & Akritas, SYMSAC 1976).  Otherwise the distinct real
roots of c past N are counted with a Sturm sequence and isolated down
to unit integer cells by bisection: c keeps one sign on every cell
(lo, hi] holding no root, so one evaluation per cell finds the least
integer where c is negative.  The roots all lie below the Cauchy bound,
past which c has the sign of its leading coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

__all__ = ["peval", "pvalues", "pmul", "padd", "pscale", "taylor_shift",
           "lead_sign", "pgcd", "reduce_ratio", "first_negative"]


def peval(c: tuple, n):
    """Value at n of the polynomial with ascending coefficients c."""
    v = 0
    for a in reversed(c):
        v = v * n + a
    return v


def pvalues(c: tuple, n0: int, n1: int, k=1) -> list:
    """[k c(n) for n in n0..n1]: Horner's rule run over the whole block,
    one pass per coefficient, so the integers are those of
    ``k * peval(c, n)``; empty when n1 < n0."""
    ns = range(n0, n1 + 1)
    kc = [k * a for a in c]
    vals = [kc[-1]] * len(ns)
    for a in reversed(kc[:-1]):
        vals = [v * n + a for v, n in zip(vals, ns)]
    return vals


def pmul(*fs: tuple) -> tuple:
    """Coefficients of the product of polynomials, all ascending."""
    out = (1,)
    for f in fs:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = tuple(prod)
    return out


def padd(f: tuple, g: tuple) -> tuple:
    """Coefficients of f + g."""
    if len(f) < len(g):
        f, g = g, f
    return tuple(a + (g[i] if i < len(g) else 0) for i, a in enumerate(f))


def pscale(k, f: tuple) -> tuple:
    """Coefficients of k f."""
    return tuple(k * a for a in f)


def taylor_shift(c: tuple, N) -> tuple:
    """Coefficients of c(n + N), by repeated synthetic division."""
    c = list(c)
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += N * c[j + 1]
    return tuple(c)


def lead_sign(c: tuple) -> int:
    """Sign of the leading nonzero coefficient; 1 for the zero polynomial."""
    for a in reversed(c):
        if a:
            return 1 if a > 0 else -1
    return 1


def _trim(c) -> list:
    """c without its zero leading coefficients ([] for the zero polynomial)."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _integral(c) -> list:
    """A positive multiple of a rational polynomial with coprime integer
    coefficients."""
    den = math.lcm(*(Fraction(a).denominator for a in c))
    ints = [int(Fraction(a) * den) for a in c]
    g = math.gcd(*ints)
    return [a // g for a in ints] if g else ints


def _divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g != 0 over Q, both trimmed."""
    rem = [Fraction(a) for a in f]
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    lead = Fraction(g[-1])
    for k in range(len(f) - len(g), -1, -1):
        q = rem[k + len(g) - 1] / lead
        quo[k] = q
        if q:
            for i, b in enumerate(g):
                rem[k + i] -= q * b
    return _trim(quo), _trim(rem[:len(g) - 1])


def pgcd(f: tuple, g: tuple) -> tuple:
    """The gcd of two integer polynomials, not both zero: the primitive
    gcd over Q times the gcd of the contents, with a positive leading
    coefficient."""
    a, b = _trim(f), _trim(g)
    content = math.gcd(*a, *b)
    while b:
        a, b = b, _integral(_divmod(a, b)[1])
    prim = _integral(a)
    if prim[-1] < 0:
        prim = [-x for x in prim]
    return tuple(content * x for x in prim)


def reduce_ratio(A: tuple, B: tuple) -> tuple[tuple, tuple]:
    """(A/g, B/g) for g = pgcd(A, B): the same ratio A(n)/B(n) wherever
    g(n) != 0, in lowest terms.  Gauss's lemma keeps the quotients
    integral."""
    g = list(pgcd(A, B))
    out = []
    for f in (A, B):
        q, r = _divmod(_trim(f), g)
        if r or any(x.denominator != 1 for x in q):
            raise ArithmeticError("inexact polynomial division")
        out.append(tuple(int(x) for x in q) or (0,))
    return out[0], out[1]


def _derivative(c: list) -> list:
    return [i * a for i, a in enumerate(c)][1:]


def _sturm(c: list) -> list:
    """Sturm sequence of the square-free part of c (degree >= 1), with
    each member scaled by a positive rational to integer coefficients."""
    sf = _integral(_divmod(c, list(pgcd(c, _derivative(c))))[0])
    seq = [sf, _integral(_derivative(sf))]
    while len(seq[-1]) > 1:
        seq.append([-x for x in _integral(_divmod(seq[-2], seq[-1])[1])])
    return seq


def _variations(seq: list, x: int) -> int:
    """Sign changes along the Sturm sequence at x, zeros dropped."""
    signs = [v > 0 for v in (peval(p, x) for p in seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def first_negative(c: tuple, N: int) -> Optional[int]:
    """The least integer n >= N with c(n) < 0, or None if there is none.

    ``c`` holds integer coefficients, ascending, and N is an int; a
    coefficient of any other type raises TypeError, since an inexact one
    cannot be decided.
    """
    if not all(type(a) is int for a in c):
        raise TypeError("the sign decider needs integer coefficients")
    c = _trim(c)
    if all(a >= 0 for a in taylor_shift(c, N)):
        return None
    if peval(c, N) < 0:
        return N
    seq = _sturm(c)
    # every real root r has |r| < 1 + max |c_i / c_d|
    bound = 1 + -(-max(abs(a) for a in c[:-1]) // abs(c[-1]))
    hi = max(N, bound) + 1

    def scan(lo, hi, vlo, vhi):
        # least n in (lo, hi] with c(n) < 0; vlo - vhi roots lie there
        if vlo == vhi:
            return lo + 1 if peval(c, hi) < 0 else None
        if hi - lo == 1:
            return hi if peval(c, hi) < 0 else None
        mid = (lo + hi) // 2
        vmid = _variations(seq, mid)
        left = scan(lo, mid, vlo, vmid)
        return left if left is not None else scan(mid, hi, vmid, vhi)

    return scan(N, hi, _variations(seq, N), _variations(seq, hi))
