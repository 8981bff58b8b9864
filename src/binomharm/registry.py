"""Identity catalog: every series under test, with its closed form.

Each entry pairs two independent evaluation routes:

  * a term stream plus a tail strategy (the series side), and
  * a ``ClosedForm`` expression tree (the closed-form side).

The two routes never share code paths: streams use exact rational or
surd recurrences, while trees evaluate through ball-arithmetic
constants and elementary functions.  The verifier compares the two
enclosures.

Entry ids follow the catalog numbering (EQ1..EQ40 for displays,
THM24..THM27 for the unnumbered theorems).  ``*_AS_PRINTED`` entries
carry a closed form transcribed with its typographical defect intact;
they are expected to FAIL verification, and ``structural_diff`` counts
how many tree nodes separate them from the corrected form.

Memos.  Each is per process: there is no disk cache, and a ``--workers``
process fills its own (a forked one inherits what its parent holds).

  * A tree node reads each child's value through :func:`_child`, a
    ``functools.lru_cache`` of at most 2048 (node, prec) pairs.  The
    frozen trees compare and hash by structure, so the ``sqrt(2)`` of
    one entry is the ``sqrt(2)`` of every other, evaluated once per
    precision.  Only tree evaluation reads this memo; the series route
    never does.
  * :func:`make_registry` builds the default entries once (they are
    frozen) and returns a fresh dict over them on every call.

A memoized ball is handed to every later caller, so it is never
mutated: :class:`Ball` operations always build new objects.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .ball_arith import Ball, ConstantName, constant
from .exact_core import (SurdQ5, catalan_number,
                         central_binomial, fib, harmonic, lucas)
from .genfunc import (family_stream, gf_series_stream, gf_term,
                      substitution_point)
# bound as _stream_em, the factory the asymptotic entries call: perfbench
# times the registry's _stream_* factories under that prefix
from .series_engine import TermRecipe, series_from as _stream_em

__all__ = [
    "ClosedForm", "Rat", "Const", "Surd", "Add", "Sub", "Mul", "Div",
    "Neg", "Sqrt", "Ln", "PowInt", "Asin",
    "psi_tree", "psi_star_tree", "structural_diff",
    "IdentityStatus", "IdentityEntry",
    "make_registry", "build_template_entry", "TEMPLATE_IDS",
    "entry_eq17", "entry_eq17_as_printed", "coverage_report",
]


# --------------------------------------------------------------------
# Closed-form expression trees
# --------------------------------------------------------------------

class ClosedForm:
    """Numeric expression tree evaluating to a ball enclosure."""

    def children(self) -> tuple:
        return ()

    def _eval(self, prec: int) -> Ball:
        raise NotImplementedError

    def value(self, prec: int) -> Ball:
        out = self._eval(prec + 30)
        return Ball(out.mid, out.rad, prec)

    def desc(self) -> str:
        raise NotImplementedError

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children())


@functools.lru_cache(maxsize=2048)
def _child(node: ClosedForm, prec: int) -> Ball:
    """The value of a subtree at working precision ``prec``, memoized."""
    return node._eval(prec)


@dataclass(frozen=True)
class Rat(ClosedForm):
    q: Fraction

    def _eval(self, prec):
        return Ball.from_fraction(self.q, prec)

    def desc(self):
        return str(self.q)


@dataclass(frozen=True)
class Const(ClosedForm):
    name: ConstantName

    def _eval(self, prec):
        return constant(self.name, prec)

    def desc(self):
        return {
            ConstantName.PI: "pi",
            ConstantName.LN2: "ln2",
            ConstantName.CATALAN_G: "G",
            ConstantName.ZETA3: "zeta(3)",
            ConstantName.ZETA2: "zeta(2)",
            ConstantName.SQRT5: "sqrt(5)",
            ConstantName.ALPHA: "alpha",
        }[self.name]


@dataclass(frozen=True)
class Surd(ClosedForm):
    v: SurdQ5

    def _eval(self, prec):
        return Ball.from_surd(self.v, prec)

    def desc(self):
        return f"({self.v})"


@dataclass(frozen=True)
class _Unary(ClosedForm):
    """A node applying ``op`` to one subtree, printed through ``fmt``."""

    a: ClosedForm
    # looked up on the class, so a function such as Ball.sqrt is not
    # bound to the node
    op = None
    fmt = ""

    def children(self):
        return (self.a,)

    def _eval(self, prec):
        return type(self).op(_child(self.a, prec))

    def desc(self):
        return self.fmt.format(self.a.desc())


@dataclass(frozen=True)
class _Binary(ClosedForm):
    """A node applying ``op`` to two subtrees, printed through ``fmt``."""

    a: ClosedForm
    b: ClosedForm
    op = None
    fmt = ""

    def children(self):
        return (self.a, self.b)

    def _eval(self, prec):
        return type(self).op(_child(self.a, prec), _child(self.b, prec))

    def desc(self):
        return self.fmt.format(self.a.desc(), self.b.desc())


class Add(_Binary):
    op, fmt = operator.add, "({} + {})"


class Sub(_Binary):
    op, fmt = operator.sub, "({} - {})"


class Mul(_Binary):
    op, fmt = operator.mul, "{}*{}"


class Div(_Binary):
    op = operator.truediv

    def desc(self):
        bd = self.b.desc()
        if isinstance(self.b, (Mul, Div)):
            bd = f"({bd})"
        return f"{self.a.desc()}/{bd}"


class Neg(_Unary):
    op, fmt = operator.neg, "-{}"


class Sqrt(_Unary):
    op, fmt = Ball.sqrt, "sqrt({})"


class Ln(_Unary):
    op, fmt = Ball.ln, "ln({})"


class Asin(_Unary):
    op, fmt = Ball.asin, "asin({})"


@dataclass(frozen=True)
class PowInt(ClosedForm):
    a: ClosedForm
    n: int

    def children(self):
        return (self.a,)

    def _eval(self, prec):
        return _child(self.a, prec).pow_int(self.n)

    def desc(self):
        return f"{self.a.desc()}^{self.n}"


def structural_diff(a: ClosedForm, b: ClosedForm) -> int:
    """Number of divergence sites between two trees.

    Nodes of equal type recurse into children (a leaf payload mismatch
    counts 1); nodes of different type but equal arity count 1 plus the
    child differences; shape mismatches count as a single site.
    """
    if type(a) is type(b):
        if isinstance(a, (Rat, Const, Surd)):
            return 0 if a == b else 1
        extra = 1 if isinstance(a, PowInt) and a.n != b.n else 0
        return extra + sum(structural_diff(x, y)
                           for x, y in zip(a.children(), b.children()))
    ca, cb = a.children(), b.children()
    if len(ca) == len(cb) and ca:
        return 1 + sum(structural_diff(x, y) for x, y in zip(ca, cb))
    return 1


def R(p, q: int = 1) -> Rat:
    return Rat(Fraction(p, q))


_PI = Const(ConstantName.PI)
_LN2 = Ln(R(2))
_G = Const(ConstantName.CATALAN_G)
_Z3 = Const(ConstantName.ZETA3)
_Z2 = Const(ConstantName.ZETA2)
_S5 = Const(ConstantName.SQRT5)
_AL = Const(ConstantName.ALPHA)


def psi_tree() -> ClosedForm:
    """psi = 2G + pi - 2 - ln2 - pi ln2."""
    return Sub(Sub(Sub(Add(Mul(R(2), _G), _PI), R(2)), _LN2), Mul(_PI, _LN2))


def psi_star_tree() -> ClosedForm:
    """psi* = 2 + pi - 2 ln 8."""
    return Sub(Add(R(2), _PI), Mul(R(2), Ln(R(8))))


# --------------------------------------------------------------------
# Entries
# --------------------------------------------------------------------

class IdentityStatus(enum.Enum):
    AS_PRINTED_OK = "as_printed_ok"
    AS_PRINTED_DISCREPANT = "as_printed_discrepant"
    CORRECTED = "corrected"
    PRIOR_WORK = "prior_work"


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    paper_eq: str
    family: str
    status: IdentityStatus
    series_desc: str
    rhs: ClosedForm
    make_stream: Callable[[], tuple]
    default_digits: int
    max_terms: int
    term_oracle: Optional[Callable[[int], object]] = None
    r: Optional[int] = None
    notes: str = ""

    @property
    def expected_verdict(self) -> str:
        if self.status is IdentityStatus.AS_PRINTED_DISCREPANT:
            return "FAIL"
        return "PASS"

    @property
    def description(self) -> str:
        return f"{self.series_desc} = {self.rhs.desc()}"


def _b4(n: int) -> Fraction:
    """C(2n,n) / 4^n."""
    return Fraction(central_binomial(n), 4 ** n)


# ---- closed-form templates for the Fibonacci/Lucas families ---------

def _master_form(c: ClosedForm) -> ClosedForm:
    """2 sqrt(c)/sqrt(c-1) ln((sqrt(c)+sqrt(c-1))/(2 sqrt(c-1)))."""
    sc, sd = Sqrt(c), Sqrt(Sub(c, R(1)))
    return Mul(Div(Mul(R(2), sc), sd),
               Ln(Div(Add(sc, sd), Mul(R(2), sd))))


def _hd_form(c: ClosedForm) -> ClosedForm:
    """-sqrt(c)/sqrt(c-1) ln((sqrt(c)+sqrt(c-1))/(2 sqrt(c)))."""
    sc, sd = Sqrt(c), Sqrt(Sub(c, R(1)))
    return Neg(Mul(Div(sc, sd), Ln(Div(Add(sc, sd), Mul(R(2), sc)))))


def _alias_form(num: ClosedForm, c: ClosedForm) -> ClosedForm:
    """2 num/sqrt(c-1) ln((num+sqrt(c-1))/(2 sqrt(c-1))), num = sqrt(c)."""
    sd = Sqrt(Sub(c, R(1)))
    return Mul(Div(Mul(R(2), num), sd),
               Ln(Div(Add(num, sd), Mul(R(2), sd))))


def _fib_c_tree(r: int) -> ClosedForm:
    return Mul(Mul(PowInt(_AL, r), R(fib(r))), _S5)


def _lucas_c_tree(r: int) -> ClosedForm:
    return Mul(PowInt(_AL, r), R(lucas(r)))


def _family_entry(entry_id: str, paper_eq: str, family_tag: str,
                  gf_family: str, kind: str, r: int,
                  rhs: ClosedForm, series_desc: str,
                  status: IdentityStatus = IdentityStatus.AS_PRINTED_OK,
                  notes: str = "") -> IdentityEntry:
    x = substitution_point(gf_family, r)
    return IdentityEntry(
        id=entry_id, paper_eq=paper_eq, family=family_tag, status=status,
        series_desc=series_desc, rhs=rhs,
        make_stream=lambda: family_stream(gf_family, r, kind),
        default_digits=30, max_terms=100000,
        term_oracle=lambda n: gf_term("GF_M" if kind == "H" else "GF_HD",
                                      n, x), r=r, notes=notes)


TEMPLATE_IDS = ("FIB_H", "LUCAS_H", "LUCAS_HD", "FIB_HD",
                "FIB_H_2R", "LUCAS_H_2R")


def build_template_entry(entry_id: str, r: int) -> IdentityEntry:
    """Family entry at parameter r (aliases substitute 2r internally)."""
    if r < 1:
        raise ValueError("family parameter r must be >= 1")
    if entry_id == "FIB_H":
        return _family_entry(
            "FIB_H", "5", "fibonacci", "FIB", "H", r,
            _master_form(_fib_c_tree(r)),
            f"sum C(2n,n) H_n / ((4 sqrt5)^n alpha^({r}n) F_{r}^n)")
    if entry_id == "LUCAS_H":
        return _family_entry(
            "LUCAS_H", "10", "lucas", "LUCAS", "H", r,
            _master_form(_lucas_c_tree(r)),
            f"sum C(2n,n) H_n / (4^n alpha^({r}n) L_{r}^n)")
    if entry_id == "LUCAS_HD":
        return _family_entry(
            "LUCAS_HD", "15", "lucas", "LUCAS", "HD", r,
            _hd_form(_lucas_c_tree(r)),
            f"sum C(2n,n) (H_2n - H_n) / (4^n alpha^({r}n) L_{r}^n)")
    if entry_id == "FIB_HD":
        return _family_entry(
            "FIB_HD", "16", "fibonacci", "FIB", "HD", r,
            _hd_form(_fib_c_tree(r)),
            f"sum C(2n,n) (H_2n - H_n) / ((4 sqrt5)^n alpha^({r}n) F_{r}^n)")
    if entry_id == "FIB_H_2R":
        num = Mul(PowInt(_AL, r), Sqrt(Mul(R(fib(2 * r)), _S5)))
        return _family_entry(
            "FIB_H_2R", "9", "fibonacci", "FIB", "H", 2 * r,
            _alias_form(num, _fib_c_tree(2 * r)),
            f"sum C(2n,n) H_n / ((4 sqrt5)^n alpha^({2 * r}n) F_{2 * r}^n)",
            notes="alias of the F-family with r replaced by 2r")
    if entry_id == "LUCAS_H_2R":
        num = Mul(PowInt(_AL, r), Sqrt(R(lucas(2 * r))))
        return _family_entry(
            "LUCAS_H_2R", "14", "lucas", "LUCAS", "H", 2 * r,
            _alias_form(num, _lucas_c_tree(2 * r)),
            f"sum C(2n,n) H_n / (4^n alpha^({2 * r}n) L_{2 * r}^n)",
            notes="alias of the L-family with r replaced by 2r")
    raise KeyError(f"not a template entry: {entry_id!r}")


# ---- rational generating-function entries ---------------------------

def _gf_entry(entry_id: str, paper_eq: str, family_tag: str,
              gf_name: str, x: Fraction, rhs: ClosedForm,
              series_desc: str, status: IdentityStatus,
              digits: int = 30, max_terms: int = 100000,
              notes: str = "") -> IdentityEntry:
    x = Fraction(x)
    return IdentityEntry(
        id=entry_id, paper_eq=paper_eq, family=family_tag, status=status,
        series_desc=series_desc, rhs=rhs,
        make_stream=lambda: gf_series_stream(gf_name, x),
        default_digits=digits, max_terms=max_terms,
        term_oracle=lambda n: gf_term(gf_name, n, x), notes=notes)


def entry_eq17(x: Fraction) -> IdentityEntry:
    """Corrected (17) at rational x in (-1/4, 1/4) \\ {0}."""
    x = Fraction(x)
    d = Fraction(1) - 4 * x
    rhs = Neg(Div(Ln(Div(Add(R(1), Sqrt(Rat(d))), R(2))), Sqrt(Rat(d))))
    return _gf_entry(
        "EQ17", "17", "gf", "GF_HD", x, rhs,
        f"sum C(2n,n) (H_2n - H_n) x^n at x={x}",
        IdentityStatus.CORRECTED,
        notes="the printed form has ln((1-sqrt(1-4x))/2); the series "
              "equals -ln((1+sqrt(1-4x))/2)/sqrt(1-4x)")


def entry_eq17_as_printed(x: Fraction) -> IdentityEntry:
    """(17) exactly as printed, at rational x in (0, 1/4)."""
    x = Fraction(x)
    if not Fraction(0) < x < Fraction(1, 4):
        raise ValueError("the as-printed form needs x in (0, 1/4)")
    d = Fraction(1) - 4 * x
    rhs = Neg(Div(Ln(Div(Sub(R(1), Sqrt(Rat(d))), R(2))), Sqrt(Rat(d))))
    return _gf_entry(
        "EQ17_AS_PRINTED", "17", "gf", "GF_HD", x, rhs,
        f"sum C(2n,n) (H_2n - H_n) x^n at x={x}",
        IdentityStatus.AS_PRINTED_DISCREPANT,
        notes="transcribed typo: ln((1-sqrt(1-4x))/2) instead of "
              "ln((1+sqrt(1-4x))/2)")


# ---- the constant-series entries -------------------------------------

_RECIPES = {
    # t_n = (P/Q)(n) * (C(2n,n)/4^n)^e * D_kind(n); Q ascending in n
    "EQ1": TermRecipe("EQ1", (1,), (1, 2), 1, "HD"),
    "EQ2": TermRecipe("EQ2", (1,), (0, 1, 2), 1, "HDM"),
    "EQ3": TermRecipe("EQ3", (1,), (3, 5, 2), 1, "H"),
    "EQ34": TermRecipe("EQ34", (0, 1), (3, -4, -16, 16, 16), 1, "1"),
    "EQ35": TermRecipe("EQ35", (0, 1), (3, -4, -16, 16, 16), 1, "1",
                       scale=Fraction(-1)),
    "EQ36": TermRecipe("EQ36", (0, 0, 1), (1, -2, -4, 8), 1, "1"),
    "THM24A": TermRecipe("THM24A", (1,), (1, 3, 2), 1, "HD_HALF"),
    "THM24B": TermRecipe("THM24B", (1,), (1, 5, 8, 4), 0, "HD_HALF"),
    "THM25A": TermRecipe("THM25A", (2, 4), (1, 2, 1), 2, "HD"),
    "THM25B": TermRecipe("THM25B", (1,), (1, 1), 2, "H2N"),
    "THM26": TermRecipe("THM26", (0, 512, 512),
                        (27, 36, -204, -288, 336, 576, 192), 0, "1"),
    "THM27": TermRecipe("THM27", (0, 0, 1), (1, -2, -4, 8), 2, "1"),
}


def _em_entry(entry_id: str, paper_eq: str, family_tag: str,
              status: IdentityStatus, series_desc: str, rhs: ClosedForm,
              term_oracle, max_terms: int = 20000, recipes: tuple = (),
              notes: str = "") -> IdentityEntry:
    """An entry summed from its term recipe(s), at 15 digits."""
    recipes = recipes or (_RECIPES[entry_id],)
    return IdentityEntry(
        id=entry_id, paper_eq=paper_eq, family=family_tag, status=status,
        series_desc=series_desc, rhs=rhs,
        make_stream=lambda: _stream_em(*recipes),
        default_digits=15, max_terms=max_terms, term_oracle=term_oracle,
        notes=notes)


# ---- term oracles computed from first principles ---------------------

def _t_eq1(n):
    return _b4(n) * (harmonic(2 * n) - harmonic(n)) / (2 * n + 1)


def _t_eq2(n):
    return _b4(n) * (harmonic(2 * n - 1) - harmonic(n)) / (n * (2 * n + 1))


def _t_eq3(n):
    return Fraction(catalan_number(n), 4 ** n) * harmonic(n) / (2 * n + 3)


def _t_eq34(n):
    return _b4(n) * n / ((2 * n - 1) ** 2 * (2 * n + 1) * (2 * n + 3))


def _t_eq35(n):
    return -_t_eq34(n)


def _t_eq36(n):
    return _b4(n) * n ** 2 / ((2 * n - 1) ** 2 * (2 * n + 1))


def _t_thm25a(n):
    return (Fraction(catalan_number(n) * central_binomial(n + 1), 16 ** n)
            * (harmonic(2 * n) - harmonic(n)))


def _t_thm25b(n):
    return (Fraction(catalan_number(n) * central_binomial(n), 16 ** n)
            * harmonic(2 * n))


def _t_thm26(n):
    return (Fraction(1024 * n,
                     3 * (2 * n - 1) ** 2 * (2 * n + 1) * (2 * n + 3) ** 2)
            * Fraction(central_binomial(n), central_binomial(n + 1)))


def _t_thm27(n):
    return Fraction(n ** 2 * central_binomial(n) ** 2,
                    16 ** n * (2 * n - 1) ** 2 * (2 * n + 1))


# ---- the registry -----------------------------------------------------

_S2 = Sqrt(R(2))
_S3 = Sqrt(R(3))
_SQH = Sqrt(R(1, 2))          # sqrt(1 - 4x) at x = 1/8
_Q5 = Sqrt(_S5)               # 5^(1/4)


@functools.lru_cache(maxsize=1)
def _entries() -> tuple:
    """The default entries, built once per process."""
    e = []

    # -- prior central-binomial evaluations (1)-(3)
    e.append(_em_entry(
        "EQ1", "1", "binomial", IdentityStatus.PRIOR_WORK,
        "sum C(2n,n) (H_2n - H_n) / (4^n (2n+1))",
        Sub(Mul(_PI, _LN2), Mul(R(2), _G)),
        _t_eq1))
    e.append(_em_entry(
        "EQ2", "2", "binomial", IdentityStatus.PRIOR_WORK,
        "sum C(2n,n) (H_{2n-1} - H_n) / (4^n n (2n+1))",
        Sub(Add(Add(Add(R(2), Mul(R(2), _LN2)), PowInt(_LN2, 2)),
                Mul(R(4), _G)),
            Mul(_PI, Add(R(1), Mul(R(2), _LN2)))),
        _t_eq2))
    e.append(_em_entry(
        "EQ3", "3", "binomial", IdentityStatus.PRIOR_WORK,
        "sum Cat_n H_n / (4^n (2n+3))",
        Add(Sub(Sub(Add(R(2), Mul(R(4), _LN2)), Mul(R(4), _G)), _PI),
            Mul(_PI, _LN2)),
        _t_eq3))

    # -- the master generating function (4), checked at x = 1/8
    e.append(_gf_entry(
        "EQ4", "4", "gf", "GF_M", Fraction(1, 8),
        Mul(Div(R(2), _SQH),
            Ln(Div(Add(R(1), _SQH), Mul(R(2), _SQH)))),
        "sum C(2n,n) H_n x^n at x=1/8",
        IdentityStatus.PRIOR_WORK))

    # -- Fibonacci/Lucas families and aliases (defaults r=4 resp. r=2)
    e.append(build_template_entry("FIB_H", 4))

    # (6)-(8): F-family instances, literal display trees
    c6 = Mul(_AL, _S5)
    e.append(_family_entry(
        "EQ6", "6", "fibonacci", "FIB", "H", 1, _master_form(c6),
        "sum C(2n,n) H_n / ((4 sqrt5)^n alpha^n)"))
    d7 = Sqrt(Sub(Mul(PowInt(_AL, 2), _S5), R(1)))
    n7 = Mul(_AL, _Q5)
    e.append(_family_entry(
        "EQ7", "7", "fibonacci", "FIB", "H", 2,
        Mul(Div(Mul(R(2), n7), d7), Ln(Div(Add(n7, d7), Mul(R(2), d7)))),
        "sum C(2n,n) H_n / ((4 sqrt5)^n alpha^(2n))"))
    c8 = Mul(R(2), Mul(PowInt(_AL, 3), _S5))
    d8 = Sqrt(Sub(c8, R(1)))
    n8 = Mul(Mul(R(2), _S2), Sqrt(Mul(PowInt(_AL, 3), _S5)))
    e.append(_family_entry(
        "EQ8", "8", "fibonacci", "FIB", "H", 3,
        Mul(Div(n8, d8), Ln(Div(Add(Sqrt(c8), d8), Mul(R(2), d8)))),
        "sum C(2n,n) H_n / ((8 sqrt5)^n alpha^(3n))"))

    e.append(build_template_entry("FIB_H_2R", 2))
    e.append(build_template_entry("LUCAS_H", 4))

    # (11)-(13): L-family instances
    e.append(_family_entry(
        "EQ11", "11", "lucas", "LUCAS", "H", 1, _master_form(_AL),
        "sum C(2n,n) H_n / (4^n alpha^n)"))
    d12 = Sqrt(Sub(Mul(R(3), PowInt(_AL, 2)), R(1)))
    n12 = Mul(_AL, _S3)
    e.append(_family_entry(
        "EQ12", "12", "lucas", "LUCAS", "H", 2,
        Mul(Div(Mul(R(2), n12), d12), Ln(Div(Add(n12, d12), Mul(R(2), d12)))),
        "sum C(2n,n) H_n / (12^n alpha^(2n))"))
    d13 = Sqrt(Sub(Mul(R(4), PowInt(_AL, 3)), R(1)))
    s13 = Sqrt(PowInt(_AL, 3))
    e.append(_family_entry(
        "EQ13", "13", "lucas", "LUCAS", "H", 3,
        Mul(Div(Mul(R(4), s13), d13),
            Ln(Div(Add(Mul(R(2), s13), d13), Mul(R(2), d13)))),
        "sum C(2n,n) H_n / (16^n alpha^(3n))"))

    e.append(build_template_entry("LUCAS_H_2R", 2))
    e.append(build_template_entry("LUCAS_HD", 4))

    # (15) extends to r = 0: the header admits non-negative r even
    # though the display is guarded by r > 0, and the identity holds
    e.append(_gf_entry(
        "EQ15_R0", "15", "lucas", "GF_HD", Fraction(1, 8),
        _hd_form(R(2)),
        "sum C(2n,n) (H_2n - H_n) / 8^n  (the r=0 case, c = L_0 = 2)",
        IdentityStatus.CORRECTED,
        notes="the display restricts to r > 0 while the theorem header "
              "says non-negative; the r = 0 case holds as well"))

    e.append(build_template_entry("FIB_HD", 4))

    # (17) corrected and as printed, checked at x = 3/16
    e.append(entry_eq17(Fraction(3, 16)))
    e.append(entry_eq17_as_printed(Fraction(3, 16)))

    # (18)-(23): HD instances, literal display trees
    e.append(_family_entry(
        "EQ18", "18", "lucas", "LUCAS", "HD", 1, _hd_form(_AL),
        "sum C(2n,n) (H_2n - H_n) / (4^n alpha^n)"))
    e.append(_family_entry(
        "EQ19", "19", "lucas", "LUCAS", "HD", 2,
        Neg(Mul(Div(n12, d12), Ln(Div(Add(n12, d12), Mul(R(2), n12))))),
        "sum C(2n,n) (H_2n - H_n) / (12^n alpha^(2n))"))
    e.append(_family_entry(
        "EQ20", "20", "lucas", "LUCAS", "HD", 3,
        Neg(Mul(Div(Mul(R(2), s13), d13),
                Ln(Div(Add(Mul(R(2), s13), d13), Mul(R(4), s13))))),
        "sum C(2n,n) (H_2n - H_n) / (16^n alpha^(3n))"))
    e.append(_family_entry(
        "EQ21", "21", "fibonacci", "FIB", "HD", 1, _hd_form(c6),
        "sum C(2n,n) (H_2n - H_n) / ((4 sqrt5)^n alpha^n)"))
    e.append(_family_entry(
        "EQ22", "22", "fibonacci", "FIB", "HD", 2,
        Neg(Mul(Div(n7, d7), Ln(Div(Add(n7, d7), Mul(R(2), n7))))),
        "sum C(2n,n) (H_2n - H_n) / ((4 sqrt5)^n alpha^(2n))"))
    n23 = Mul(_S2, Sqrt(Mul(PowInt(_AL, 3), _S5)))
    e.append(_family_entry(
        "EQ23", "23", "fibonacci", "FIB", "HD", 3,
        Neg(Mul(Div(n23, d8), Ln(Div(Add(n23, d8), Mul(R(2), n23))))),
        "sum C(2n,n) (H_2n - H_n) / ((8 sqrt5)^n alpha^(3n))"))

    # (24): sin^2 t = 3/4, i.e. x = 3/16 and cos t = 1/2
    e.append(_gf_entry(
        "EQ24", "24", "catalan", "GF_CAT_HALF", Fraction(3, 16),
        Mul(Div(R(8), R(3)),
            Add(Sub(R(1), R(1, 2)), Mul(R(1, 2), Ln(R(1, 2))))),
        "sum Cat_n (H_2n - H_n/2) sin^(2n)t / 4^n at sin^2 t = 3/4",
        IdentityStatus.AS_PRINTED_OK))

    # (25)-(27): Catalan/H_2n generating functions at x = 1/8
    e.append(_gf_entry(
        "EQ25", "25", "catalan", "GF_CAT_HD", Fraction(1, 8),
        Mul(R(4), Add(Sub(R(1), _SQH),
                      Mul(Add(R(1), _SQH),
                          Ln(Div(Add(R(1), _SQH), R(2)))))),
        "sum Cat_n (H_2n - H_n) x^n at x=1/8",
        IdentityStatus.AS_PRINTED_OK))
    e.append(_gf_entry(
        "EQ26", "26", "gf", "GF_H2N", Fraction(1, 8),
        Div(Sub(Ln(Div(Add(R(1), _SQH), R(2))), Mul(R(2), Ln(_SQH))), _SQH),
        "sum C(2n,n) H_2n x^n at x=1/8",
        IdentityStatus.PRIOR_WORK))
    e.append(_gf_entry(
        "EQ27", "27", "catalan", "GF_CAT_H2N", Fraction(1, 8),
        Mul(R(4), Add(Add(Sub(Sub(R(1), _SQH),
                              Mul(Add(R(1), _SQH), Ln(Add(R(1), _SQH)))),
                          _LN2),
                      Mul(_SQH, Ln(R(1))))),
        "sum Cat_n H_2n x^n at x=1/8",
        IdentityStatus.AS_PRINTED_OK))

    # (28)-(30): arcsin-kernel generating functions at x = 1/2
    asp = Asin(R(1, 2))
    rt34 = Sqrt(R(3, 4))
    e.append(_gf_entry(
        "EQ28", "28", "asin", "GF_EQ28", Fraction(1, 2),
        Mul(R(1, 8), Sub(Add(rt34, asp), Mul(R(2), asp))),
        "sum n x^(2n) C(2n,n) / (4^n (2n-1)^2 (2n+1)) at x=1/2",
        IdentityStatus.PRIOR_WORK))
    e.append(_gf_entry(
        "EQ29", "29", "asin", "GF_EQ29", Fraction(1, 2),
        Div(Add(Mul(R(3, 2), asp), Mul(rt34, R(-3, 4))), R(128)),
        "sum n x^(2n+3) C(2n,n) / (4^n (2n-1)^2 (2n+1) (2n+3)) at x=1/2",
        IdentityStatus.AS_PRINTED_OK))
    e.append(_gf_entry(
        "EQ30", "30", "asin", "GF_EQ30", Fraction(1, 2),
        Mul(R(1, 2), Sub(Mul(R(3, 2), asp), Mul(R(1, 2), rt34))),
        "sum 2 n^2 x^(2n-1) C(2n,n) / (4^n (2n-1)^2 (2n+1)) at x=1/2",
        IdentityStatus.AS_PRINTED_OK))

    # -- deluxe series (31)-(40)
    e.append(_gf_entry(
        "EQ31", "31", "catalan", "GF_CAT_HD", Fraction(-1, 8),
        Neg(Mul(Div(R(4), _S2),
                Add(Sub(_S2, _S3),
                    Mul(Add(_S2, _S3),
                        Ln(Div(Add(_S2, _S3), Mul(R(2), _S2))))))),
        "sum (-1)^n Cat_n (H_2n - H_n) / 8^n",
        IdentityStatus.AS_PRINTED_OK))
    e.append(_gf_entry(
        "EQ32", "32", "catalan", "GF_CAT_HD", Fraction(1, 16),
        Mul(R(4), Add(Sub(R(2), _S3),
                      Mul(Add(R(2), _S3), Ln(Div(Add(R(2), _S3), R(4)))))),
        "sum Cat_n (H_2n - H_n) / 16^n",
        IdentityStatus.AS_PRINTED_OK))
    e.append(_gf_entry(
        "EQ33", "33", "catalan", "GF_CAT_HD", Fraction(-1, 16),
        Neg(Mul(R(4), Add(Sub(R(2), _S5),
                          Mul(Add(R(2), _S5),
                              Ln(Div(Add(R(2), _S5), R(4))))))),
        "sum (-1)^n Cat_n (H_2n - H_n) / 16^n",
        IdentityStatus.AS_PRINTED_OK))

    e.append(_em_entry(
        "EQ34", "34", "asin", IdentityStatus.AS_PRINTED_OK,
        "sum n C(2n,n) / (4^n (2n-1)^2 (2n+1) (2n+3))",
        Div(Mul(R(3), _PI), R(256)),
        _t_eq34))
    e.append(_em_entry(
        "EQ35", "35", "asin", IdentityStatus.AS_PRINTED_OK,
        "sum (-1)^(2n+3) n C(2n,n) / (4^n (2n-1)^2 (2n+1) (2n+3))",
        Div(Mul(R(-3), _PI), R(256)),
        _t_eq35,
        notes="(-1)^(2n+3) = -1 for every n, so this is the negation "
              "of the previous series termwise"))
    e.append(_em_entry(
        "EQ36", "36", "asin", IdentityStatus.AS_PRINTED_OK,
        "sum n^2 C(2n,n) / (4^n (2n-1)^2 (2n+1))",
        Div(Mul(R(3), _PI), R(32)),
        _t_eq36))

    # (37)/(38): instances of (17); printed forms inherit its typo
    e.append(_gf_entry(
        "EQ37", "37", "gf", "GF_HD", Fraction(1, 8),
        Neg(Mul(_S2, Ln(Div(Add(_S2, R(1)), Mul(R(2), _S2))))),
        "sum C(2n,n) (H_2n - H_n) / 8^n",
        IdentityStatus.CORRECTED,
        notes="printed with sqrt(2)-1 inside the logarithm; the series "
              "requires sqrt(2)+1"))
    e.append(_gf_entry(
        "EQ37_AS_PRINTED", "37", "gf", "GF_HD", Fraction(1, 8),
        Neg(Mul(_S2, Ln(Div(Sub(_S2, R(1)), Mul(R(2), _S2))))),
        "sum C(2n,n) (H_2n - H_n) / 8^n",
        IdentityStatus.AS_PRINTED_DISCREPANT,
        notes="transcribed typo: (sqrt(2)-1) in place of (sqrt(2)+1)"))
    e.append(_gf_entry(
        "EQ38", "38", "gf", "GF_HD", Fraction(1, 16),
        Neg(Mul(Div(R(2), _S3), Ln(Div(Add(R(2), _S3), R(4))))),
        "sum C(2n,n) (H_2n - H_n) / 16^n",
        IdentityStatus.CORRECTED,
        notes="printed as -(2/sqrt3) ln((2-sqrt3)/(2 sqrt2)); the series "
              "equals -(2/sqrt3) ln((2+sqrt3)/4)"))
    e.append(_gf_entry(
        "EQ38_AS_PRINTED", "38", "gf", "GF_HD", Fraction(1, 16),
        Neg(Mul(Div(R(2), _S3), Ln(Div(Sub(R(2), _S3), Mul(R(2), _S2))))),
        "sum C(2n,n) (H_2n - H_n) / 16^n",
        IdentityStatus.AS_PRINTED_DISCREPANT,
        notes="transcribed typo: ln((2-sqrt3)/(2 sqrt2)) in place of "
              "ln((2+sqrt3)/4)"))

    e.append(_gf_entry(
        "EQ39", "39", "catalan", "GF_CAT_HALF", Fraction(1, 8),
        Mul(R(4), Sub(Sub(R(1), Div(R(1), _S2)),
                      Div(_LN2, Mul(R(2), _S2)))),
        "sum Cat_n (H_2n - H_n/2) / 8^n",
        IdentityStatus.AS_PRINTED_OK))
    h3 = Div(_S3, R(2))
    e.append(_gf_entry(
        "EQ40", "40", "catalan", "GF_CAT_HALF", Fraction(1, 16),
        Mul(R(8), Add(Sub(R(1), h3), Mul(h3, Ln(h3)))),
        "sum Cat_n (H_2n - H_n/2) / 16^n",
        IdentityStatus.AS_PRINTED_OK))

    # -- the four unnumbered theorems
    e.append(_em_entry(
        "THM24", "thm2.4", "binomial", IdentityStatus.AS_PRINTED_OK,
        "sum Cat_n (H_2n - H_n/2) (pi/2 - (2n)!!/(2n+1)!!) "
        "/ (4^n (2n+1))",
        Add(Add(Mul(R(2), _LN2), Mul(R(7, 8), _Z3)),
            Mul(Div(_PI, R(12)),
                Add(R(-12), Mul(_PI, Add(R(-1), Ln(R(8))))))),
        None,
        max_terms=100000,
        recipes=(_RECIPES["THM24A"], _RECIPES["THM24B"]),
        notes="pi enters each term; the stream tracks the two rational "
              "components exactly and combines with pi/2 once"))
    e.append(_em_entry(
        "THM25A", "thm2.5a", "catalan", IdentityStatus.AS_PRINTED_OK,
        "sum Cat_n C(2n+2,n+1) (H_2n - H_n) / 16^n",
        Mul(Div(R(16), _PI), psi_tree()),
        _t_thm25a,
        max_terms=10 ** 7))
    e.append(_em_entry(
        "THM25B", "thm2.5b", "catalan", IdentityStatus.AS_PRINTED_OK,
        "sum Cat_n C(2n,n) H_2n / 16^n",
        Mul(Div(R(2), _PI), psi_star_tree()),
        _t_thm25b))
    e.append(_em_entry(
        "THM26", "thm2.6", "binomial", IdentityStatus.AS_PRINTED_OK,
        "sum 1024 n / (3 (2n-1)^2 (2n+1) (2n+3)^2) "
        "* C(2n,n)/C(2n+2,n+1)",
        _Z2,
        _t_thm26,
        max_terms=10 ** 4))
    e.append(_em_entry(
        "THM27", "thm2.7", "binomial", IdentityStatus.AS_PRINTED_OK,
        "sum n^2 C(2n,n)^2 / (16^n (2n-1)^2 (2n+1))",
        Add(Div(_G, Mul(R(4), _PI)), Div(R(1), Mul(R(8), _PI))),
        _t_thm27,
        max_terms=10 ** 7))
    return tuple(e)


def make_registry() -> dict:
    """Ordered id -> IdentityEntry map with the default parameters: a
    fresh dict over the entries built once per process."""
    reg = {}
    for entry in _entries():
        if entry.id in reg:
            raise RuntimeError(f"duplicate entry id {entry.id!r}")
        reg[entry.id] = entry
    return reg


_EXPECTED_COVERAGE = ({str(k) for k in range(1, 41)}
                      | {"thm2.4", "thm2.5a", "thm2.5b", "thm2.6", "thm2.7"})


def coverage_report(reg: Optional[dict] = None) -> dict:
    """Which catalog numbers are covered, missing, or unexpected."""
    if reg is None:
        reg = make_registry()
    covered = {entry.paper_eq for entry in reg.values()}
    return {
        "covered": sorted(covered, key=lambda s: (len(s), s)),
        "missing": sorted(_EXPECTED_COVERAGE - covered),
        "unexpected": sorted(covered - _EXPECTED_COVERAGE),
        "n_entries": len(reg),
    }
