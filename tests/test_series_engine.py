"""Term streams, tail strategies, and rigorous summation."""

import dataclasses
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm import _emtail, series_engine
from binomharm.ball_arith import Ball, ConstantName, DomainError, constant
from binomharm.exact_core import SurdQ5, harmonic
from binomharm.genfunc import family_stream, substitution_point
from binomharm.registry import (TEMPLATE_IDS, build_template_entry,
                                make_registry)
from binomharm.series_engine import (AsymptoticTail, GeometricTail,
                                     HarmonicStream, PrecisionNotReached,
                                     SignPattern, TailHypothesisViolation,
                                     TermRecipe, d_value,
                                     empirical_tail_check, series_from,
                                     sum_to_precision)

PREC = 200


def interval(b):
    return b.to_interval_fractions()


def contains(b, v: Fraction) -> bool:
    lo, hi = interval(b)
    return lo <= v <= hi


def geometric_stream(q: Fraction) -> HarmonicStream:
    sign = SignPattern.POSITIVE if q > 0 else SignPattern.ALTERNATING
    return HarmonicStream(seed=q, A=(q.numerator,), B=(q.denominator,),
                          kind="1", sign=sign)


@dataclasses.dataclass(frozen=True)
class ClaimedQ(GeometricTail):
    """A geometric tail that claims the ratio bound ``q`` instead of
    deriving one: the proof is called with that same q."""

    q: Fraction = Fraction(1, 2)

    def ratio(self, stream, N, claim=None):
        return super().ratio(stream, N, self.q)


# ----------------------------------------------------------------------
# harmonic-difference kinds


@given(st.sampled_from(["1", "H", "HD", "HDM", "H2N", "HD_HALF"]),
       st.integers(min_value=1, max_value=200))
def test_d_value_definitions(kind, n):
    expected = {
        "1": Fraction(1),
        "H": harmonic(n),
        "HD": harmonic(2 * n) - harmonic(n),
        "HDM": harmonic(2 * n - 1) - harmonic(n),
        "H2N": harmonic(2 * n),
        "HD_HALF": harmonic(2 * n) - harmonic(n) / 2,
    }[kind]
    assert d_value(kind, n) == expected


@pytest.mark.parametrize("kind", sorted(series_engine.HARMONIC_KINDS))
def test_harmonic_table_matches_d_value(kind):
    # D_1 and the increments derived from (kappa, a, b, c), summed,
    # against the hand-written reference, n = 1..300
    hk = series_engine.HARMONIC_KINDS[kind]
    d = hk.first
    for n in range(1, 301):
        assert d == d_value(kind, n), (kind, n)
        d += hk.delta(n)


# ----------------------------------------------------------------------
# the one constructor: a recipe's sign and tail follow from y


def test_series_from_derives_sign_and_tail_from_y():
    base = TermRecipe("T", (1,), (1, 1), 1, "HD")
    surd = 4 * substitution_point("FIB", 1)
    cases = [(base, SignPattern.POSITIVE, AsymptoticTail),
             (dataclasses.replace(base, scale=Fraction(-3)),
              SignPattern.NEGATIVE, AsymptoticTail),
             (dataclasses.replace(base, y=Fraction(-1, 2)),
              SignPattern.ALTERNATING, GeometricTail),
             (dataclasses.replace(base, y=surd, scale=Fraction(-1)),
              SignPattern.NEGATIVE, GeometricTail),
             (dataclasses.replace(base, y=-surd), SignPattern.ALTERNATING,
              GeometricTail)]
    for recipe, sign, tail in cases:
        stream, strategy = series_from(recipe)
        assert (stream.sign, type(strategy)) == (sign, tail), recipe
    # |y| > 1, or y = -1: neither tail applies
    for y in (Fraction(-1), Fraction(3, 2), SurdQ5.sqrt5(), -surd * 5):
        with pytest.raises(DomainError):
            series_from(dataclasses.replace(base, y=y))
    # and the Euler-Maclaurin tail refuses every y but 1
    with pytest.raises(ValueError, match="needs y = 1"):
        _emtail.tail_enclosure(dataclasses.replace(base, y=Fraction(1, 2)),
                               64, PREC)


# ----------------------------------------------------------------------
# streams: the fixed-point kernel encloses the exact route


def test_pure_ratio_exact_partials():
    s = geometric_stream(Fraction(1, 2))
    assert s.partial_sum_exact(5) == Fraction(31, 32)
    assert s.term(3) == Fraction(1, 8)


@given(st.integers(min_value=1, max_value=120))
def test_fixed_route_contains_exact_sum(N):
    # (2n+1)^2 / ((2n+2)(2n+3))
    s = HarmonicStream(seed=Fraction(1, 6), A=(1, 4, 4), B=(6, 10, 4),
                       kind="HD")
    total, last = s.partial_sum(N, 150)
    assert contains(total, s.partial_sum_exact(N))
    assert contains(last, s.term(N))


def test_kernel_rejects_inexact_coefficients():
    s = HarmonicStream(seed=Fraction(1, 3), A=(1 / 3,), B=(1,))
    with pytest.raises(TypeError):
        s.partial_sum(10, 100)


def _fine_interval(v, prec):
    """Interval of a tight enclosure of an exact term or partial sum.

    Theorem 2.4's exact route yields the rational pair (U D, U D W),
    which stands for pi/2 U D - U D W.
    """
    if isinstance(v, tuple):
        half_pi = constant(ConstantName.PI, prec).mul_2exp(-1)
        return interval(half_pi * Ball.from_fraction(v[0], prec)
                        - Ball.from_fraction(v[1], prec))
    if isinstance(v, SurdQ5):
        return interval(Ball.from_surd(v, prec))
    return interval(Ball.from_fraction(v, prec))


def _encloses(b, fine) -> bool:
    lo, hi = interval(b)
    return lo <= fine[0] and fine[1] <= hi


_CONTAIN_NS = (1, 2, 64, 65, 200)
_CONTAIN_CASES = list(make_registry()) + [
    f"{t}@{r}" for t in TEMPLATE_IDS for r in (1, 2, 3, 10)]


@pytest.mark.parametrize("case", _CONTAIN_CASES)
def test_partial_sum_contains_exact_sum(case):
    if "@" in case:
        tid, r = case.split("@")
        entry = build_template_entry(tid, int(r))
    else:
        entry = make_registry()[case]
    stream, _ = entry.make_stream()
    total = None
    for n, t in stream.iter_exact():
        if n > max(_CONTAIN_NS):
            break
        if total is None:
            total = t
        elif isinstance(t, tuple):
            total = (total[0] + t[0], total[1] + t[1])
        else:
            total = total + t
        if n not in _CONTAIN_NS:
            continue
        s, last = stream.partial_sum(n, PREC)
        assert _encloses(s, _fine_interval(total, 4 * PREC)), \
            f"{case}: partial sum at N={n}"
        if isinstance(t, tuple):
            # the last-term ball of Theorem 2.4 bounds |t_N| from above
            t_hi = _fine_interval(t, 4 * PREC)[1]
            assert interval(last)[1] >= t_hi, f"{case}: last term at N={n}"
        else:
            assert _encloses(last, _fine_interval(t, 4 * PREC)), \
                f"{case}: last term at N={n}"


# ----------------------------------------------------------------------
# the resumable kernel: a cursor steps each index once


def _cursor_streams():
    streams = {f"rational point, kind {k}": HarmonicStream(
        seed=Fraction(1, 3), A=(1, 2), B=(2, 2), kind=k,
        point=Fraction(-2, 5)) for k in series_engine.HARMONIC_KINDS}
    streams["Q(sqrt5) FIB HD r=2"] = family_stream("FIB", 2, "HD")[0]
    streams["Q(sqrt5) LUCAS H r=3"] = family_stream("LUCAS", 3, "H")[0]
    streams["THM24"] = make_registry()["THM24"].make_stream()[0]
    assert isinstance(streams["Q(sqrt5) FIB HD r=2"].point, SurdQ5)
    return streams


_CURSOR_STREAMS = _cursor_streams()


def _same_ball(a, b) -> bool:
    return (a.mid, a.rad, a.prec) == (b.mid, b.rad, b.prec)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_CURSOR_STREAMS)),
       st.lists(st.integers(min_value=-1, max_value=300), min_size=1,
                max_size=6).map(sorted))
def test_cursor_matches_fresh_partial_sums(name, cuts):
    stream = _CURSOR_STREAMS[name]
    cursor = stream.cursor(PREC)
    for N in cuts:
        total, last = cursor.advance(N)
        fresh_total, fresh_last = stream.partial_sum(N, PREC)
        assert _same_ball(total, fresh_total), (name, N)
        assert _same_ball(last, fresh_last), (name, N)


@pytest.mark.parametrize("name", ["rational point, kind H", "THM24"])
def test_cursor_cannot_advance_backwards(name):
    cursor = _CURSOR_STREAMS[name].cursor(PREC)
    first = cursor.advance(40)
    again = cursor.advance(40)
    assert _same_ball(first[0], again[0]) and _same_ball(first[1], again[1])
    with pytest.raises(ValueError):
        cursor.advance(39)


@pytest.mark.parametrize("digits", [10, 40, 200])
def test_sum_to_precision_steps_each_index_once(monkeypatch, digits):
    # a kind-"1" step evaluates A and B once each, so the kernel's
    # pvalues blocks cover every index twice; restarting at the
    # predicted cut would cover the first 16 indices twice more, and a
    # block run past the cut would cover indices beyond n_terms.  At
    # ratio 1/2 every digit count takes two cuts, 16 and a predicted one
    covered = []
    real = series_engine.pvalues

    def counting(c, n0, n1, k=1):
        covered.extend(range(n0, n1 + 1))
        return real(c, n0, n1, k)

    monkeypatch.setattr(series_engine, "pvalues", counting)
    stream = geometric_stream(Fraction(1, 2))
    res = sum_to_precision(stream, GeometricTail(), digits)
    assert res.n_terms >= 32
    assert len(covered) == 2 * (res.n_terms - stream.first_index + 1)
    assert sorted(set(covered)) == list(range(stream.first_index,
                                              res.n_terms + 1))


# ----------------------------------------------------------------------
# tail strategies


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10),
                    max_denominator=100),
       st.integers(min_value=1, max_value=60))
def test_geometric_tail_bounds_true_tail(q, N):
    s = geometric_stream(q)
    tail_true = q ** (N + 1) / (1 - q)  # sum_{n>N} q^n
    _, last = s.partial_sum(N, PREC)
    tail = GeometricTail().tail_ball(s, N, PREC, last)
    lo, hi = interval(tail)
    assert lo <= tail_true <= hi


# ----------------------------------------------------------------------
# sum_to_precision


def test_sum_reaches_requested_digits():
    q = Fraction(1, 3)
    res = sum_to_precision(geometric_stream(q), GeometricTail(), 40)
    limit = q / (1 - q)
    assert contains(res.value, limit)
    assert res.value.rad_fraction() < Fraction(1, 10 ** 40)
    assert res.mode == "fixed"
    assert res.n_terms >= 1


def test_budget_exhaustion_raises_with_best_effort():
    # a budget one term short of the Euler-Maclaurin tail's planned cut
    # for EQ1 must fail loudly before summing anything
    stream, strat = make_registry()["EQ1"].make_stream()
    budget = strat.plan_terms(series_engine._tol_for(15) / 2, 10 ** 7) - 1
    with pytest.raises(PrecisionNotReached) as info:
        sum_to_precision(stream, strat, 15, max_terms=budget)
    err = info.value
    assert err.requested_digits == 15
    assert err.n_terms == 0
    assert err.best is None


_ASYMPTOTIC_IDS = ("EQ1", "EQ2", "EQ3", "EQ34", "EQ35", "EQ36", "THM24",
                   "THM25A", "THM25B", "THM26", "THM27")


def test_asymptotic_ids_are_the_planned_tails():
    planned = [eid for eid, e in make_registry().items()
               if e.make_stream()[1].plan_terms(Fraction(1), 1) is not None]
    assert sorted(planned) == sorted(_ASYMPTOTIC_IDS)


def _planned_sum(eid):
    """(result, the cuts tail_ball was called at, the planned cut) of
    the entry's sum at its default digits."""
    entry = make_registry()[eid]
    stream, strat = entry.make_stream()
    tol = series_engine._tol_for(entry.default_digits) / 2
    cuts = []
    tail_ball = strat.tail_ball

    def counted(stream, N, *args):
        cuts.append(N)
        return tail_ball(stream, N, *args)

    # the strategy is frozen; the counter shadows its method on this
    # instance only
    object.__setattr__(strat, "tail_ball", counted)
    res = sum_to_precision(stream, strat, entry.default_digits,
                           max_terms=entry.max_terms)
    return res, cuts, strat.plan_terms(tol, entry.max_terms)


@pytest.mark.parametrize("eid", _ASYMPTOTIC_IDS)
def test_planned_tail_closes_at_first_cut(eid):
    # the error model is conservative: one tail per sum, no x4 rung
    res, cuts, planned = _planned_sum(eid)
    assert cuts == [planned]
    assert res.n_terms == planned <= 2048


# The 2048-term, degree-12 enclosures of the sums at default digits
# before the cut and the degree were planned, as the verifier printed
# them (series_mid to 25 significant digits, series_rad): the oracle
# for the planned sums.
_UNPLANNED_2048 = {
    "EQ1": ("0.3456549019491641003914819", "3.33e-35"),
    "EQ2": ("0.03384491754997060425595965", "3.26e-36"),
    "EQ3": ("0.1447197822447140694885599", "1.39e-35"),
    "EQ34": ("0.0368155389092553895132341", "3.55e-36"),
    "EQ35": ("-0.0368155389092553895132341", "3.55e-36"),
    "EQ36": ("0.2945243112740431161058728", "2.84e-35"),
    "THM24": ("0.184306580334908298072254", "8.93e-35"),
    "THM25A": ("0.5235080797033490302007249", "5.05e-35"),
    "THM25B": ("0.6256123429033435653935929", "6.03e-35"),
    "THM26": ("1.644934066848226436472415", "1.59e-34"),
    "THM27": ("0.1126789617806785289768171", "1.09e-35"),
}


@pytest.mark.parametrize("eid", _ASYMPTOTIC_IDS)
def test_planned_sum_overlaps_unplanned_enclosure(eid):
    mid, rad = map(Fraction, _UNPLANNED_2048[eid])
    # 25 significant digits of a value below 10 are within 10^-24
    rad += Fraction(1, 10 ** 24)
    res, _, _ = _planned_sum(eid)
    lo, hi = interval(res.value)
    assert lo <= mid + rad and mid - rad <= hi


def test_hypothesis_violation_detected():
    # claimed bound 1/3 but true ratio 1/2: the tail proof must refuse
    # to certify the sum
    s = geometric_stream(Fraction(1, 2))
    bad = ClaimedQ(q=Fraction(1, 3))
    with pytest.raises(TailHypothesisViolation):
        sum_to_precision(s, bad, 30)


def _last(stream, N):
    return stream.partial_sum(N, PREC)[1]


def test_surd_envelope_replay_is_exact():
    # an irrational point enters the proof through a rational bound on
    # |x|; bounds within 10^-80 of |x| on either side are decided
    # exactly, far below what a 120-bit ball comparison can resolve
    stream, _ = family_stream("FIB", 1, "H")
    lo, hi = Ball.from_surd(abs(stream.point), 400).to_interval_fractions()
    gap = Fraction(1, 10 ** 80)
    above = GeometricTail(point_bound=hi + gap)
    below = GeometricTail(point_bound=lo - gap)
    assert above.tail_ball(stream, 16, PREC, _last(stream, 16)) is not None
    with pytest.raises(TailHypothesisViolation, match="point bound"):
        below.tail_ball(stream, 16, PREC, _last(stream, 16))


def test_mixed_type_first_step_is_checked():
    # a rational seed at a Q(sqrt5) point: t_1 is rational, t_2 is not,
    # and the step between them must be decided like every other one
    stream = HarmonicStream(seed=Fraction(1),
                            point=substitution_point("FIB", 1),
                            A=(1,), B=(1,))
    tight = ClaimedQ(q=Fraction(1, 100), point_bound=Fraction(1, 10))
    with pytest.raises(TailHypothesisViolation, match=r"at n=1\b"):
        tight.tail_ball(stream, 1, PREC, _last(stream, 1))


def test_tail_proof_is_not_capped():
    # t_(n+1)/t_n = n/2000 stays below 1/2 up to n = 1000 and then grows
    # without bound: the series diverges, yet every step a sample of the
    # first few hundred terms could see is within the claimed bound
    stream = HarmonicStream(seed=Fraction(1), A=(0, 1), B=(2000,))
    # no Q below 1 is derived for a ratio that grows without bound
    assert GeometricTail().ratio(stream, 16) is None
    half = ClaimedQ(q=Fraction(1, 2))
    with pytest.raises(TailHypothesisViolation, match=r"at n=1001\b"):
        half.tail_ball(stream, 16, PREC, _last(stream, 16))
    with pytest.raises(TailHypothesisViolation, match=r"at n=1001\b"):
        sum_to_precision(stream, half, 30)


def test_false_positive_declaration_is_refused():
    # the tail ball is centred on [0, b] by a POSITIVE declaration, so a
    # false one must be refused, not trusted
    wrong = dataclasses.replace(geometric_stream(Fraction(-1, 2)),
                                sign=SignPattern.POSITIVE)
    with pytest.raises(TailHypothesisViolation,
                       match="declared sign positive"):
        sum_to_precision(wrong, GeometricTail(), 30)


@pytest.mark.parametrize("declared", [SignPattern.POSITIVE,
                                      SignPattern.NEGATIVE])
def test_declared_sign_is_proven(declared):
    want = 1 if declared is SignPattern.POSITIVE else -1
    tail = GeometricTail()

    def stream(seed_sign, a):
        return HarmonicStream(seed=Fraction(seed_sign, 2), A=(a,), B=(2,),
                              sign=declared)

    for bad, why in ((stream(-want, 1), r"seed .* fails at n=1\b"),
                     (stream(want, -1), r"A\(n\) B\(n\) > 0 fails at n=1\b")):
        with pytest.raises(TailHypothesisViolation,
                           match=f"declared sign {declared.value}.*{why}"):
            tail.tail_ball(bad, 16, PREC, _last(bad, 16))
    res = sum_to_precision(stream(want, 1), tail, 30)
    assert contains(res.value, Fraction(want))


@pytest.mark.parametrize("stream, tail", [
    # no exact step ratios
    (make_registry()["THM24"].make_stream()[0], GeometricTail()),
    # an inexact bound
    (geometric_stream(Fraction(1, 3)), ClaimedQ(q=0.5)),
    # an inexact step ratio
    (HarmonicStream(seed=Fraction(1, 3), A=(1 / 3,), B=(1,)),
     GeometricTail()),
], ids=["thm24-stream", "float-envelope", "float-ratio"])
def test_undecidable_replay_raises(stream, tail):
    with pytest.raises(TypeError):
        tail.tail_ball(stream, 16, PREC, Ball.from_fraction(Fraction(1), PREC))


def _term_form_violation(terms, Q, N, span):
    """Oracle: the first N <= n <= N + span with |t_(n+1)| > Q |t_n|,
    decided on the exact terms themselves, or None."""
    def surd(t):
        return t if isinstance(t, SurdQ5) else SurdQ5.from_rational(t)

    for n in range(N, N + span + 1):
        if (abs(surd(terms[n])) * Q - abs(surd(terms[n + 1]))).sign() < 0:
            return n
    return None


def _proof_violation(stream, strategy, N):
    try:
        assert strategy.tail_ball(stream, N, PREC, _last(stream, N)) \
            is not None
    except TailHypothesisViolation as exc:
        return int(re.search(r"at n=(\d+)", str(exc)).group(1))
    return None


def _geometric_cases():
    reg = make_registry()
    ids = [k for k, e in reg.items()
           if isinstance(e.make_stream()[1], GeometricTail)]
    return ids + [f"{t}@{r}" for t in TEMPLATE_IDS for r in (1, 2, 3, 10)]


_PROOF_CUTS = (16, 32, 64, 128, 256)
_REPLAY_SPAN = 160


@pytest.mark.parametrize("case", _geometric_cases())
def test_ratio_replay_matches_term_replay(case):
    """The tail proof against the exact term-form replay.

    At every cut N the derived and proven Q holds on the exact terms
    for N <= n <= N + 160, and a Q 10^-80 below the exact
    |t_(N+1) / t_N| is refused by both, at n = N.
    """
    if "@" in case:
        tid, r = case.split("@")
        entry = build_template_entry(tid, int(r))
    else:
        entry = make_registry()[case]
    stream, real = entry.make_stream()
    top = max(_PROOF_CUTS) + _REPLAY_SPAN + 1
    terms = dict(itertools.islice(stream.iter_exact(),
                                  top - stream.first_index + 1))
    gap = Fraction(1, 10 ** 80)
    for N in _PROOF_CUTS:
        Q = real.ratio(stream, N)
        assert Q is not None and Q < 1, case
        assert _proof_violation(stream, real, N) is None, (case, N)
        assert _term_form_violation(terms, Q, N, _REPLAY_SPAN) is None, \
            (case, N)
        ratio = abs(terms[N + 1] / terms[N])
        if isinstance(ratio, SurdQ5):
            lo = Ball.from_surd(ratio, 400).to_interval_fractions()[0]
        else:
            lo = ratio
        low = ClaimedQ(q=lo - gap, point_bound=real.point_bound)
        assert _term_form_violation(terms, lo - gap, N, 0) == N, (case, N)
        assert _proof_violation(stream, low, N) == N, (case, N)


_GEOMETRIC_IDS = [k for k in _geometric_cases() if "@" not in k]


@pytest.mark.parametrize("eid", _GEOMETRIC_IDS)
def test_derived_q_bounds_every_exact_ratio(eid):
    """The Q each geometric tail derives and proves at N is at least
    every exact |t_(n+1) / t_n| for N <= n <= N + 200."""
    stream, strategy = make_registry()[eid].make_stream()
    cuts, span = (16, 32, 128), 200
    top = max(cuts) + span + 1
    terms = dict(itertools.islice(stream.iter_exact(),
                                  top - stream.first_index + 1))
    for N in cuts:
        Q = strategy.ratio(stream, N)
        assert Q is not None and Q < 1, (eid, N)
        assert _term_form_violation(terms, Q, N, span) is None, (eid, N)


def test_geometric_ids_are_the_catalog_tails():
    assert len(_GEOMETRIC_IDS) == 38


def test_hump_is_proven_from_the_witness():
    # |A/B| = 1 + 10n / (n^2 + 20n + 400) climbs from n = 16 to its peak
    # at n = 20: the Q derived at 16 is refuted at 17, and each witness
    # raises Q until the one derived at the peak holds
    stream = HarmonicStream(seed=Fraction(1), point=Fraction(1, 2),
                            A=(400, 30, 1), B=(400, 20, 1))
    tail = GeometricTail()
    derived_16 = Fraction(1, 2) * stream.ratio(16)
    with pytest.raises(TailHypothesisViolation, match=r"at n=17\b"):
        tail.ratio(stream, 16, derived_16)
    Q = tail.ratio(stream, 16)
    assert Fraction(1, 2) * stream.ratio(20) <= Q
    assert Q < Fraction(1, 2) * stream.ratio(20) * (1 + Fraction(1, 10 ** 9))
    assert tail.ratio(stream, 16, Q) == Q
    terms = dict(itertools.islice(stream.iter_exact(), 300))
    assert _term_form_violation(terms, Q, 16, 250) is None


# ----------------------------------------------------------------------
# empirical tail audit


def test_empirical_tail_check_passes_on_sound_setup():
    q = Fraction(1, 3)
    rows = empirical_tail_check(geometric_stream(q), GeometricTail())
    assert [row["N"] for row in rows] == [32, 128, 512]
    assert all(row["ok"] for row in rows)
    for row in rows:
        assert row["observed"] <= row["bound"]


def test_empirical_tail_check_flags_unsound_bound():
    # the claimed Q lies by a factor 500, so the claimed tail bound falls
    # under the observed remainder
    q = Fraction(1, 2)
    lying = ClaimedQ(q=Fraction(1, 1000))
    rows = empirical_tail_check(geometric_stream(q), lying, probes=(32,))
    assert rows and not rows[0]["ok"]
    # the tail proof refutes the bound at the cut, and the row says where
    assert rows[0]["bound"] is None
    assert "at n=32" in rows[0]["note"]


_FROZEN_AUDIT = Path(__file__).parent / "fixtures" / "tail_audit.json"


def tail_audit_rows() -> dict:
    """empirical_tail_check rows of every catalog entry at the probes
    (32, 128) and 160 bits, the inputs of perfbench's tail_audit."""
    return {eid: empirical_tail_check(*entry.make_stream(), probes=(32, 128),
                                      prec=160)
            for eid, entry in make_registry().items()}


def test_tail_audit_matches_frozen_output():
    """Probe rows are unchanged, observed gaps and bounds included.  A
    change that is meant to move them regenerates the fixture with

        PYTHONPATH=src:tests python -c "import json, test_series_engine \\
        as t; print(json.dumps(t.tail_audit_rows(), indent=1))" \\
        > tests/fixtures/tail_audit.json

    and announces the regeneration in CHANGES.md.
    """
    rows = tail_audit_rows()
    assert json.dumps(rows, indent=1) + "\n" == _FROZEN_AUDIT.read_text()
