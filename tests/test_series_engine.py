"""Term streams, tail strategies, and rigorous summation."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binomharm.ball_arith import Ball, ConstantName, constant
from binomharm.exact_core import SurdQ5, harmonic
from binomharm.genfunc import family_stream, substitution_point
from binomharm.registry import (TEMPLATE_IDS, build_template_entry,
                                make_registry)
from binomharm.series_engine import (GeometricTail, HarmonicStream,
                                     PrecisionNotReached, SignPattern,
                                     TailHypothesisViolation,
                                     _run_checks, d_value,
                                     empirical_tail_check, sum_to_precision)

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


def geometric_tail(q: Fraction) -> GeometricTail:
    aq = abs(q)
    return GeometricTail(step_env=lambda n: aq, sup_env=lambda n: aq)


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
# tail strategies


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10),
                    max_denominator=100),
       st.integers(min_value=1, max_value=60))
def test_geometric_tail_bounds_true_tail(q, N):
    s = geometric_stream(q)
    tail_true = q ** (N + 1) / (1 - q)  # sum_{n>N} q^n
    _, last = s.partial_sum(N, PREC)
    tail = geometric_tail(q).tail_ball(s, N, PREC, last)
    lo, hi = interval(tail)
    assert lo <= tail_true <= hi


# ----------------------------------------------------------------------
# sum_to_precision


def test_sum_reaches_requested_digits():
    q = Fraction(1, 3)
    res = sum_to_precision(geometric_stream(q), geometric_tail(q), 40)
    limit = q / (1 - q)
    assert contains(res.value, limit)
    assert res.value.rad_fraction() < Fraction(1, 10 ** 40)
    assert res.mode == "fixed"
    assert res.n_terms >= 1


def test_budget_exhaustion_raises_with_best_effort():
    # the Euler-Maclaurin tail plans 2048 terms for EQ1; a 1000-term
    # budget must fail loudly before summing anything
    stream, strat = make_registry()["EQ1"].make_stream()
    with pytest.raises(PrecisionNotReached) as info:
        sum_to_precision(stream, strat, 15, max_terms=1000)
    err = info.value
    assert err.requested_digits == 15
    assert err.n_terms > 1000
    assert err.best is None


def test_hypothesis_violation_detected():
    # claimed envelope 1/3 but true ratio 1/2: the replay check must
    # refuse to certify the sum
    s = geometric_stream(Fraction(1, 2))
    bad = GeometricTail(step_env=lambda n: Fraction(1, 3),
                        sup_env=lambda n: Fraction(1, 2))
    with pytest.raises(TailHypothesisViolation):
        sum_to_precision(s, bad, 30)


def test_surd_envelope_replay_is_exact():
    # the true first ratio |t_2/t_1| lies in Q(sqrt5); envelopes within
    # 10^-80 of it on either side are decided exactly, far below what a
    # 120-bit ball comparison can resolve
    stream, sound = family_stream("FIB", 1, "H")
    _run_checks(stream, sound, 160)
    ratio = stream.term(2) / stream.term(1)
    lo, hi = Ball.from_surd(ratio, 400).to_interval_fractions()
    gap = Fraction(1, 10 ** 80)
    above = GeometricTail(step_env=lambda n: hi + gap, sup_env=sound.sup_env)
    below = GeometricTail(step_env=lambda n: lo - gap, sup_env=sound.sup_env)
    _run_checks(stream, above, 2)
    with pytest.raises(TailHypothesisViolation):
        _run_checks(stream, below, 2)


def test_checks_can_be_disabled():
    s = geometric_stream(Fraction(1, 2))
    bad = GeometricTail(step_env=lambda n: Fraction(1, 3),
                        sup_env=lambda n: Fraction(1, 2))
    res = sum_to_precision(s, bad, 30, check_hypotheses=False)
    assert contains(res.value, Fraction(1))


def test_mixed_type_first_step_is_checked():
    # a rational seed at a Q(sqrt5) point: t_1 is rational, t_2 is not,
    # and the step between them must be decided like every other one
    stream = HarmonicStream(seed=Fraction(1),
                            point=substitution_point("FIB", 1),
                            A=(1,), B=(1,))
    tight = GeometricTail(step_env=lambda n: Fraction(1, 100),
                          sup_env=lambda n: Fraction(1, 100))
    with pytest.raises(TailHypothesisViolation, match=r"at n=2\b"):
        _run_checks(stream, tight, 2)


def _sound_tail():
    return GeometricTail(step_env=lambda n: Fraction(1, 2),
                         sup_env=lambda n: Fraction(1, 2))


@pytest.mark.parametrize("stream, tail", [
    # no exact step ratios
    (make_registry()["THM24"].make_stream()[0], _sound_tail()),
    # an inexact envelope
    (geometric_stream(Fraction(1, 3)),
     GeometricTail(step_env=lambda n: 0.5, sup_env=lambda n: Fraction(1, 2))),
    # an inexact term ratio
    (HarmonicStream(seed=Fraction(1, 3), A=(1 / 3,), B=(1,)),
     _sound_tail()),
], ids=["thm24-stream", "float-envelope", "float-ratio"])
def test_undecidable_replay_raises(stream, tail):
    with pytest.raises(TypeError):
        _run_checks(stream, tail, 160)


def _term_form_violation(terms, step_env, upto):
    """Oracle: the first n <= upto with |t_n| > step_env(n-1) |t_{n-1}|,
    decided on the exact terms themselves, or None."""
    def surd(t):
        return t if isinstance(t, SurdQ5) else SurdQ5.from_rational(t)

    for (_, t_prev), (n, t_cur) in zip(terms, terms[1:]):
        if n > upto:
            break
        if (abs(surd(t_prev)) * step_env(n - 1) - abs(surd(t_cur))).sign() < 0:
            return n
    return None


def _ratio_form_violation(stream, strategy, upto):
    try:
        _run_checks(stream, strategy, upto)
    except TailHypothesisViolation as exc:
        return int(re.search(r"at n=(\d+)", str(exc)).group(1))
    return None


def _geometric_cases():
    reg = make_registry()
    ids = [k for k, e in reg.items()
           if isinstance(e.make_stream()[1], GeometricTail)]
    return ids + [f"{t}@{r}" for t in TEMPLATE_IDS for r in (1, 2, 3, 10)]


def _nudged(step_env, n0, value):
    """step_env with its envelope for step n0 (argument n0 - 1) replaced."""
    return lambda m: value if m == n0 - 1 else step_env(m)


_REPLAY_UPTO = 160


@pytest.mark.parametrize("case", _geometric_cases())
def test_ratio_replay_matches_term_replay(case):
    if "@" in case:
        tid, r = case.split("@")
        entry = build_template_entry(tid, int(r))
    else:
        entry = make_registry()[case]
    stream, real = entry.make_stream()
    terms = list(itertools.islice(
        stream.iter_exact(), _REPLAY_UPTO - stream.first_index + 1))
    by_n = dict(terms)
    # (envelope, the step it must fail at or None)
    envs = [(real.step_env, None)]
    gap = Fraction(1, 10 ** 80)
    for n0 in (2, 80, _REPLAY_UPTO):
        ratio = abs(by_n[n0] / by_n[n0 - 1])
        if isinstance(ratio, SurdQ5):
            lo, hi = Ball.from_surd(ratio, 400).to_interval_fractions()
        else:
            lo = hi = ratio
        envs.append((_nudged(real.step_env, n0, hi + gap), None))
        envs.append((_nudged(real.step_env, n0, lo - gap), n0))
    for step_env, expected in envs:
        strategy = GeometricTail(step_env=step_env, sup_env=real.sup_env)
        oracle = _term_form_violation(terms, step_env, _REPLAY_UPTO)
        assert oracle == expected, case
        assert _ratio_form_violation(stream, strategy, _REPLAY_UPTO) \
            == oracle, case


# ----------------------------------------------------------------------
# empirical tail audit


def test_empirical_tail_check_passes_on_sound_setup():
    q = Fraction(1, 3)
    rows = empirical_tail_check(geometric_stream(q), geometric_tail(q))
    assert [row["N"] for row in rows] == [32, 128, 512]
    assert all(row["ok"] for row in rows)
    for row in rows:
        assert row["observed"] <= row["bound"]


def test_empirical_tail_check_flags_unsound_bound():
    # sup_env lies by a factor 1000, so the claimed tail bound falls
    # under the observed remainder
    q = Fraction(1, 2)
    lying = GeometricTail(step_env=lambda n: q,
                          sup_env=lambda n: Fraction(1, 1000))
    rows = empirical_tail_check(geometric_stream(q), lying, probes=(32,))
    assert rows and not rows[0]["ok"]
