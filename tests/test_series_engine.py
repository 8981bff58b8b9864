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

from binomharm import series_engine
from binomharm.ball_arith import Ball, ConstantName, constant
from binomharm.exact_core import SurdQ5, harmonic
from binomharm.genfunc import family_stream, substitution_point
from binomharm.registry import (TEMPLATE_IDS, build_template_entry,
                                make_registry)
from binomharm.series_engine import (GeometricTail, HarmonicStream,
                                     PrecisionNotReached, SignPattern,
                                     TailHypothesisViolation, d_value,
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
    return GeometricTail(sup_env=lambda n: aq)


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
    # pvalues blocks cover every index twice; restarting at each
    # checkpoint would cover it about twice as often, and a block run
    # past the cut would cover indices beyond n_terms
    covered = []
    real = series_engine.pvalues

    def counting(c, n0, n1, k=1):
        covered.extend(range(n0, n1 + 1))
        return real(c, n0, n1, k)

    monkeypatch.setattr(series_engine, "pvalues", counting)
    q = Fraction(2, 5)
    stream = geometric_stream(q)
    res = sum_to_precision(stream, geometric_tail(q), digits)
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
    # claimed bound 1/3 but true ratio 1/2: the tail proof must refuse
    # to certify the sum
    s = geometric_stream(Fraction(1, 2))
    bad = GeometricTail(sup_env=lambda n: Fraction(1, 3))
    with pytest.raises(TailHypothesisViolation):
        sum_to_precision(s, bad, 30)


def _last(stream, N):
    return stream.partial_sum(N, PREC)[1]


def test_surd_envelope_replay_is_exact():
    # an irrational point enters the proof through a rational bound on
    # |x|; bounds within 10^-80 of |x| on either side are decided
    # exactly, far below what a 120-bit ball comparison can resolve
    stream, sound = family_stream("FIB", 1, "H")
    lo, hi = Ball.from_surd(abs(stream.point), 400).to_interval_fractions()
    gap = Fraction(1, 10 ** 80)
    above = GeometricTail(sup_env=sound.sup_env, point_bound=hi + gap)
    below = GeometricTail(sup_env=sound.sup_env, point_bound=lo - gap)
    assert above.tail_ball(stream, 16, PREC, _last(stream, 16)) is not None
    with pytest.raises(TailHypothesisViolation, match="point bound"):
        below.tail_ball(stream, 16, PREC, _last(stream, 16))


def test_mixed_type_first_step_is_checked():
    # a rational seed at a Q(sqrt5) point: t_1 is rational, t_2 is not,
    # and the step between them must be decided like every other one
    stream = HarmonicStream(seed=Fraction(1),
                            point=substitution_point("FIB", 1),
                            A=(1,), B=(1,))
    tight = GeometricTail(sup_env=lambda n: Fraction(1, 100),
                          point_bound=Fraction(1, 10))
    with pytest.raises(TailHypothesisViolation, match=r"at n=1\b"):
        tight.tail_ball(stream, 1, PREC, _last(stream, 1))


def test_tail_proof_is_not_capped():
    # t_(n+1)/t_n = n/2000 stays below 1/2 up to n = 1000 and then grows
    # without bound: the series diverges, yet every step a sample of the
    # first few hundred terms could see is within the claimed bound
    stream = HarmonicStream(seed=Fraction(1), A=(0, 1), B=(2000,))
    half = GeometricTail(sup_env=lambda n: Fraction(1, 2))
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
        sum_to_precision(wrong, geometric_tail(Fraction(-1, 2)), 30)


@pytest.mark.parametrize("declared", [SignPattern.POSITIVE,
                                      SignPattern.NEGATIVE])
def test_declared_sign_is_proven(declared):
    want = 1 if declared is SignPattern.POSITIVE else -1
    tail = geometric_tail(Fraction(1, 2))

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


def _sound_tail():
    return GeometricTail(sup_env=lambda n: Fraction(1, 2))


@pytest.mark.parametrize("stream, tail", [
    # no exact step ratios
    (make_registry()["THM24"].make_stream()[0], _sound_tail()),
    # an inexact bound
    (geometric_stream(Fraction(1, 3)), GeometricTail(sup_env=lambda n: 0.5)),
    # an inexact step ratio
    (HarmonicStream(seed=Fraction(1, 3), A=(1 / 3,), B=(1,)),
     _sound_tail()),
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

    At every cut N the proven Q = sup_env(N) holds on the exact terms
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
        Q = real.sup_env(N)
        assert Q < 1, case
        assert _proof_violation(stream, real, N) is None, (case, N)
        assert _term_form_violation(terms, Q, N, _REPLAY_SPAN) is None, \
            (case, N)
        ratio = abs(terms[N + 1] / terms[N])
        if isinstance(ratio, SurdQ5):
            lo = Ball.from_surd(ratio, 400).to_interval_fractions()[0]
        else:
            lo = ratio
        low = GeometricTail(sup_env=lambda n: lo - gap,
                            point_bound=real.point_bound)
        assert _term_form_violation(terms, lo - gap, N, 0) == N, (case, N)
        assert _proof_violation(stream, low, N) == N, (case, N)


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
    lying = GeometricTail(sup_env=lambda n: Fraction(1, 1000))
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
