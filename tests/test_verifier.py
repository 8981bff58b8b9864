"""Verdict classification, report shape, and run-to-run determinism."""

import dataclasses
import json
import multiprocessing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm import registry
from binomharm.ball_arith import Ball
from binomharm.registry import build_template_entry, make_registry
from binomharm.series_engine import GeometricTail
from binomharm.verifier import (DIGITS_ENV_VAR, agreed_digits,
                                verify_all, verify_identity)

REG = make_registry()


# ----------------------------------------------------------------------
# agreed_digits


def _pt(q, prec=128):
    return Ball.from_fraction(Fraction(q), prec)


def test_agreed_digits_hand_cases():
    assert agreed_digits(_pt(1), _pt(1)) == 10 ** 6
    one_off = Fraction(1) + Fraction(1, 10 ** 7)
    assert agreed_digits(_pt(1), _pt(one_off)) == 7
    assert agreed_digits(_pt(1), _pt(2)) == 0
    # separation is measured relative to max(1, magnitudes)
    big = Fraction(10 ** 6)
    assert agreed_digits(_pt(big), _pt(big + 1)) == 6


def test_agreed_digits_symmetry():
    a, b = _pt(Fraction(22, 7)), _pt(Fraction(355, 113))
    assert agreed_digits(a, b) == agreed_digits(b, a)


def test_agreed_digits_accounts_for_radius():
    tight = _pt(1)
    wide = _pt(Fraction(1023, 1024)).union(_pt(Fraction(1025, 1024)))
    assert agreed_digits(tight, wide) <= 3


def _digits_by_loop(xlo, xhi, ylo, yhi) -> int:
    """The per-digit count agreed_digits used to run: the oracle."""
    sep = max(xhi - ylo, yhi - xlo)
    base = max(Fraction(1), abs(xlo), abs(xhi), abs(ylo), abs(yhi))
    if sep <= 0:
        return 10 ** 6
    d = 0
    scaled = sep * 10
    while scaled <= base and d < 10 ** 6:
        d += 1
        scaled *= 10
    return d


_small = st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6)


@st.composite
def _interval_pairs(draw):
    """Two intervals (lo, hi) of Fractions around one centre: overlapping,
    disjoint or nested, at magnitudes from 10^-30 to 10^30, with widths
    and offsets from 10^-70 up to past the centre; or two points whose
    separation times 10^d is exactly their magnitude."""
    mag = Fraction(10) ** draw(st.integers(-30, 30))
    centre = draw(_small) * mag
    if draw(st.integers(0, 4)) == 0:
        top = abs(centre) + 1
        d = draw(st.integers(0, 80))
        return (top, top), (top - top / 10 ** d, top - top / 10 ** d)

    def interval():
        scale = Fraction(10) ** -draw(st.integers(-31, 70))
        lo = centre + draw(_small) * scale
        return lo, lo + abs(draw(_small)) * scale

    return interval(), interval()


@settings(max_examples=400, deadline=None)
@given(_interval_pairs())
def test_agreed_digits_matches_per_digit_loop(pair):
    x, y = pair
    assert agreed_digits(x, y) == _digits_by_loop(*x, *y)
    assert agreed_digits(y, x) == _digits_by_loop(*y, *x)


@settings(max_examples=100, deadline=None)
@given(_small, _small, st.integers(-30, 30), st.integers(0, 60))
def test_agreed_digits_of_balls_matches_per_digit_loop(a, b, e, k):
    x = _pt(a * Fraction(10) ** e, prec=300)
    y = _pt(a * Fraction(10) ** e + b / Fraction(10) ** k, prec=300)
    assert agreed_digits(x, y) == _digits_by_loop(
        *x.to_interval_fractions(), *y.to_interval_fractions())


def test_agreed_digits_cap_and_identical_points():
    # two points 1 apart at magnitude B agree to floor(log10(B + 1))
    # digits; integer points keep the 10^6-digit arithmetic cheap
    for e in (10 ** 6 - 1, 10 ** 6):
        big = Fraction(10 ** e)
        assert agreed_digits((big, big), (big + 1, big + 1)) == e
    # far past the cap the count stops at 10^6
    big = Fraction(2 ** 10 ** 7)
    assert agreed_digits((big, big), (big + 1, big + 1)) == 10 ** 6
    # identical points agree to the cap, whatever their value
    for q in (Fraction(3, 8), Fraction(-5, 2), Fraction(2) ** 200):
        assert agreed_digits(_pt(q), _pt(q)) == 10 ** 6
        assert agreed_digits((q, q), (q, q)) == 10 ** 6


# ----------------------------------------------------------------------
# verify_identity reports


_BASE_KEYS = ["id", "paper_eq", "family", "status", "description",
              "expected", "digits_requested"]
_TAIL_KEYS = ["verdict", "ok", "agreed_digits", "n_terms", "prec_bits",
              "mode", "series_mid", "series_rad", "rhs_mid", "rhs_rad"]


def test_report_shape_and_pass_verdict():
    rep = verify_identity(REG["EQ36"], digits=15)
    assert list(rep) == _BASE_KEYS + _TAIL_KEYS + ["wall_time"]
    assert rep["verdict"] == "PASS"
    assert rep["ok"] is True
    assert rep["agreed_digits"] >= 15
    assert rep["digits_requested"] == 15
    assert rep["n_terms"] > 0
    assert rep["mode"] == "fixed"
    assert isinstance(rep["wall_time"], float)


@pytest.mark.parametrize("eid", ["EQ11", "EQ18"])
def test_lucas_r1_entries_pass_at_200_digits(eid):
    # at alpha^-1 / 4 a pair (a, b) for a + b sqrt5 would follow the
    # conjugate series, which grows like alpha^n; one fixed-point
    # integer for the point keeps these sums short
    rep = verify_identity(REG[eid], digits=200)
    assert rep["verdict"] == "PASS"
    assert rep["agreed_digits"] >= 200
    assert rep["n_terms"] <= 1024
    assert rep["mode"] == "fixed"


@pytest.mark.parametrize("eid", list(REG))
def test_perturbed_closed_form_never_passes(eid):
    # mutation battery: the closed form times (1 + 10^-(d-3)) is off by
    # about a thousand units of the digits the verdict demands
    entry = REG[eid]
    d = entry.default_digits
    factor = registry.Rat(1 + Fraction(1, 10 ** (d - 3)))
    scaled = registry.Mul(entry.rhs, factor)
    rep = verify_identity(dataclasses.replace(entry, rhs=scaled), digits=d)
    assert rep["verdict"] in ("FAIL", "INCONCLUSIVE")
    if rep["verdict"] == "INCONCLUSIVE":
        assert rep["reason"]


def test_report_includes_r_for_family_instances():
    rep = verify_identity(build_template_entry("FIB_H", 7), digits=20)
    assert list(rep) == _BASE_KEYS + ["r"] + _TAIL_KEYS + ["wall_time"]
    assert rep["r"] == 7
    assert rep["verdict"] == "PASS"


def test_discrepant_fixture_fails_as_expected():
    rep = verify_identity(REG["EQ37_AS_PRINTED"], digits=15)
    assert rep["verdict"] == "FAIL"
    assert rep["expected"] == "FAIL"
    assert rep["ok"] is True
    assert rep["agreed_digits"] == 0


def test_budget_exhaustion_is_inconclusive():
    rep = verify_identity(REG["THM26"], digits=12, max_terms=50)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["ok"] is False
    assert rep["mode"] == "budget-exhausted"
    assert "term budget 50 exhausted" in rep["reason"]
    assert list(rep).index("reason") == len(list(rep)) - 2


@pytest.mark.parametrize("eid", ["EQ1", "THM24"])
def test_planned_budget_exhaustion_keeps_best_enclosure(eid):
    # the Euler-Maclaurin tail at 2048 terms stops short of 60 digits,
    # and 4 * 2048 terms exceed the budget: the report keeps the
    # 2048-term enclosure instead of an empty one
    rep = verify_identity(REG[eid], digits=60, max_terms=4096)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["mode"] == "budget-exhausted"
    assert "term budget 4096 exhausted" in rep["reason"]
    assert rep["n_terms"] == 2048
    assert rep["agreed_digits"] >= 40
    assert "series_mid" in rep and "series_rad" in rep


def test_budget_below_the_planned_cut_reports_no_terms():
    # EQ34's planned cut at 15 digits is 468: a budget of 31 sums no
    # cut, so the report counts no terms and has no series enclosure
    rep = verify_identity(REG["EQ34"], digits=15, max_terms=31)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["mode"] == "budget-exhausted"
    assert rep["n_terms"] == 0
    assert "series_mid" not in rep and "series_rad" not in rep


_ASYMPTOTIC_IDS = ("EQ1", "EQ2", "EQ3", "EQ34", "EQ35", "EQ36", "THM24",
                   "THM25A", "THM25B", "THM26", "THM27")


@pytest.mark.parametrize("digits", [15, 20, 30, 40])
@pytest.mark.parametrize("eid", _ASYMPTOTIC_IDS)
def test_planned_asymptotic_digit_sweep(eid, digits):
    # each entry PASSed at these digits with the 2048-term, degree-12
    # tail; a planned cut and degree must keep the verdict, the digits
    # and the cut within 2048
    rep = verify_identity(REG[eid], digits=digits)
    assert rep["verdict"] == "PASS"
    assert rep["agreed_digits"] >= digits
    assert rep["n_terms"] <= 2048


@pytest.mark.parametrize("max_terms", [0, -5])
@pytest.mark.parametrize("eid", ["EQ6", "EQ1"])  # geometric, asymptotic
def test_empty_budget_never_decides(eid, max_terms):
    # an empty sum encloses 0 exactly; it must not refute a sound identity
    rep = verify_identity(REG[eid], max_terms=max_terms)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["n_terms"] >= 0
    assert f"term budget {max_terms} exhausted" in rep["reason"]


def test_mid_strings_round_trip_to_expected_value():
    rep = verify_identity(REG["EQ34"], digits=15)
    assert rep["series_mid"].startswith("0.03681553890925538")
    assert rep["rhs_mid"].startswith("0.03681553890925538")
    assert float(rep["series_rad"]) < 1e-15


# ----------------------------------------------------------------------
# digit selection: explicit argument > environment > entry default


def test_env_override_sets_default(monkeypatch):
    monkeypatch.setenv(DIGITS_ENV_VAR, "7")
    rep = verify_identity(REG["EQ6"])
    assert rep["digits_requested"] == 7


def test_explicit_digits_beat_env(monkeypatch):
    monkeypatch.setenv(DIGITS_ENV_VAR, "7")
    rep = verify_identity(REG["EQ6"], digits=25)
    assert rep["digits_requested"] == 25


def test_entry_default_without_env(monkeypatch):
    monkeypatch.delenv(DIGITS_ENV_VAR, raising=False)
    rep = verify_identity(REG["EQ6"])
    assert rep["digits_requested"] == REG["EQ6"].default_digits


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv(DIGITS_ENV_VAR, "twelve")
    with pytest.raises(ValueError):
        verify_identity(REG["EQ6"])
    monkeypatch.setenv(DIGITS_ENV_VAR, "0")
    with pytest.raises(ValueError):
        verify_identity(REG["EQ6"])


# ----------------------------------------------------------------------
# verify_all


SUBSET = ["EQ6", "EQ11", "EQ34", "EQ37", "EQ37_AS_PRINTED", "FIB_H"]


def test_verify_all_summary_on_subset():
    out = verify_all(ids=SUBSET, digits=15)
    assert [r["id"] for r in out["reports"]] == SUBSET
    s = out["summary"]
    assert s["n_entries"] == 6
    assert s["n_pass"] == 5
    assert s["n_fail"] == 1
    assert s["n_inconclusive"] == 0
    assert s["n_ok"] == 6
    assert s["ok"] is True


_FROZEN_OUTPUT = (Path(__file__).parent / "fixtures"
                  / "verify_all_default.json")


def test_verify_all_matches_frozen_output(monkeypatch):
    """The whole catalog at default digits, minus ``wall_time``, is
    byte-identical to the frozen output: no ``n_terms``, ``series_mid``,
    ``agreed_digits`` or verdict may change silently.  A change that is
    meant to move it regenerates the fixture with

        PYTHONPATH=src python -c "import json; \\
        from binomharm.verifier import verify_all; r = verify_all(); \\
        [rep.pop('wall_time') for rep in r['reports']]; \\
        print(json.dumps(r, indent=2))" > tests/fixtures/verify_all_default.json

    and announces the regeneration, with the fields that moved, in
    CHANGES.md.
    """
    monkeypatch.delenv(DIGITS_ENV_VAR, raising=False)
    out = verify_all()
    for rep in out["reports"]:
        del rep["wall_time"]
    assert json.dumps(out, indent=2) + "\n" == _FROZEN_OUTPUT.read_text()


_FROZEN_DEEP = Path(__file__).parent / "fixtures" / "deep_digits_200.json"

# the six family templates, each at one fixed r
_DEEP_TEMPLATES = (("FIB_H", 5), ("LUCAS_H", 6), ("LUCAS_HD", 7),
                   ("FIB_HD", 8), ("FIB_H_2R", 9), ("LUCAS_H_2R", 10))


def deep_digits_reports() -> list:
    """200-digit reports, minus ``wall_time``, of every catalog entry
    with a geometric tail (registry order) and of ``_DEEP_TEMPLATES``."""
    reg = make_registry()
    entries = [e for e in reg.values()
               if isinstance(e.make_stream()[1], GeometricTail)]
    entries += [build_template_entry(i, r) for i, r in _DEEP_TEMPLATES]
    reports = [verify_identity(e, digits=200) for e in entries]
    for rep in reports:
        del rep["wall_time"]
    return reports


def test_deep_digits_match_frozen_output():
    """The geometric-tail entries and the family templates at 200
    digits, where each sum jumps from its first cut at 16 to the cut its
    proven ratio bound predicts (23 to 1667 terms), are byte-identical
    to the frozen output.  A change that is meant to move
    them regenerates the fixture with

        PYTHONPATH=src:tests python -c "import json, test_verifier as t; \\
        print(json.dumps(t.deep_digits_reports(), indent=2))" \\
        > tests/fixtures/deep_digits_200.json

    and announces the regeneration, with the fields that moved, in
    CHANGES.md.
    """
    reports = deep_digits_reports()
    assert len(reports) == 44
    assert json.dumps(reports, indent=2) + "\n" == _FROZEN_DEEP.read_text()


_N_TERMS_CAP = Path(__file__).parent / "fixtures" / "geometric_n_terms.json"


@pytest.mark.parametrize("digits", [15, 200])
def test_geometric_n_terms_never_rise(digits):
    """Each geometric-tail entry's ``n_terms`` at 15 and 200 digits is at
    most the one the doubling checkpoints 16, 32, 64, ... reached, kept
    in ``geometric_n_terms.json``."""
    cap = json.loads(_N_TERMS_CAP.read_text())
    geometric = [k for k, e in REG.items()
                 if isinstance(e.make_stream()[1], GeometricTail)]
    assert sorted(geometric) == sorted(cap)
    got = {eid: verify_identity(REG[eid], digits=digits)["n_terms"]
           for eid in geometric}
    rises = {eid: (n, cap[eid][str(digits)]) for eid, n in got.items()
             if n > cap[eid][str(digits)]}
    assert not rises


def test_thm24_shares_the_single_recipe_cut():
    # the composite tail cuts where the single-recipe tails do, and
    # makes up its weight with the degree, without a x4 rung
    reps = [verify_identity(REG[eid], digits=15) for eid in ("EQ1", "THM24")]
    assert reps[0]["n_terms"] == reps[1]["n_terms"] == 468
    assert all(r["verdict"] == "PASS" and r["agreed_digits"] >= 15
               for r in reps)


def test_verify_all_rejects_unknown_id():
    with pytest.raises(KeyError):
        verify_all(ids=["EQ6", "NOPE"])


def test_parallel_reports_match_serial():
    serial = verify_all(ids=SUBSET, digits=15, workers=1)
    parallel = verify_all(ids=SUBSET, digits=15, workers=2)

    def strip(out):
        return [{k: v for k, v in rep.items() if k != "wall_time"}
                for rep in out["reports"]]

    assert strip(serial) == strip(parallel)
    assert serial["summary"] == parallel["summary"]


# ----------------------------------------------------------------------
# fault containment: one broken entry must not cost the other reports


_REAL_STREAM_EM = registry._stream_em


def _broken_stream(*recipes):
    # the one stream factory fails for EQ34's recipe only
    if recipes[0] is registry._RECIPES["EQ34"]:
        raise RuntimeError("stream factory exploded")
    return _REAL_STREAM_EM(*recipes)


@pytest.mark.parametrize("workers", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched factory reaches workers only through fork")),
])
def test_exception_in_one_entry_is_contained(monkeypatch, workers):
    clean = verify_all(ids=SUBSET, digits=15, workers=1)
    monkeypatch.setattr(registry, "_stream_em", _broken_stream)
    out = verify_all(ids=SUBSET, digits=15, workers=workers)

    def strip(rep):
        return {k: v for k, v in rep.items() if k != "wall_time"}

    for before, after in zip(clean["reports"], out["reports"]):
        if after["id"] != "EQ34":
            assert strip(after) == strip(before)
            continue
        assert after["verdict"] == "INCONCLUSIVE"
        assert after["ok"] is False
        assert after["reason"] == "RuntimeError: stream factory exploded"
        assert list(after)[-2:] == ["reason", "wall_time"]
    s = out["summary"]
    assert (s["n_pass"], s["n_fail"], s["n_inconclusive"]) == (4, 1, 1)
    assert s["ok"] is False


def test_undecidable_replay_is_inconclusive():
    # a geometric tail over a stream with no exact step ratios cannot
    # be proven; the entry must not pass unchecked
    tail = GeometricTail()
    stream = REG["THM24"].make_stream()[0]
    entry = dataclasses.replace(REG["THM24"],
                                make_stream=lambda: (stream, tail))
    rep = verify_identity(entry, digits=15)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["ok"] is False
    assert rep["reason"].startswith("TypeError: Thm24Stream has no exact "
                                    "step ratios")
