"""Acceptance battery: twelve numbered end-to-end criteria.

Each test exercises one criterion against the public API and prints a
single ``ACCEPTANCE n: PASS/FAIL - detail`` line on the real terminal
(via ``capsys.disabled``) before asserting, so a full run yields one
verdict line per criterion regardless of pytest verbosity.
"""

import random
import time
from fractions import Fraction

from binomharm.ball_arith import Ball, ConstantName, constant, working_precision
from binomharm.exact_core import BINET_IDENTITY_IDS, check_binet_identity
from binomharm.genfunc import gf_series_stream, gf_value
from binomharm.registry import (TEMPLATE_IDS, build_template_entry,
                                entry_eq17, entry_eq17_as_printed,
                                make_registry)
from binomharm.series_engine import empirical_tail_check, sum_to_precision
from binomharm.verifier import agreed_digits, verify_all, verify_identity

from _frozen import THM26_PARTIAL_5

REG = make_registry()


def _conclude(capsys, k: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def _const(name: str, prec: int) -> Ball:
    return constant(ConstantName(name), prec)


def _frac_ball(q, prec: int) -> Ball:
    return Ball.from_fraction(Fraction(q), prec)


# ----------------------------------------------------------------------


def test_criterion_01_binet_identities_exact(capsys):
    t0 = time.monotonic()
    bad = []
    count = 0
    for ident in BINET_IDENTITY_IDS:
        for m in range(-50, 51):
            for n in range(-50, 51):
                if not check_binet_identity(ident, m, n):
                    bad.append((ident, m, n))
                count += 1
    dt = time.monotonic() - t0
    ok = not bad and dt < 5.0
    _conclude(capsys, 1, ok,
              f"{count} exact checks over {len(BINET_IDENTITY_IDS)} "
              f"identities, |m|,|n| <= 50, {dt:.2f}s"
              + (f"; failures {bad[:3]}" if bad else ""))


def _random_in_domain(rng: random.Random) -> Fraction:
    q = rng.randint(100, 999)
    p = rng.randint(1, q // 4 - 1)
    return Fraction(rng.choice((-1, 1)) * p, q)


def test_criterion_02_gf_overlap_random_points(capsys):
    names = ("GF_M", "GF_HD", "GF_H2N", "GF_CAT_HD", "GF_CAT_H2N",
             "GF_CAT_HALF", "GF_SHIFTED")
    rng = random.Random(20260815)
    t0 = time.monotonic()
    worst = 10 ** 9
    n_runs = 0
    bad = []
    prec = working_precision(30)
    for name in names:
        for _ in range(5):
            x = _random_in_domain(rng)
            k = rng.randint(0, 5) if name == "GF_SHIFTED" else None
            closed = gf_value(name, x, prec, k=k)
            stream, strategy = gf_series_stream(name, x, k=k)
            run = sum_to_precision(stream, strategy, 24,
                                   max_terms=10 ** 6, prec=prec)
            agreed = agreed_digits(run.value, closed)
            worst = min(worst, agreed)
            n_runs += 1
            if not run.value.overlaps(closed) or agreed < 20:
                bad.append((name, str(x), k, agreed))
    dt = time.monotonic() - t0
    ok = not bad and dt < 60.0
    _conclude(capsys, 2, ok,
              f"{n_runs} random rational points across {len(names)} "
              f"generating functions, min {worst} agreed digits, {dt:.2f}s"
              + (f"; failures {bad}" if bad else ""))


def test_criterion_03_golden_ratio_families(capsys):
    eq_ids = [e.id for e in REG.values()
              if e.paper_eq in {"6", "7", "8", "11", "12", "13",
                                "18", "19", "20", "21", "22", "23"}]
    runs = [(eid, verify_identity(REG[eid], digits=30)) for eid in eq_ids]
    for tid in TEMPLATE_IDS:
        for r in range(1, 11):
            runs.append((f"{tid}[r={r}]",
                         verify_identity(build_template_entry(tid, r),
                                         digits=30)))
    bad = [(label, rep["verdict"], round(rep["wall_time"], 2))
           for label, rep in runs
           if rep["verdict"] != "PASS" or rep["wall_time"] >= 5.0]
    slowest = max(rep["wall_time"] for _, rep in runs)
    _conclude(capsys, 3, not bad,
              f"{len(runs)} instances PASS at 30 digits, slowest "
              f"{slowest:.2f}s" + (f"; failures {bad}" if bad else ""))


def test_criterion_04_binomial_harmonic_regressions(capsys):
    prec = working_precision(40)
    pi = _const("pi", prec)
    ln2 = _const("ln2", prec)
    g = _const("catalan_g", prec)
    two = _frac_ball(2, prec)
    closed = {
        "EQ1": pi * ln2 - two * g,
        "EQ2": (two + two * ln2 + ln2 * ln2 + _frac_ball(4, prec) * g
                - pi * (_frac_ball(1, prec) + two * ln2)),
        "EQ3": (two + _frac_ball(4, prec) * ln2 - _frac_ball(4, prec) * g
                - pi + pi * ln2),
    }
    bad = []
    for eid, expr in closed.items():
        if not expr.overlaps(REG[eid].rhs.value(prec)):
            bad.append((eid, "closed-form mismatch"))
        rep = verify_identity(REG[eid], digits=15)
        if rep["verdict"] != "PASS" or rep["agreed_digits"] < 15:
            bad.append((eid, rep["verdict"]))
    _conclude(capsys, 4, not bad,
              "Eqs 1-3 PASS at 15 digits against pi ln2 - 2G and companions"
              + (f"; failures {bad}" if bad else ""))


def test_criterion_05_thm24(capsys):
    prec = working_precision(40)
    pi = _const("pi", prec)
    ln2 = _const("ln2", prec)
    z3 = _const("zeta3", prec)
    expr = (_frac_ball(2, prec) * ln2 + _frac_ball(Fraction(7, 8), prec) * z3
            + pi * _frac_ball(Fraction(1, 12), prec)
            * (_frac_ball(-12, prec)
               + pi * (_frac_ball(-1, prec) + _frac_ball(3, prec) * ln2)))
    rep = verify_identity(REG["THM24"], digits=8, max_terms=10 ** 5)
    ok = (expr.overlaps(REG["THM24"].rhs.value(prec))
          and expr.mid_str(10).startswith("0.18430")
          and rep["verdict"] == "PASS" and rep["agreed_digits"] >= 8
          and rep["n_terms"] <= 10 ** 5)
    _conclude(capsys, 5, ok,
              f"sum = 0.18430658... agreed {rep['agreed_digits']} digits "
              f"in {rep['n_terms']} terms")


def test_criterion_06_thm25(capsys):
    prec = working_precision(40)
    pi = _const("pi", prec)
    ln2 = _const("ln2", prec)
    g = _const("catalan_g", prec)
    two = _frac_ball(2, prec)
    psi = two * g + pi - two - ln2 - pi * ln2
    psi_star = two + pi - _frac_ball(6, prec) * ln2
    rhs_a = _frac_ball(16, prec) / pi * psi
    rhs_b = two / pi * psi_star
    rep_a = verify_identity(REG["THM25A"], digits=6, max_terms=10 ** 7)
    rep_b = verify_identity(REG["THM25B"], digits=6, max_terms=10 ** 7)
    ok = (rhs_a.overlaps(REG["THM25A"].rhs.value(prec))
          and rhs_b.overlaps(REG["THM25B"].rhs.value(prec))
          and psi.mid_str(10).startswith("0.1027905")
          and psi_star.mid_str(10).startswith("0.9827095")
          and all(r["verdict"] == "PASS" and r["agreed_digits"] >= 6
                  and r["n_terms"] <= 10 ** 7 for r in (rep_a, rep_b)))
    _conclude(capsys, 6, ok,
              f"A agreed {rep_a['agreed_digits']} digits "
              f"({rep_a['n_terms']} terms), B agreed "
              f"{rep_b['agreed_digits']} digits ({rep_b['n_terms']} terms); "
              f"psi = 0.1027905..., psi* = 0.9827095...")


def test_criterion_07_thm26_zeta2(capsys):
    rep = verify_identity(REG["THM26"], digits=8, max_terms=10 ** 4)
    stream, _ = REG["THM26"].make_stream()
    partial = stream.partial_sum_exact(5)
    ok = (rep["verdict"] == "PASS" and rep["agreed_digits"] >= 8
          and rep["n_terms"] <= 10 ** 4
          and partial == THM26_PARTIAL_5
          and partial == Fraction(9987533824, 6087156075))
    _conclude(capsys, 7, ok,
              f"zeta(2) agreed {rep['agreed_digits']} digits in "
              f"{rep['n_terms']} terms; exact 5-term partial "
              f"{partial.numerator}/{partial.denominator} = "
              f"{float(partial):.6f}...")


def test_criterion_08_thm27(capsys):
    prec = working_precision(40)
    pi = _const("pi", prec)
    g = _const("catalan_g", prec)
    expr = g / (_frac_ball(4, prec) * pi) + _frac_ball(1, prec) / (
        _frac_ball(8, prec) * pi)
    rep = verify_identity(REG["THM27"], digits=6, max_terms=10 ** 7)
    ok = (expr.overlaps(REG["THM27"].rhs.value(prec))
          and expr.mid_str(10).startswith("0.1126789")
          and rep["verdict"] == "PASS" and rep["agreed_digits"] >= 6
          and rep["n_terms"] <= 10 ** 7 and rep["wall_time"] < 600.0)
    _conclude(capsys, 8, ok,
              f"G/(4 pi) + 1/(8 pi) agreed {rep['agreed_digits']} digits "
              f"in {rep['n_terms']} terms, {rep['wall_time']:.2f}s")


def test_criterion_09_deluxe_series(capsys):
    ids = ["EQ31", "EQ32", "EQ33", "EQ34", "EQ35", "EQ36", "EQ39", "EQ40"]
    bad = []
    for eid in ids:
        rep = verify_identity(REG[eid], digits=15)
        if rep["verdict"] != "PASS" or rep["agreed_digits"] < 15:
            bad.append((eid, rep["verdict"], rep["agreed_digits"]))
    prec = working_precision(40)
    pi = _const("pi", prec)
    v34 = pi * _frac_ball(Fraction(3, 256), prec)
    v36 = pi * _frac_ball(Fraction(3, 32), prec)
    if not (v34.overlaps(REG["EQ34"].rhs.value(prec))
            and v34.mid_str(12).startswith("0.0368155389")):
        bad.append(("EQ34", "3pi/256 mismatch"))
    if not (v36.overlaps(REG["EQ36"].rhs.value(prec))
            and v36.mid_str(12).startswith("0.2945243112")):
        bad.append(("EQ36", "3pi/32 mismatch"))
    s34, _ = REG["EQ34"].make_stream()
    s35, _ = REG["EQ35"].make_stream()
    i34, i35 = s34.iter_exact(), s35.iter_exact()
    for _ in range(300):
        (_, t34), (_, t35) = next(i34), next(i35)
        if t35 != -t34:
            bad.append(("EQ35", "termwise negation broken"))
            break
    _conclude(capsys, 9, not bad,
              "Eqs 31-36, 39, 40 PASS at 15 digits; Eq 34 = 3pi/256, "
              "Eq 36 = 3pi/32, Eq 35 termwise equals -Eq 34"
              + (f"; failures {bad}" if bad else ""))


def test_criterion_10_discrepancy_fixtures(capsys):
    bad = []
    r37 = verify_identity(REG["EQ37_AS_PRINTED"], digits=15)
    r38 = verify_identity(REG["EQ38_AS_PRINTED"], digits=15)
    if not (r37["verdict"] == "FAIL"
            and r37["series_mid"].startswith("0.2239367")
            and r37["rhs_mid"].startswith("2.7168")):
        bad.append(("EQ37_AS_PRINTED", r37["verdict"]))
    if not (r38["verdict"] == "FAIL"
            and r38["series_mid"].startswith("0.0800628")
            and r38["rhs_mid"].startswith("2.7212")):
        bad.append(("EQ38_AS_PRINTED", r38["verdict"]))
    for eid in ("EQ37", "EQ38"):
        rep = verify_identity(REG[eid], digits=15)
        if rep["verdict"] != "PASS":
            bad.append((eid, rep["verdict"]))
    for x in (Fraction(1, 16), Fraction(3, 20), Fraction(6, 25)):
        rep = verify_identity(entry_eq17_as_printed(x), digits=10)
        if rep["verdict"] != "FAIL":
            bad.append((f"EQ17_AS_PRINTED[x={x}]", rep["verdict"]))
        rep = verify_identity(entry_eq17(x), digits=10)
        if rep["verdict"] != "PASS":
            bad.append((f"EQ17[x={x}]", rep["verdict"]))
    _conclude(capsys, 10, not bad,
              "as-printed Eqs 37/38 and Eq 17 refuted; corrected forms "
              "PASS (series 0.2239367/0.0800628 vs printed 2.7168/2.7212)"
              + (f"; failures {bad}" if bad else ""))


def test_criterion_11_determinism(capsys):
    serial = verify_all(workers=1)
    parallel = verify_all(workers=8)

    def strip(out):
        return [{k: v for k, v in rep.items() if k != "wall_time"}
                for rep in out["reports"]]

    same = strip(serial) == strip(parallel)
    ok = same and serial["summary"] == parallel["summary"]
    s = serial["summary"]
    _conclude(capsys, 11, ok,
              f"1-worker and 8-worker suites identical modulo wall_time "
              f"({s['n_entries']} entries, {s['n_pass']} pass, "
              f"{s['n_fail']} expected-fail)")


def _window_contained(stream, strategy, N: int) -> bool:
    """T(N) contains S(4N) - S(N) + T(4N), T the tail ball and S the
    partial sum.  The sums run at a precision 160 bits finer than |t_N|,
    doubled until it is, so their rounding cannot decide the check."""
    prec = 160
    while True:
        cursor = stream.cursor(prec)
        s_n, t_n = cursor.advance(N)
        lo, hi = t_n.to_interval_fractions()
        t_lo = max(lo, -hi, 0)
        if t_lo > 0 and t_lo * 2 ** (prec - 160) >= 1:
            break
        prec *= 2
    s_4n, t_4n = cursor.advance(4 * N)
    outer = strategy.tail_ball(stream, N, prec, t_n)
    inner = s_4n - s_n + strategy.tail_ball(stream, 4 * N, prec, t_4n)
    olo, ohi = outer.to_interval_fractions()
    ilo, ihi = inner.to_interval_fractions()
    return olo <= ilo and ihi <= ohi


def test_criterion_12_tail_soundness(capsys):
    probes = (32, 128, 512)
    bad = []
    for entry in REG.values():
        stream, strategy = entry.make_stream()
        for row in empirical_tail_check(stream, strategy, probes=probes):
            if not row["ok"]:
                bad.append((entry.id, row["N"], "gap"))
        for N in probes:
            if not _window_contained(*entry.make_stream(), N):
                bad.append((entry.id, N, "window"))
    _conclude(capsys, 12, not bad,
              f"empirical tail bounds hold, and T(N) contains "
              f"S(4N) - S(N) + T(4N), for all {len(REG)} entries at "
              f"N in {{32, 128, 512}}"
              + (f"; failures {bad}" if bad else ""))
