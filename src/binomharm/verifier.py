"""Verification engine: series enclosures versus closed-form enclosures.

For each catalog entry the verifier sums the series to a rigorous
enclosure, evaluates the closed-form tree to another enclosure, and
classifies the pair:

  PASS          the enclosures overlap and provably agree to at least
                the requested number of digits,
  FAIL          the enclosures are disjoint by a wide margin (ten times
                the combined radii), so the identity is refuted at
                working precision,
  INCONCLUSIVE  neither test is decisive; retried on a rising precision
                ladder before giving up.

An entry verifies OK when its verdict matches its expectation: PASS for
sound identities, FAIL for the ``*_AS_PRINTED`` transcriptions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Optional

from .ball_arith import Ball, DomainError, working_precision
from .registry import IdentityEntry, make_registry
from .series_engine import (PrecisionNotReached, TailHypothesisViolation,
                            sum_to_precision)

__all__ = ["agreed_digits", "verify_identity", "verify_all",
           "DIGITS_ENV_VAR"]

DIGITS_ENV_VAR = "BINOMHARM_DIGITS"

_LADDER = (0, 64, 128, 256, 512)


def agreed_digits(x: Ball, y: Ball) -> int:
    """Decimal digits to which the two enclosures provably agree.

    Counts digits of the worst-case separation sup |xi - eta| over the
    two intervals, relative to max(1, |values|); 0 when they cannot be
    said to share even one digit.
    """
    xlo, xhi = x.to_interval_fractions()
    ylo, yhi = y.to_interval_fractions()
    sep = max(xhi - ylo, yhi - xlo)
    base = max(Fraction(1), abs(xlo), abs(xhi), abs(ylo), abs(yhi))
    if sep <= 0:
        return 10 ** 6  # identical points; effectively exact
    d = 0
    scaled = sep * 10
    while scaled <= base and d < 10 ** 6:
        d += 1
        scaled *= 10
    return d


def _env_digits() -> Optional[int]:
    """Digits from BINOMHARM_DIGITS; None when unset, ValueError on junk."""
    raw = os.environ.get(DIGITS_ENV_VAR)
    if not raw:
        return None
    try:
        v = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{DIGITS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if v < 1:
        raise ValueError(f"{DIGITS_ENV_VAR} must be positive")
    return v


def _classify(series: Ball, rhs: Ball, digits: int) -> tuple[str, int]:
    agreed = agreed_digits(series, rhs)
    if series.overlaps(rhs):
        if agreed >= digits:
            return "PASS", agreed
        return "INCONCLUSIVE", agreed
    # disjoint: demand a gap well beyond the combined uncertainty
    xlo, xhi = series.to_interval_fractions()
    ylo, yhi = rhs.to_interval_fractions()
    gap = max(ylo - xhi, xlo - yhi)
    uncertainty = (xhi - xlo) + (yhi - ylo)
    if gap > 10 * uncertainty:
        return "FAIL", agreed
    return "INCONCLUSIVE", agreed


def verify_identity(entry: IdentityEntry, digits: Optional[int] = None,
                    max_terms: Optional[int] = None) -> dict:
    """Verify one entry; returns a JSON-ready report dict."""
    if digits is None:
        digits = _env_digits() or entry.default_digits
    if max_terms is None:
        max_terms = entry.max_terms
    t0 = time.monotonic()
    report = {
        "id": entry.id,
        "paper_eq": entry.paper_eq,
        "family": entry.family,
        "status": entry.status.value,
        "description": entry.description,
        "expected": entry.expected_verdict,
        "digits_requested": digits,
    }
    if entry.r is not None:
        report["r"] = entry.r

    verdict = "INCONCLUSIVE"
    agreed = 0
    reason = ""
    series_ball = rhs_ball = None
    n_terms = 0
    mode = ""
    prec = 0
    # any other fault inside one entry (a stream, a tail, a closed form)
    # is contained here, so it cannot abort a whole verify_all run
    try:
        for bump in _LADDER:
            prec = working_precision(digits) + bump
            stream, strategy = entry.make_stream()
            try:
                run = sum_to_precision(stream, strategy, digits,
                                       max_terms=max_terms, prec=prec)
            except PrecisionNotReached as exc:
                series_ball = exc.best
                n_terms = exc.n_terms
                mode = "budget-exhausted"
                reason = (f"term budget {max_terms} exhausted before "
                          f"{digits} digits")
                if series_ball is None:
                    break
                rhs_ball = entry.rhs.value(prec)
                _, agreed = _classify(series_ball, rhs_ball, digits)
                break
            except TailHypothesisViolation as exc:
                reason = f"tail hypothesis violated: {exc}"
                break
            except DomainError as exc:
                reason = f"domain error: {exc}"
                break
            series_ball = run.value
            n_terms = run.n_terms
            mode = run.mode
            rhs_ball = entry.rhs.value(prec)
            verdict, agreed = _classify(series_ball, rhs_ball, digits)
            if verdict != "INCONCLUSIVE":
                break
            reason = "enclosures too wide to decide at this precision"
    except Exception as exc:
        verdict = "INCONCLUSIVE"
        reason = f"{type(exc).__name__}: {exc}"

    report["verdict"] = verdict
    report["ok"] = verdict == entry.expected_verdict
    report["agreed_digits"] = agreed
    report["n_terms"] = n_terms
    report["prec_bits"] = prec
    report["mode"] = mode
    if series_ball is not None:
        report["series_mid"] = series_ball.mid_str(digits + 10)
        report["series_rad"] = series_ball.rad_str()
    if rhs_ball is not None:
        report["rhs_mid"] = rhs_ball.mid_str(digits + 10)
        report["rhs_rad"] = rhs_ball.rad_str()
    if reason and verdict == "INCONCLUSIVE":
        report["reason"] = reason
    report["wall_time"] = round(time.monotonic() - t0, 6)
    return report


# filled by _init_worker in each pool worker; stays empty in the parent
_worker_registry: dict = {}


def _init_worker() -> None:
    """Pool initializer: each worker process builds the registry once."""
    _worker_registry.update(make_registry())


def _verify_one(args: tuple) -> dict:
    """Child-process worker: looks the entry up by its id."""
    entry_id, digits, max_terms = args
    return verify_identity(_worker_registry[entry_id], digits=digits,
                           max_terms=max_terms)


def verify_all(ids: Optional[list] = None, digits: Optional[int] = None,
               max_terms: Optional[int] = None, workers: int = 1) -> dict:
    """Verify many entries; report order follows the registry order.

    The serial path verifies the entries of the registry built here;
    worker processes receive only entry ids and build the registry
    once each.  Either way each entry is built by the same factory, so
    reports are identical whatever the worker count.
    """
    reg = make_registry()
    if ids is None:
        ids = list(reg)
    else:
        for entry_id in ids:
            if entry_id not in reg:
                raise KeyError(f"unknown identity id {entry_id!r}")
    if workers <= 1:
        reports = [verify_identity(reg[entry_id], digits=digits,
                                   max_terms=max_terms) for entry_id in ids]
    else:
        jobs = [(entry_id, digits, max_terms) for entry_id in ids]
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker) as pool:
            reports = list(pool.map(_verify_one, jobs))
    ok = all(rep["ok"] for rep in reports)
    summary = {
        "n_entries": len(reports),
        "n_pass": sum(rep["verdict"] == "PASS" for rep in reports),
        "n_fail": sum(rep["verdict"] == "FAIL" for rep in reports),
        "n_inconclusive": sum(rep["verdict"] == "INCONCLUSIVE"
                              for rep in reports),
        "n_ok": sum(rep["ok"] for rep in reports),
        "ok": ok,
    }
    return {"summary": summary, "reports": reports}
