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

Each successful series sum is kept in a per-process memo of at most 256
sums, keyed by every input of the sum: the stream, the tail strategy,
the digits, the term budget and the working precision.  Streams and
tails are frozen dataclasses that compare by value, so an entry whose
series equals an earlier one's (a misprinted closed form beside its
corrected twin, or a family alias at its default r) reuses that sum.
Failed sums raise and are not kept.  There is no disk cache; each
``workers > 1`` process fills its own memo, starting from what the
parent held when it forked.  Only the series route reads this memo;
closed forms have their own (see :mod:`binomharm.registry`).
"""

from __future__ import annotations

import functools
import math
import os
import time
from fractions import Fraction
from typing import Optional

from .ball_arith import Ball, DomainError, working_precision
from .registry import IdentityEntry, make_registry
from .series_engine import (PrecisionNotReached, SumResult,
                            TailHypothesisViolation, sum_to_precision)

__all__ = ["agreed_digits", "verify_identity", "verify_all",
           "DIGITS_ENV_VAR"]

DIGITS_ENV_VAR = "BINOMHARM_DIGITS"

_LADDER = (0, 64, 128, 256, 512)


_MAX_DIGITS = 10 ** 6
_LOG10_2 = math.log10(2)


def agreed_digits(x: Ball | tuple, y: Ball | tuple) -> int:
    """Decimal digits to which the two enclosures provably agree.

    Counts digits of the worst-case separation sup |xi - eta| over the
    two intervals, relative to max(1, |values|): the largest d >= 0 with
    sep 10^d <= base, capped at 10^6, and 10^6 when both are the same
    point; 0 when they cannot be said to share even one digit.  ``x`` and
    ``y`` are balls, or their ``to_interval_fractions()`` pairs.
    """
    xlo, xhi = x if isinstance(x, tuple) else x.to_interval_fractions()
    ylo, yhi = y if isinstance(y, tuple) else y.to_interval_fractions()
    sep = max(xhi - ylo, yhi - xlo)
    if sep <= 0:
        return _MAX_DIGITS  # identical points; effectively exact
    base = max(Fraction(1), abs(xlo), abs(xhi), abs(ylo), abs(yhi))
    num = base.numerator * sep.denominator
    den = base.denominator * sep.numerator
    # num/den lies in [2^(L-1), 2^(L+1)) for L the difference of the bit
    # lengths, so the estimate is at most a step or two off; the exact
    # comparisons multiply, since CPython divides huge ints in quadratic
    # time
    d = max(int((num.bit_length() - den.bit_length() - 1) * _LOG10_2), 0)
    if d > _MAX_DIGITS:
        return _MAX_DIGITS
    scaled = den * 10 ** d
    while scaled * 10 <= num:
        d += 1
        scaled *= 10
    while d and scaled > num:
        d -= 1
        scaled //= 10
    return min(d, _MAX_DIGITS)


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
    """(verdict, agreed digits): PASS needs overlap and agreed >= digits."""
    xlo, xhi = xi = series.to_interval_fractions()
    ylo, yhi = yi = rhs.to_interval_fractions()
    agreed = agreed_digits(xi, yi)
    if series.overlaps(rhs):
        if agreed >= digits:
            return "PASS", agreed
        return "INCONCLUSIVE", agreed
    # disjoint: demand a gap well beyond the combined uncertainty
    gap = max(ylo - xhi, xlo - yhi)
    uncertainty = (xhi - xlo) + (yhi - ylo)
    if gap > 10 * uncertainty:
        return "FAIL", agreed
    return "INCONCLUSIVE", agreed


@functools.lru_cache(maxsize=256)
def _summed(stream, strategy, digits: int, max_terms: int,
            prec: int) -> SumResult:
    """``sum_to_precision`` memoized on all of its inputs."""
    return sum_to_precision(stream, strategy, digits, max_terms=max_terms,
                            prec=prec)


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
                run = _summed(stream, strategy, digits, max_terms, prec)
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


def _verify_group(args: tuple) -> list:
    """Child-process worker: verifies the entries of one task, looked up
    by their ids, in order."""
    entry_ids, digits, max_terms = args
    reg = make_registry()
    return [verify_identity(reg[entry_id], digits=digits,
                            max_terms=max_terms) for entry_id in entry_ids]


def _series_key(entry: IdentityEntry):
    """The entry's (stream, tail), which keys its sums; its id when the
    series cannot be built or hashed, a fault its worker then reports."""
    try:
        key = entry.make_stream()
        hash(key)
    except Exception:
        return entry.id
    return key


def verify_all(ids: Optional[list] = None, digits: Optional[int] = None,
               max_terms: Optional[int] = None, workers: int = 1) -> dict:
    """Verify many entries; report order follows the registry order.

    The serial path verifies the entries of the registry built here;
    worker processes receive only entry ids and look them up in their
    own registry, built once per process (a forked worker inherits the
    parent's).  Either way each entry is built by the same factory, so
    reports are identical whatever the worker count.  Entries whose
    series are equal go to the pool as one task, so one worker sums that
    series and the others reuse its sum: which sums each worker runs
    does not depend on the schedule.
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
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        groups: dict = {}
        for i, entry_id in enumerate(ids):
            groups.setdefault(_series_key(reg[entry_id]), []).append(i)
        jobs = [([ids[i] for i in group], digits, max_terms)
                for group in groups.values()]
        reports = [None] * len(ids)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for group, done in zip(groups.values(),
                                   pool.map(_verify_group, jobs)):
                for i, rep in zip(group, done):
                    reports[i] = rep
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
