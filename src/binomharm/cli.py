"""Command-line front end for listing, verifying, and evaluating.

Subcommands:

    list        print the identity catalog, optionally filtered
    verify      check one identity (or every one) against its closed form
    eval        evaluate a generating function at an exact rational point
    constants   print the verified constant enclosures

Output is a fixed-width table by default; ``--format json`` emits stable
JSON (insertion-ordered keys, two-space indent) that survives a
parse/re-serialize round trip byte for byte.  Table output truncates
enclosures to the agreed digits; the full-precision strings live in the
JSON output only.

Exit status: 0 when the requested check upholds its contract (a verify
run where every verdict matches its expectation, an eval whose series
check confirms the closed form: the two enclosures overlap and agree to
the requested digits), 1 when a check concludes against the
contract or cannot conclude, 2 for usage errors.

Rational inputs are exact strings like ``3/16``; floating-point input is
rejected so substitution points stay exact.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .ball_arith import (Ball, ConstantName, DomainError, constant,
                         working_precision)
from .genfunc import GF_NAMES, gf_series_stream, gf_value, needs_k
from .registry import (IdentityStatus, TEMPLATE_IDS, build_template_entry,
                       make_registry)
from .series_engine import (PrecisionNotReached, TailHypothesisViolation,
                            sum_to_precision)
from .verifier import _classify, _env_digits, verify_all, verify_identity

__all__ = ["CliConfig", "run", "main"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

_EVAL_DIGITS = 30
_CONST_DIGITS = 40
_EVAL_MAX_TERMS = 10 ** 6


@dataclass(frozen=True)
class CliConfig:
    """Parsed invocation; one field per flag, defaults resolved."""

    command: str
    format: str = "table"
    id: Optional[str] = None
    run_all: bool = False
    r: Optional[int] = None
    digits: Optional[int] = None
    max_terms: Optional[int] = None
    workers: int = 1
    status: Optional[str] = None
    family: Optional[str] = None
    gf: Optional[str] = None
    x: Optional[Fraction] = None
    k: Optional[int] = None


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 3/16, got {text!r}")
    return Fraction(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _default_parallelism() -> int:
    getter = getattr(os, "process_cpu_count", os.cpu_count)
    return getter() or 1


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _truncate_significand(text: str, digits: int) -> str:
    """Cut a decimal string to `digits` significant figures.

    Stops only after the decimal point has been passed, so the magnitude
    of the printed value is never altered.
    """
    mantissa, sep, exponent = text.partition("e")
    out = []
    seen = 0
    started = False
    dotted = False
    for ch in mantissa:
        if ch.isdigit():
            if started and seen >= digits and dotted:
                break
            if ch != "0":
                started = True
            if started:
                seen += 1
        elif ch == ".":
            dotted = True
        out.append(ch)
    return "".join(out) + (sep + exponent if sep else "")


def _enclosure_line(label: str, mid: str, rad: str, agreed: int) -> str:
    shown = _truncate_significand(mid, max(agreed, 6))
    return f"  {label} = {shown} +- {rad}"


# ----------------------------------------------------------------------
# list


def _entry_row(entry) -> dict:
    row = {
        "id": entry.id,
        "paper_eq": entry.paper_eq,
        "family": entry.family,
        "status": entry.status.value,
        "expected": entry.expected_verdict,
        "digits": entry.default_digits,
        "max_terms": entry.max_terms,
        "description": entry.description,
    }
    if entry.r is not None:
        row["r"] = entry.r
    return row


def _cmd_list(cfg: CliConfig) -> int:
    reg = make_registry()
    entries = [e for e in reg.values()
               if (cfg.status is None or e.status.value == cfg.status)
               and (cfg.family is None or e.family == cfg.family)]
    if cfg.format == "json":
        _emit_json({"n_entries": len(entries),
                    "entries": [_entry_row(e) for e in entries]})
        return 0
    header = (f"{'ID':<18} {'EQ':<8} {'FAMILY':<10} {'STATUS':<22} "
              f"{'EXPECT':<6} {'DIGITS':>6}  DESCRIPTION")
    print(header)
    print("-" * len(header))
    for e in entries:
        desc = e.description
        if len(desc) > 70:
            desc = desc[:67] + "..."
        print(f"{e.id:<18} {e.paper_eq:<8} {e.family:<10} "
              f"{e.status.value:<22} {e.expected_verdict:<6} "
              f"{e.default_digits:>6}  {desc}")
    print(f"{len(entries)} entries")
    return 0


# ----------------------------------------------------------------------
# verify


def _print_report_table(rep: dict) -> None:
    head = f"{rep['id']}  [eq {rep['paper_eq']}]  {rep['family']}  {rep['status']}"
    if "r" in rep:
        head += f"  r={rep['r']}"
    print(head)
    print(f"  {rep['description']}")
    ok = "ok" if rep["ok"] else "UNEXPECTED"
    print(f"  verdict: {rep['verdict']} (expected {rep['expected']}, {ok})  "
          f"agreed {rep['agreed_digits']} digits "
          f"(requested {rep['digits_requested']})")
    print(f"  terms: {rep['n_terms']}  precision: {rep['prec_bits']} bits  "
          f"mode: {rep['mode']}  time: {rep['wall_time']:.2f}s")
    agreed = rep["agreed_digits"]
    if "series_mid" in rep:
        print(_enclosure_line("series", rep["series_mid"],
                              rep["series_rad"], agreed))
    if "rhs_mid" in rep:
        print(_enclosure_line("rhs   ", rep["rhs_mid"],
                              rep["rhs_rad"], agreed))
    if "reason" in rep:
        print(f"  reason: {rep['reason']}")


def _print_suite_table(result: dict) -> None:
    header = (f"{'ID':<18} {'EQ':<8} {'VERDICT':<13} {'EXPECT':<6} "
              f"{'OK':<4} {'AGREED':>6} {'TERMS':>9} {'TIME':>8}")
    print(header)
    print("-" * len(header))
    for rep in result["reports"]:
        print(f"{rep['id']:<18} {rep['paper_eq']:<8} {rep['verdict']:<13} "
              f"{rep['expected']:<6} {'yes' if rep['ok'] else 'NO':<4} "
              f"{rep['agreed_digits']:>6} {rep['n_terms']:>9} "
              f"{rep['wall_time']:>7.2f}s")
    s = result["summary"]
    print(f"summary: {s['n_entries']} entries, {s['n_pass']} pass, "
          f"{s['n_fail']} fail, {s['n_inconclusive']} inconclusive, "
          f"contract {'ok' if s['ok'] else 'BROKEN'}")


def _cmd_verify(cfg: CliConfig) -> int:
    if cfg.run_all:
        result = verify_all(digits=cfg.digits, max_terms=cfg.max_terms,
                            workers=cfg.workers)
        if cfg.format == "json":
            _emit_json(result)
        else:
            _print_suite_table(result)
        return 0 if result["summary"]["ok"] else 1

    try:
        if cfg.r is not None:
            if cfg.id not in TEMPLATE_IDS:
                raise KeyError(
                    f"--r applies only to family templates {TEMPLATE_IDS}")
            entry = build_template_entry(cfg.id, cfg.r)
        else:
            reg = make_registry()
            if cfg.id not in reg:
                raise KeyError(f"unknown identity id {cfg.id!r}; "
                               "see the list subcommand")
            entry = reg[cfg.id]
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2

    rep = verify_identity(entry, digits=cfg.digits, max_terms=cfg.max_terms)
    if cfg.format == "json":
        _emit_json(rep)
    else:
        _print_report_table(rep)
    return 0 if rep["ok"] else 1


# ----------------------------------------------------------------------
# eval


def _cmd_eval(cfg: CliConfig) -> int:
    name = cfg.gf
    if needs_k(name) and cfg.k is None:
        print(f"error: {name} requires --k (shift order)", file=sys.stderr)
        return 2
    if not needs_k(name) and cfg.k is not None:
        print(f"error: {name} does not take --k", file=sys.stderr)
        return 2
    digits = cfg.digits or _EVAL_DIGITS
    prec = working_precision(digits)
    try:
        closed = gf_value(name, cfg.x, prec, k=cfg.k)
        stream, strategy = gf_series_stream(name, cfg.x, k=cfg.k)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = {
        "gf": name,
        "x": str(cfg.x),
        "digits": digits,
        "closed_mid": closed.mid_str(digits + 10),
        "closed_rad": closed.rad_str(),
    }
    if cfg.k is not None:
        payload["k"] = cfg.k

    series: Optional[Ball] = None
    note = ""
    n_terms = 0
    mode = ""
    try:
        run = sum_to_precision(stream, strategy, digits,
                               max_terms=cfg.max_terms or _EVAL_MAX_TERMS,
                               prec=prec)
        series, n_terms, mode = run.value, run.n_terms, run.mode
    except PrecisionNotReached as exc:
        series, n_terms, mode = exc.best, exc.n_terms, "budget-exhausted"
        note = f"series check hit the term budget before {digits} digits"
    except TailHypothesisViolation as exc:
        note = f"series check unavailable: {exc}"

    agreed = 0
    confirmed = False
    if series is not None:
        # the verifier's rule: PASS needs overlap as well as the digits
        verdict, agreed = _classify(series, closed, digits)
        confirmed = verdict == "PASS"
        payload["series_mid"] = series.mid_str(digits + 10)
        payload["series_rad"] = series.rad_str()
    payload["agreed_digits"] = agreed
    payload["n_terms"] = n_terms
    payload["mode"] = mode
    payload["ok"] = confirmed
    if note:
        payload["note"] = note

    if cfg.format == "json":
        _emit_json(payload)
    else:
        shift = f", k={cfg.k}" if cfg.k is not None else ""
        print(f"{name}(x={cfg.x}{shift}) at {digits} digits")
        print(_enclosure_line("closed", payload["closed_mid"],
                              payload["closed_rad"], agreed or digits))
        if series is not None:
            print(_enclosure_line("series", payload["series_mid"],
                                  payload["series_rad"], agreed or digits))
            print(f"  agreed digits: {agreed}  terms: {n_terms}  mode: {mode}")
        if note:
            print(f"  note: {note}")
    return 0 if confirmed else 1


# ----------------------------------------------------------------------
# constants


def _cmd_constants(cfg: CliConfig) -> int:
    digits = cfg.digits or _CONST_DIGITS
    prec = working_precision(digits)
    rows = []
    for name in ConstantName:
        ball = constant(name, prec)
        rows.append({"name": name.value,
                     "mid": ball.mid_str(digits),
                     "rad": ball.rad_str()})
    if cfg.format == "json":
        _emit_json({"digits": digits, "constants": rows})
        return 0
    for row in rows:
        print(f"{row['name']:<10} {row['mid']} +- {row['rad']}")
    return 0


# ----------------------------------------------------------------------
# driver


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomharm",
        description="Rigorous verification of central-binomial, Catalan, "
                    "and Fibonacci-Lucas series identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json"),
                       default="table", help="output format")

    p_list = sub.add_parser("list", help="print the identity catalog")
    p_list.add_argument("--status",
                        choices=[s.value for s in IdentityStatus],
                        help="filter by catalog status")
    p_list.add_argument("--family",
                        help="filter by family tag (e.g. catalan, lucas)")
    add_format(p_list)

    p_verify = sub.add_parser("verify", help="check identities")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--id", help="identity id (see list)")
    which.add_argument("--all", action="store_true", dest="run_all",
                       help="verify the whole catalog")
    p_verify.add_argument("--r", type=int,
                          help="family parameter for template ids "
                               "(FIB_H, LUCAS_H, ...)")
    p_verify.add_argument("--digits", type=_positive_int,
                          help="agreed digits to demand "
                               "(default: per-entry policy)")
    p_verify.add_argument("--max-terms", type=_positive_int, dest="max_terms",
                          help="term budget override")
    p_verify.add_argument("--workers", type=_positive_int,
                          default=_default_parallelism(),
                          help="worker processes for --all")
    add_format(p_verify)

    p_eval = sub.add_parser("eval",
                            help="evaluate a generating function at x")
    p_eval.add_argument("--gf", required=True, choices=GF_NAMES,
                        help="generating function name")
    p_eval.add_argument("--x", required=True, type=_parse_rational,
                        help="exact rational point, e.g. 1/8")
    p_eval.add_argument("--k", type=int,
                        help="shift order (GF_SHIFTED only)")
    p_eval.add_argument("--digits", type=_positive_int,
                        help=f"digits to certify (default {_EVAL_DIGITS})")
    p_eval.add_argument("--max-terms", type=_positive_int, dest="max_terms",
                        help="series check term budget "
                             f"(default {_EVAL_MAX_TERMS})")
    add_format(p_eval)

    p_const = sub.add_parser("constants",
                             help="print verified constant enclosures")
    p_const.add_argument("--digits", type=_positive_int,
                         help=f"digits to print (default {_CONST_DIGITS})")
    add_format(p_const)
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "constants": _cmd_constants,
}


def _join_x_value(argv: list) -> list:
    """Rewrite ["--x", "-1/5"] as ["--x=-1/5"].

    Negative rationals start with a dash, which argparse would otherwise
    read as a new flag.
    """
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--x":
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"--x={nxt}")
        else:
            out.append(tok)
    return out


def run(argv: Optional[list] = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    ns = parser.parse_args(_join_x_value(list(argv)))
    fields = {f: getattr(ns, f) for f in CliConfig.__dataclass_fields__
              if hasattr(ns, f)}
    cfg = CliConfig(**fields)
    try:
        # BINOMHARM_DIGITS is read here once; an explicit --digits wins
        env_digits = _env_digits()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.digits is None:
        cfg = replace(cfg, digits=env_digits)
    try:
        return _HANDLERS[cfg.command](cfg)
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
