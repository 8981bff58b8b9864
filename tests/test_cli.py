"""Command-line driver: parsing, output formats, exit-code contract."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomharm import cli
from binomharm.ball_arith import Ball
from binomharm.cli import CliConfig, run, _truncate_significand
from binomharm.registry import make_registry


def _json_out(capsys):
    out = capsys.readouterr().out
    payload = json.loads(out)
    # stable serialization: parse/re-serialize reproduces the bytes
    assert json.dumps(payload, indent=2) + "\n" == out
    return payload


# ----------------------------------------------------------------------
# parsing


def test_config_is_frozen_dataclass():
    cfg = CliConfig(command="list")
    with pytest.raises(Exception):
        cfg.command = "verify"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--id", "EQ1", "--frobnicate"])
    assert exc.value.code == 2


def test_float_x_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--gf", "GF_M", "--x", "0.125"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "EQ6", "--digits"],
    ["verify", "--id", "EQ6", "--max-terms"],
    ["verify", "--all", "--workers"],
    ["eval", "--gf", "GF_M", "--x", "1/8", "--digits"],
    ["eval", "--gf", "GF_M", "--x", "1/8", "--max-terms"],
    ["constants", "--digits"],
], ids=["verify-digits", "verify-max-terms", "verify-workers",
        "eval-digits", "eval-max-terms", "constants-digits"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_int_flag_is_a_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        run(argv + [value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a positive integer" in captured.err


def test_truncate_significand_preserves_magnitude():
    assert _truncate_significand("3.14159265", 4) == "3.141"
    assert _truncate_significand("0.0003681553", 3) == "0.000368"
    # never cut before the decimal point
    assert _truncate_significand("123456.789", 2).startswith("123456")


# ----------------------------------------------------------------------
# list


def test_list_table(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert "49 entries" in out
    assert "EQ36" in out and "THM27" in out


def test_list_status_filter_json(capsys):
    assert run(["list", "--status", "as_printed_discrepant",
                "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["n_entries"] == 3
    ids = {row["id"] for row in payload["entries"]}
    assert ids == {"EQ17_AS_PRINTED", "EQ37_AS_PRINTED", "EQ38_AS_PRINTED"}


def test_list_family_filter_json(capsys):
    assert run(["list", "--family", "catalan", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["n_entries"] == 10
    assert all(row["family"] == "catalan" for row in payload["entries"])


# ----------------------------------------------------------------------
# verify


def test_verify_single_pass(capsys):
    assert run(["verify", "--id", "EQ36", "--digits", "15"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert "0.294524" in out


def test_verify_fixture_failure_upholds_contract(capsys):
    assert run(["verify", "--id", "EQ37_AS_PRINTED",
                "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["verdict"] == "FAIL"
    assert payload["expected"] == "FAIL"
    assert payload["ok"] is True


def test_verify_unknown_id(capsys):
    assert run(["verify", "--id", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "NOPE" in err


def test_verify_r_on_non_template(capsys):
    assert run(["verify", "--id", "EQ1", "--r", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_all_rejects_r(capsys):
    assert run(["verify", "--all", "--r", "3"]) == 2
    assert "error: --r applies only to" in capsys.readouterr().err


def test_verify_bad_r(capsys):
    assert run(["verify", "--id", "FIB_H", "--r", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_id_rejects_workers(capsys):
    # --workers sizes the process pool of --all; one entry has none
    assert run(["verify", "--id", "EQ6", "--workers", "3"]) == 2
    assert ("error: --workers applies only to --all"
            in capsys.readouterr().err)


def test_verify_all_workers_default_to_cpu_count(monkeypatch, capsys):
    seen = []

    def fake_verify_all(digits, max_terms, workers):
        seen.append(workers)
        return {"summary": {"ok": True}, "reports": []}

    monkeypatch.setattr(cli, "verify_all", fake_verify_all)
    monkeypatch.setattr(cli, "_default_parallelism", lambda: 5)
    assert run(["verify", "--all", "--format", "json"]) == 0
    assert run(["verify", "--all", "--workers", "2", "--format", "json"]) == 0
    assert seen == [5, 2]


def test_verify_template_instance_json(capsys):
    assert run(["verify", "--id", "LUCAS_HD", "--r", "3",
                "--digits", "20", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["r"] == 3
    assert payload["verdict"] == "PASS"
    assert payload["agreed_digits"] >= 20


def test_verify_inconclusive_exits_1(capsys):
    code = run(["verify", "--id", "THM26", "--digits", "12",
                "--max-terms", "50", "--format", "json"])
    assert code == 1
    payload = _json_out(capsys)
    assert payload["verdict"] == "INCONCLUSIVE"
    assert "reason" in payload


def test_verify_all_json(capsys):
    assert run(["verify", "--all", "--workers", "4",
                "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["summary"]["n_entries"] == 49
    assert payload["summary"]["ok"] is True
    assert len(payload["reports"]) == 49


# ----------------------------------------------------------------------
# eval


def test_eval_json_confirms_closed_form(capsys):
    assert run(["eval", "--gf", "GF_M", "--x", "1/8",
                "--digits", "25", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["x"] == "1/8"
    assert payload["digits"] == 25
    assert payload["agreed_digits"] >= 25
    assert payload["ok"] is True
    assert payload["closed_mid"][:10] == payload["series_mid"][:10]


def test_eval_refuses_disjoint_enclosures(monkeypatch, capsys):
    # a closed form off by 8e-31 still agrees to 30 digits, but its
    # enclosure (radius near 1e-41) misses the series enclosure
    real = cli.gf_value

    def shifted(name, x, prec, k=None):
        off = Ball.from_fraction(Fraction(8, 10 ** 31), prec)
        return real(name, x, prec, k=k) + off

    monkeypatch.setattr(cli, "gf_value", shifted)
    assert run(["eval", "--gf", "GF_HD", "--x", "1/8", "--digits", "30",
                "--format", "json"]) == 1
    payload = _json_out(capsys)
    assert payload["agreed_digits"] >= payload["digits"] == 30
    assert payload["ok"] is False


@pytest.mark.parametrize("gf", ["GF_CAT_HALF", "GF_CAT_H2N"])
def test_eval_raises_degree_at_planned_cut(capsys, gf):
    # at 30 digits the plan is (N, J) = (726, 9); both tails miss at
    # J = 9 and close at J = 10 on the same cut, not at N = 2904
    assert run(["eval", "--gf", gf, "--x", "1/4", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["n_terms"] == 726
    assert payload["ok"] is True


def test_eval_negative_rational(capsys):
    assert run(["eval", "--gf", "GF_M", "--x", "-1/5",
                "--digits", "20", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["x"] == "-1/5"
    assert payload["ok"] is True


def test_eval_shifted_requires_k(capsys):
    assert run(["eval", "--gf", "GF_SHIFTED", "--x", "3/16"]) == 2
    assert "--k" in capsys.readouterr().err


def test_eval_k_rejected_elsewhere(capsys):
    assert run(["eval", "--gf", "GF_M", "--x", "1/8", "--k", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_shifted_with_k(capsys):
    assert run(["eval", "--gf", "GF_SHIFTED", "--x", "3/16", "--k", "5",
                "--digits", "20", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["k"] == 5
    assert payload["ok"] is True


def test_eval_out_of_domain(capsys):
    assert run(["eval", "--gf", "GF_M", "--x", "1/2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_budget_exhaustion_exits_1(capsys):
    code = run(["eval", "--gf", "GF_M", "--x", "1/8", "--digits", "30",
                "--max-terms", "5", "--format", "json"])
    assert code == 1
    payload = _json_out(capsys)
    assert payload["ok"] is False
    assert "note" in payload


def test_eval_env_digits(monkeypatch, capsys):
    monkeypatch.setenv("BINOMHARM_DIGITS", "12")
    assert run(["eval", "--gf", "GF_HD", "--x", "1/8",
                "--format", "json"]) == 0
    assert _json_out(capsys)["digits"] == 12


def test_eval_explicit_digits_beat_env(monkeypatch, capsys):
    monkeypatch.setenv("BINOMHARM_DIGITS", "12")
    assert run(["eval", "--gf", "GF_HD", "--x", "1/8",
                "--digits", "22", "--format", "json"]) == 0
    assert _json_out(capsys)["digits"] == 22


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "EQ6"],
    ["verify", "--all", "--workers", "1"],
    ["eval", "--gf", "GF_HD", "--x", "1/8"],
    ["constants"],
], ids=["verify-id", "verify-all", "eval", "constants"])
@pytest.mark.parametrize("raw", ["twelve", "0"])
def test_bad_env_digits_is_a_usage_error(monkeypatch, capsys, argv, raw):
    monkeypatch.setenv("BINOMHARM_DIGITS", raw)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BINOMHARM_DIGITS must be")


# ----------------------------------------------------------------------
# constants


def test_constants_json(capsys):
    assert run(["constants", "--digits", "40", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["digits"] == 40
    rows = {row["name"]: row["mid"] for row in payload["constants"]}
    assert len(rows) == 7
    assert rows["pi"].startswith("3.14159265358979323846264338327950288419")
    assert rows["ln2"].startswith("0.6931471805599453094172321214581765680755")
    assert rows["catalan_g"].startswith("0.915965594177219015")


def test_constants_table(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 7
    assert all("+-" in line for line in out)


# ----------------------------------------------------------------------
# properties: exact-rational parsing and the exit-code contract


def _in_rational_grammar(text: str) -> bool:
    """[+-]digits[/digits], ASCII digits, a denominator with no leading
    zero; written out apart from the CLI's own pattern."""
    body = text[1:] if text[:1] in ("+", "-") else text
    num, slash, den = body.partition("/")

    def digits(t):
        return t != "" and all(c in "0123456789" for c in t)

    return digits(num) and (not slash or (digits(den) and den[0] != "0"))


def _parse_x(text: str) -> Fraction:
    parser = cli._build_parser()
    argv = cli._join_x_value(["eval", "--gf", "GF_M", "--x", text])
    return parser.parse_args(argv).x


def _run_quiet(argv) -> tuple:
    """(exit code, stdout) of one CLI run, stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40),
       st.booleans())
def test_rational_x_round_trips(p, q, plus):
    text = f"{'+' if plus and p >= 0 else ''}{p}/{q}"
    assert _parse_x(text) == Fraction(p, q)
    assert _parse_x(str(Fraction(p, q))) == Fraction(p, q)


_NEAR_RATIONAL = st.text(alphabet="0123456789+-/.e x\n٣", max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_NEAR_RATIONAL, st.text(max_size=8)))
def test_x_outside_the_grammar_exits_2(text):
    if _in_rational_grammar(text):
        assert _parse_x(text) == Fraction(text)
        return
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        _parse_x(text)
    assert exc.value.code == 2
    code, out = _run_quiet(["eval", "--gf", "GF_M", "--x", text])
    assert code == 2 and out == ""


def test_x_double_dash_exits_2():
    # argparse hands a lone "--" value over as [], past the type check
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        _parse_x("--")
    assert exc.value.code == 2
    code, out = _run_quiet(["eval", "--gf", "GF_M", "--x", "--"])
    assert code == 2 and out == ""


_IDS = sorted(make_registry())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_IDS), st.one_of(st.none(), st.integers(1, 64)))
def test_verify_exit_code_is_the_contract(eid, budget):
    argv = ["verify", "--id", eid, "--format", "json"]
    if budget is not None:
        argv += ["--max-terms", str(budget)]
    code, out = _run_quiet(argv)
    rep = json.loads(out)
    assert code == (0 if rep["ok"] else 1)
    if budget is None:
        assert code == 0   # every entry meets its expectation by default


@settings(max_examples=25, deadline=None)
@given(st.from_regex(r"[A-Z][A-Z0-9_]{0,8}", fullmatch=True))
def test_verify_unknown_id_exits_2(eid):
    if eid in _IDS:
        return
    code, out = _run_quiet(["verify", "--id", eid])
    assert code == 2 and out == ""


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["GF_M", "GF_HD"]), st.integers(1, 8),
       st.integers(8, 64), st.booleans(),
       st.one_of(st.none(), st.integers(1, 8)))
def test_eval_exit_code_is_the_contract(gf, p, k, negative, budget):
    # 1/64 <= |x| <= 1/8: the series converges at ratio 4|x| >= 1/16,
    # so eight terms never reach 30 digits
    x = Fraction(-p if negative else p, k * p)
    argv = ["eval", "--gf", gf, "--x", str(x), "--digits", "30",
            "--format", "json"]
    if budget is not None:
        argv += ["--max-terms", str(budget)]
    code, out = _run_quiet(argv)
    payload = json.loads(out)
    assert code == (0 if payload["ok"] else 1)
    assert code == (0 if budget is None else 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["GF_M", "GF_HD"]), st.integers(-64, 64),
       st.integers(1, 16))
def test_eval_outside_the_series_domain_exits_2(gf, p, q):
    x = Fraction(p, q)
    if 0 < abs(x) < Fraction(1, 4):
        return
    code, out = _run_quiet(["eval", "--gf", gf, "--x", str(x)])
    assert code == 2 and out == ""
