"""Command-line driver: parsing, output formats, exit-code contract."""

import json
from fractions import Fraction

import pytest

from binomharm import cli
from binomharm.ball_arith import Ball
from binomharm.cli import CliConfig, run, _truncate_significand


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


def test_verify_bad_r(capsys):
    assert run(["verify", "--id", "FIB_H", "--r", "0"]) == 2
    assert "error:" in capsys.readouterr().err


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
