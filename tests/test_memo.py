"""The per-process memos: invisible in the output, keyed by value.

Four pure stages keep their results within one process: the verifier's
successful series sums, the closed-form subtree values, the planned
Euler-Maclaurin cut and degree, and the default registry.  None of them
may show in a report, a warm run must equal a cold one, and each memo
must hit exactly when its inputs are equal.
"""

import ast
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from binomharm import _emtail, registry, series_engine, verifier
from binomharm.registry import make_registry
from binomharm.series_engine import (AsymptoticTail, GeometricTail,
                                     Thm24Tail, series_from,
                                     sum_to_precision)
from binomharm.verifier import DIGITS_ENV_VAR, verify_all, verify_identity

_SRC = Path(verifier.__file__).parent
_FROZEN_OUTPUT = (Path(__file__).parent / "fixtures"
                  / "verify_all_default.json")
_MEMOS = (verifier._summed, registry._child, registry._entries,
          _emtail.plan)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _frozen_text(out) -> str:
    for rep in out["reports"]:
        del rep["wall_time"]
    return json.dumps(out, indent=2) + "\n"


def _strip(rep) -> dict:
    return {k: v for k, v in rep.items() if k != "wall_time"}


@pytest.fixture
def count_sums(monkeypatch):
    """Clear the series memo and count the sums the verifier runs."""
    verifier._summed.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return sum_to_precision(*args, **kwargs)

    monkeypatch.setattr(verifier, "sum_to_precision", counted)
    yield calls
    verifier._summed.cache_clear()


# ----------------------------------------------------------------------
# the memos cannot be seen in the output


def test_warm_and_cleared_memos_match_frozen_output(monkeypatch):
    monkeypatch.delenv(DIGITS_ENV_VAR, raising=False)
    frozen = _FROZEN_OUTPUT.read_text()
    assert _frozen_text(verify_all()) == frozen
    # every sum and subtree of this run is now a memo hit
    assert _frozen_text(verify_all()) == frozen
    _clear_memos()
    assert _frozen_text(verify_all()) == frozen


@pytest.mark.parametrize("prec", [114, 729])
def test_closed_forms_match_a_cold_memo_bit_for_bit(prec):
    reg = make_registry()
    # evaluated in registry order, so later entries hit the subtrees
    # earlier ones filled
    warm = {eid: e.rhs.value(prec) for eid, e in reg.items()}
    for eid, entry in reg.items():
        registry._child.cache_clear()
        cold = entry.rhs.value(prec)
        assert (cold.mid, cold.rad, cold.prec) == \
            (warm[eid].mid, warm[eid].rad, warm[eid].prec), eid


# ----------------------------------------------------------------------
# the memo keys


def test_equal_series_share_one_sum(count_sums):
    reg = make_registry()
    corrected = verify_identity(reg["EQ17"])
    printed = verify_identity(reg["EQ17_AS_PRINTED"])
    assert len(count_sums) == 1
    assert (corrected["verdict"], printed["verdict"]) == ("PASS", "FAIL")
    for field in ("n_terms", "prec_bits", "mode", "series_mid",
                  "series_rad"):
        assert printed[field] == corrected[field]


def test_each_digit_count_is_its_own_sum(count_sums):
    entry = make_registry()["EQ17"]
    at_30 = verify_identity(entry, digits=30)
    at_40 = verify_identity(entry, digits=40)
    assert [c[2] for c in count_sums] == [30, 40]
    assert at_30["n_terms"] < at_40["n_terms"]


def _undecidable():
    # THM24's stream has no exact step ratios: a geometric tail over it
    # cannot be proven (TypeError)
    stream = make_registry()["THM24"].make_stream()[0]
    return dataclasses.replace(make_registry()["THM24"],
                               make_stream=lambda: (stream, GeometricTail()))


def _point_bound_below():
    # a point bound below |x| = 3/16 is refuted (TailHypothesisViolation)
    entry = make_registry()["EQ17"]
    stream = entry.make_stream()[0]
    tail = GeometricTail(point_bound=Fraction(1, 8))
    return dataclasses.replace(entry, make_stream=lambda: (stream, tail))


def _over_budget():
    # twenty terms cannot reach 30 digits (PrecisionNotReached)
    return dataclasses.replace(make_registry()["EQ17"], max_terms=20)


@pytest.mark.parametrize("make_entry, reason", [
    (_undecidable, "TypeError: Thm24Stream has no exact step ratios"),
    (_point_bound_below, "tail hypothesis violated: point bound 1/8 is "
                         "below |x| = 3/16"),
    (_over_budget, "term budget 20 exhausted before 30 digits"),
])
def test_failed_sums_are_not_kept(count_sums, make_entry, reason):
    entry = make_entry()
    first = verify_identity(entry)
    second = verify_identity(entry)
    assert first["verdict"] == "INCONCLUSIVE"
    assert first["reason"].startswith(reason)
    assert _strip(second) == _strip(first)
    # the second run sums again: a failed sum leaves nothing to reuse
    assert len(count_sums) == 2


def test_equal_recipes_give_equal_streams_and_tails():
    reg = make_registry()
    pairs = [("EQ17", "EQ17_AS_PRINTED"), ("EQ37", "EQ15_R0"),
             ("EQ38", "EQ38_AS_PRINTED"), ("FIB_H", "FIB_H_2R"),
             ("LUCAS_H", "LUCAS_H_2R"), ("THM24", "THM24"),
             ("THM25A", "THM25A")]
    for a, b in pairs:
        sa, sb = reg[a].make_stream(), reg[b].make_stream()
        assert sa == sb and hash(sa) == hash(sb), (a, b)
    assert reg["EQ34"].make_stream() != reg["EQ35"].make_stream()
    assert reg["EQ37"].make_stream() != reg["EQ38"].make_stream()


def test_streams_tails_and_sums_are_frozen():
    stream, tail = make_registry()["EQ17"].make_stream()
    res = sum_to_precision(stream, tail, 15)
    thm24_stream, thm24_tail = make_registry()["THM24"].make_stream()
    em_stream, em_tail = series_from(registry._RECIPES["EQ1"])
    assert isinstance(thm24_tail, Thm24Tail)
    assert isinstance(em_tail, AsymptoticTail)
    for obj, field in [(stream, "seed"), (tail, "point_bound"),
                       (res, "n_terms"), (res, "value"),
                       (thm24_stream, "sa"), (thm24_tail, "recipe_a"),
                       (em_stream, "point"), (em_tail, "recipe")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)


def test_pool_tasks_group_equal_series():
    # EQ37, EQ15_R0 and EQ37_AS_PRINTED share one series and so one pool
    # task; the reports still come back in the order of ``ids``
    ids = ["EQ37", "EQ1", "EQ15_R0", "EQ37_AS_PRINTED", "EQ37"]
    serial = verify_all(ids=ids, workers=1)
    pooled = verify_all(ids=ids, workers=2)
    assert [_strip(r) for r in pooled["reports"]] == \
        [_strip(r) for r in serial["reports"]]
    assert [r["id"] for r in pooled["reports"]] == ids
    reg = make_registry()
    assert verifier._series_key(reg["EQ37"]) == \
        verifier._series_key(reg["EQ15_R0"])
    broken = dataclasses.replace(reg["EQ1"], make_stream=lambda: 1 / 0)
    assert verifier._series_key(broken) == "EQ1"


# ----------------------------------------------------------------------
# the registry and the plan


def test_registry_is_a_fresh_dict_over_shared_entries():
    first, second = make_registry(), make_registry()
    assert first is not second
    assert all(first[k] is second[k] for k in first)
    del first["EQ1"]
    assert "EQ1" in make_registry()
    with pytest.raises(dataclasses.FrozenInstanceError):
        second["EQ1"].id = "EQ0"


def test_plan_is_pure():
    # the tolerance of a planned tail at 15 digits
    tol = series_engine._tol_for(15) / 2
    _emtail.plan.cache_clear()
    for weight, expected in ((Fraction(1), (468, 4)),
                             (Fraction(13, 5), (468, 5))):
        cold = _emtail.plan(tol, weight)
        assert _emtail.plan(tol, weight) == cold == expected
        assert _emtail.plan.__wrapped__(tol, weight) == expected


def test_every_memo_is_bounded():
    for memo in _MEMOS:
        assert memo.cache_info().maxsize is not None, memo.__name__


def _imports(module: str) -> set:
    """The binomharm modules ``module`` imports, by relative name."""
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_neither_route_reaches_the_others_memo():
    # the closed-form memo lives in registry, the series memo in
    # verifier; the series modules import neither, and tree evaluation
    # does not import the verifier
    for module in ("series_engine", "_emtail", "genfunc", "intpoly",
                   "exact_core", "ball_arith"):
        assert not _imports(module) & {"registry", "verifier"}, module
    assert "verifier" not in _imports("registry")
