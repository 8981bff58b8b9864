"""The identity catalog: closed-form trees, streams, and metadata."""

from collections import Counter
from fractions import Fraction

import pytest

from binomharm.exact_core import SurdQ5
from binomharm.genfunc import GF_NAMES, gf_recipe, substitution_point
from binomharm.intpoly import peval, pgcd
from binomharm.registry import (IdentityStatus, TEMPLATE_IDS, _RECIPES,
                                build_template_entry,
                                coverage_report, entry_eq17,
                                entry_eq17_as_printed, make_registry,
                                structural_diff)
from binomharm.series_engine import TermRecipe, series_from

from _frozen import (RHS_REFS, THM26_PARTIAL_3, THM26_PARTIAL_5,
                     assert_contains)

REG = make_registry()


# ----------------------------------------------------------------------
# catalog shape


def test_registry_size_and_uniqueness():
    assert len(REG) == 49
    assert list(REG) == [e.id for e in REG.values()]


def test_registry_covers_every_display():
    report = coverage_report(REG)
    assert report["missing"] == []
    assert report["unexpected"] == []
    assert report["n_entries"] == 49


def test_status_census():
    census = Counter(e.status for e in REG.values())
    assert census[IdentityStatus.AS_PRINTED_OK] == 36
    assert census[IdentityStatus.PRIOR_WORK] == 6
    assert census[IdentityStatus.CORRECTED] == 4
    assert census[IdentityStatus.AS_PRINTED_DISCREPANT] == 3


def test_expected_verdicts():
    expected_fail = {e.id for e in REG.values()
                     if e.expected_verdict == "FAIL"}
    assert expected_fail == {"EQ17_AS_PRINTED", "EQ37_AS_PRINTED",
                             "EQ38_AS_PRINTED"}


def test_convergence_class_digit_policy():
    for eid in ("EQ1", "EQ2", "EQ3", "EQ34", "EQ35", "EQ36", "THM24",
                "THM25A", "THM25B", "THM26", "THM27"):
        assert REG[eid].default_digits == 15
    for eid in ("EQ6", "EQ31", "EQ40", "FIB_H"):
        assert REG[eid].default_digits == 30
    assert REG["THM25A"].max_terms == 10 ** 7
    assert REG["THM26"].max_terms <= 10 ** 4
    assert REG["THM27"].max_terms == 10 ** 7


# ----------------------------------------------------------------------
# closed-form trees against the frozen references


@pytest.mark.parametrize("eid", sorted(RHS_REFS))
def test_rhs_tree_matches_frozen_reference(eid):
    ball = REG[eid].rhs.value(200)
    assert_contains(ball, RHS_REFS[eid], what=eid)


def test_description_strings_render():
    for entry in REG.values():
        assert entry.series_desc in entry.description
        assert "=" in entry.description


# ----------------------------------------------------------------------
# streams against term oracles


@pytest.mark.parametrize("eid", [e.id for e in REG.values()
                                 if e.term_oracle is not None])
def test_stream_terms_match_oracle(eid):
    entry = REG[eid]
    stream, _ = entry.make_stream()
    it = stream.iter_exact()
    for _ in range(10):
        n, t = next(it)
        want = entry.term_oracle(n)
        if isinstance(t, SurdQ5):
            assert (t - want).is_zero(), f"{eid} term {n}"
        else:
            assert Fraction(t) == Fraction(want), f"{eid} term {n}"


def test_eq35_is_termwise_negation_of_eq34():
    s34, _ = REG["EQ34"].make_stream()
    s35, _ = REG["EQ35"].make_stream()
    i34, i35 = s34.iter_exact(), s35.iter_exact()
    for _ in range(200):
        (n34, t34), (n35, t35) = next(i34), next(i35)
        assert n34 == n35
        assert t35 == -t34


def test_thm26_exact_partials():
    stream, _ = REG["THM26"].make_stream()
    assert stream.partial_sum_exact(3) == THM26_PARTIAL_3
    assert stream.partial_sum_exact(5) == THM26_PARTIAL_5
    # hand-checked five-term rational: 9987533824/6087156075
    assert str(float(THM26_PARTIAL_5)).startswith("1.640755")


# ----------------------------------------------------------------------
# fixture structure: the printed and corrected forms differ minimally


def test_structural_diffs_are_single_ended():
    assert structural_diff(REG["EQ37"].rhs, REG["EQ37_AS_PRINTED"].rhs) == 1
    assert structural_diff(REG["EQ38"].rhs, REG["EQ38_AS_PRINTED"].rhs) == 2
    assert structural_diff(REG["EQ17"].rhs, REG["EQ17_AS_PRINTED"].rhs) == 1
    assert structural_diff(REG["EQ37"].rhs, REG["EQ37"].rhs) == 0


def test_eq17_factories_respect_domains():
    entry = entry_eq17(Fraction(1, 16))
    ball = entry.rhs.value(200)
    assert ball.rad_fraction() < Fraction(1, 10 ** 40)
    with pytest.raises(ValueError):
        entry_eq17_as_printed(Fraction(-1, 16))
    with pytest.raises(ValueError):
        entry_eq17_as_printed(Fraction(1, 4))


# ----------------------------------------------------------------------
# family templates


def test_template_ids_are_buildable():
    for tid in TEMPLATE_IDS:
        entry = build_template_entry(tid, 3)
        # aliases substitute 2r and record the effective parameter
        want_r = 6 if tid.endswith("_2R") else 3
        assert entry.r == want_r
        assert entry.default_digits == 30


def test_template_matches_registry_instance():
    built = build_template_entry("FIB_H", 4)
    ball_a = built.rhs.value(200)
    ball_b = REG["FIB_H"].rhs.value(200)
    assert ball_a.overlaps(ball_b)


def test_alias_template_substitutes_doubled_parameter():
    # the alias at r equals the base family at 2r
    alias = build_template_entry("FIB_H_2R", 2)
    base = build_template_entry("FIB_H", 4)
    assert alias.rhs.value(200).overlaps(base.rhs.value(200))
    sa, _ = alias.make_stream()
    sb, _ = base.make_stream()
    ia, ib = sa.iter_exact(), sb.iter_exact()
    for _ in range(8):
        (_, ta), (_, tb) = next(ia), next(ib)
        assert (ta - tb).is_zero()


def test_template_rejects_bad_input():
    with pytest.raises(ValueError):
        build_template_entry("FIB_H", 0)
    with pytest.raises((KeyError, ValueError)):
        build_template_entry("EQ1", 2)


def test_node_count_is_positive():
    for entry in REG.values():
        assert entry.rhs.node_count() >= 1


# ----------------------------------------------------------------------
# derived step ratios


def _step_recipes() -> dict:
    """The twelve asymptotic recipes under their keys, and geometric
    ones: every generating function but GF_SHIFTED at x = +-1/8, the
    arcsine kernels also at +-1/2, and the family series at r = 1, 2."""
    out = dict(_RECIPES)
    for name in (n for n in GF_NAMES if n != "GF_SHIFTED"):
        xs = (1, 4) if name in ("GF_EQ28", "GF_EQ29", "GF_EQ30") else (4,)
        for q in xs:
            for x in (Fraction(1, 2 * q), Fraction(-1, 2 * q)):
                out[f"{name}@{x}"] = gf_recipe(name, x)
    for family in ("FIB", "LUCAS"):
        for kind in ("H", "HD"):
            for r in (1, 2):
                out[f"{family}_{kind}@{r}"] = TermRecipe(
                    family, (1,), (1,), 1, kind,
                    y=4 * substitution_point(family, r))
    return out


_STEP_RECIPES = _step_recipes()


@pytest.mark.parametrize("key", sorted(_STEP_RECIPES))
def test_recipe_step_ratio_is_reduced(key):
    # the kernel's full step, point A(n)/B(n), against the unreduced
    # transcription y P(n+1) Q(n) (2n+1)^e / (P(n) Q(n+1) (2n+2)^e)
    recipe = _STEP_RECIPES[key]
    P, Q, e = recipe.P, recipe.Q, recipe.e
    stream = series_from(recipe)[0]
    assert pgcd(stream.A, stream.B) == (1,), key
    for n in range(1, 257):
        unreduced = recipe.y * Fraction(
            peval(P, n + 1) * peval(Q, n) * (2 * n + 1) ** e,
            peval(P, n) * peval(Q, n + 1) * (2 * n + 2) ** e)
        assert stream.point * stream.ratio(n) == unreduced, (key, n)


def test_reduced_ratio_degrees():
    assert [len(series_from(_RECIPES[k])[0].A) - 1
            for k in ("THM26", "EQ36")] == [3, 3]
