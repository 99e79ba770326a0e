"""Splitting-criterion checks: the filtration condition, its v0 companion,
and the full mechanical run for type G2."""

import math

import pytest
from builders import g2_fundamentals, v_gamma

from weylpbw import (
    WeylModuleP,
    build_root_system,
    check_condition2,
    check_v0,
    g2_verify,
    gamma_weight,
    implication_consistent,
    stable_dumps,
)


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="module")
def g2_11():
    return g2_verify(*g2_fundamentals(11))


def test_gamma_weight(a1, a2):
    # gamma = 2(p-1) rho in fundamental coordinates
    assert gamma_weight(a1, 2) == (2,)
    assert gamma_weight(a1, 3) == (4,)
    assert gamma_weight(a1, 5) == (8,)
    assert gamma_weight(a2, 2) == (2, 2)


# --- the filtration condition ------------------------------------------------


@pytest.mark.parametrize("p,dim,top,group,level_dims", [
    (2, 3, 1, [2], [1, 2]),
    (3, 5, 2, [4], [1, 2, 3]),
    (5, 9, 4, [8], [1, 2, 3, 4, 5]),
])
def test_condition2_a1(a1, p, dim, top, group, level_dims):
    report = check_condition2(v_gamma(a1, p))
    assert report.verdict
    assert report.condition == "condition2"
    assert report.gamma == gamma_weight(a1, p)
    w = report.witness
    assert w["dim_v_gamma"] == dim
    assert w["top_level"] == top
    assert w["weight_group"] == group
    assert w["group_level_dims"] == level_dims
    assert w["in_top_level"] and not w["in_level_below"]
    assert not w["f0_annihilates"]


def test_condition2_a2(a2):
    report = check_condition2(v_gamma(a2, 2))
    assert report.verdict
    w = report.witness
    assert w["dim_v_gamma"] == 27
    assert w["top_level"] == 3
    assert w["weight_group"] == [4, 4]
    assert w["group_level_dims"] == [5, 15, 28, 39]


def test_condition2_rejects_composite_characteristic(a1):
    # V(gamma) cannot be reduced at 4, so no module for the check exists
    with pytest.raises(ValueError):
        check_condition2(v_gamma(a1, 4))


@pytest.mark.parametrize("check", [check_condition2, check_v0])
def test_gamma_checks_reject_characteristic_zero(a1, check):
    with pytest.raises(ValueError):
        check(WeylModuleP.build(a1, gamma_weight(a1, 3), None))


@pytest.mark.parametrize("check", [check_condition2, check_v0])
def test_gamma_checks_reject_other_weights(a1, a2, check):
    with pytest.raises(ValueError):
        check(WeylModuleP.build(a1, (2,), 3))        # gamma is (4,) at p = 3
    with pytest.raises(ValueError):
        check(WeylModuleP.build(a2, (2, 0), 2))      # gamma is (2, 2) at p = 2


def test_report_payload(a1):
    payload = check_condition2(v_gamma(a1, 2)).to_payload()
    assert payload["schema_version"] == 1
    assert payload["label"] == "A1"
    assert payload["condition"] == "condition2"
    assert payload["p"] == 2
    assert payload["verdict"] is True
    assert len(payload["input_hash"]) == 64


# --- the v0 variant and the implication --------------------------------------


def test_v0_a2(a2):
    report = check_v0(v_gamma(a2, 2))
    assert report.verdict
    assert report.condition == "v0"
    w = report.witness
    assert w["weight_block"] == [2, 2]
    assert w["block_dim"] == 3
    assert w["dim_v_gamma"] == 27
    assert w["top_level"] == 3
    assert not w["f0_annihilates"]
    assert w["lower_span_rank"] == w["lower_monomials"] == 1


def test_implication(a1, a2):
    # condition2 true forces v0 true; both hold in every configuration we
    # can afford to enumerate, so consistency is just (+,+)
    for system, p in [(a1, 2), (a1, 3), (a2, 2)]:
        m = v_gamma(system, p)
        assert implication_consistent(check_condition2(m), check_v0(m))


def test_implication_rejects_mismatched_reports(a1, a2):
    with pytest.raises(ValueError):
        implication_consistent(check_condition2(v_gamma(a1, 2)),
                               check_v0(v_gamma(a2, 2)))


def test_implication_rejects_reports_of_the_wrong_conditions(a1):
    m = v_gamma(a1, 2)
    condition2, v0 = check_condition2(m), check_v0(m)
    for pair in [(v0, condition2), (condition2, condition2), (v0, v0)]:
        with pytest.raises(ValueError, match="condition2 report and a v0 report"):
            implication_consistent(*pair)


# --- the G2 run ---------------------------------------------------------------


def test_g2_step_names_and_order(g2_11):
    assert [s.name for s in g2_11.steps] == [
        "annihilation", "j_images", "highest_section", "coefficient",
        "final_lemma",
    ]


def test_g2_structural_steps_pass(g2_11):
    by_name = {s.name: s for s in g2_11.steps}
    assert by_name["annihilation"].ok
    assert by_name["j_images"].ok
    assert by_name["highest_section"].ok
    assert by_name["final_lemma"].ok


def test_g2_coefficient_step(g2_11):
    """The literal coefficient is +binomial(2p-2, p-1), hence divisible by
    p; the run records the vanishing and the facts that do hold (agreement
    of the Z expansion with the closed form, membership of the target in
    the essential set, and the nonzero power witness)."""
    step = next(s for s in g2_11.steps if s.name == "coefficient")
    assert not step.ok
    d = step.details
    assert d["target"] == [10] * 6
    assert d["literal_coefficient_mod_p"] == 0
    assert d["integer_coefficient"] == math.comb(20, 10) == 184756
    assert d["closed_form_binomial"] == d["integer_coefficient"]
    assert d["chain_constant"] == -1
    assert d["routes_agree"]
    assert d["es_membership"]
    assert all(d["tight_inequalities"].values())
    assert d["witness_seed_coefficient"] == -2
    assert d["witness_power_mod_p"] == 1
    assert d["proposition_via_power_witness"]
    assert "anomaly" in d


def test_g2_overall_verdict(g2_11):
    assert not g2_11.overall
    assert not g2_11.exploration_only
    assert not g2_11.certified


def test_g2_p13_matches_closed_form():
    report = g2_verify(*g2_fundamentals(13))
    step = next(s for s in report.steps if s.name == "coefficient")
    assert step.details["integer_coefficient"] == math.comb(24, 12)
    assert step.details["literal_coefficient_mod_p"] == 0
    assert step.details["witness_power_mod_p"] == 1
    by_name = {s.name: s for s in report.steps}
    assert by_name["annihilation"].ok and by_name["j_images"].ok
    assert by_name["highest_section"].ok and by_name["final_lemma"].ok


def test_g2_small_prime_is_exploration_only():
    report = g2_verify(*g2_fundamentals(7))
    assert report.exploration_only
    assert not report.certified
    assert report.to_payload()["exploration_only"] is True


def test_g2_payload_deterministic(g2_11):
    again = g2_verify(*g2_fundamentals(11))
    assert stable_dumps(again.to_payload()) == stable_dumps(g2_11.to_payload())
    payload = g2_11.to_payload()
    assert payload["type"] == "G2"
    assert payload["p"] == 11
    assert len(payload["input_hash"]) == 64


def test_g2_rejects_composite_p():
    # no G2 module exists over 9, so there is nothing to verify
    with pytest.raises(ValueError):
        g2_verify(*g2_fundamentals(9))


def test_g2_rejects_swapped_weights():
    v_w1, v_w2 = g2_fundamentals(11)
    with pytest.raises(ValueError):
        g2_verify(v_w2, v_w1)


def test_g2_rejects_mixed_primes():
    v_w1, _ = g2_fundamentals(11)
    _, v_w2 = g2_fundamentals(13)
    with pytest.raises(ValueError):
        g2_verify(v_w1, v_w2)
    with pytest.raises(ValueError):
        g2_verify(WeylModuleP(v_w1.lattice, None), WeylModuleP(v_w2.lattice, None))


def test_g2_rejects_other_types():
    b2 = build_root_system("B2")
    v_w1, v_w2 = g2_fundamentals(11)
    with pytest.raises(ValueError):
        g2_verify(WeylModuleP.build(b2, (1, 0), 11), v_w2)
    with pytest.raises(ValueError):
        g2_verify(v_w1, WeylModuleP.build(b2, (0, 1), 11))
