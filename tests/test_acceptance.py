"""Acceptance gate: ten numbered criteria, one test (one ``pytest -v`` line)
each, with the runtime budget asserted inside the test.

Two criteria currently FAIL, and fail on purpose.  Criteria 6 and 7 assert
that a particular structure coefficient is nonzero mod p.  The engine
computes that coefficient exactly, two independent ways (the divided action
expanded over Z, and the closed form binomial(2p-2, p-1) * (-1)^(p-1)), and
both agree it equals +binomial(2p-2, p-1) for odd p — an integer divisible
by p for every prime p, hence zero in F_p.  The surrounding pipeline (annihilation
identities, section symbols, the power witness that is the coefficient's
intended role) all verify, and an alternative witness with a nonzero
coefficient is recorded in each report.  We keep the criteria as stated
rather than weaken them; the failures are the finding.  README's acceptance
section carries the full analysis.
"""

import math
import time

import pytest
from builders import g2_fundamentals, h0, legs, v_gamma
from tensor3 import iterated_coproduct, triple_of

from weylpbw import (
    InducedFiltration,
    WeylModuleP,
    build_root_system,
    check_condition2,
    check_v0,
    essential_set,
    g2_essential_table,
    g2_verify,
    implication_consistent,
    norm_form_identity_check,
    product_order_equality,
    stable_dumps,
)
from weylpbw.criterion import (
    G2_A1_INDEX,
    G2_A2_INDEX,
    G2_ANNIHILATORS,
    G2_VPRIME_INDEX,
    g2_coefficient_check,
)
from weylpbw.pbw import Polynomial, j_map, order_key
from weylpbw.weylmod import tensor_act, tensor_of

G2_ROOTS = ((3, 2), (3, 1), (2, 1), (1, 1), (0, 1), (1, 0))
G2_WEIGHTS_DEPTH3 = [(k, l) for k in range(4) for l in range(4) if k + l <= 3]


def _bracket(system, x, y):
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, ck in system.bracket_basis(i, j).items():
                out[k] = out.get(k, 0) + ci * cj * ck
    return {k: v for k, v in out.items() if v}


def test_criterion_01_g2_root_data_and_jacobi():
    started = time.perf_counter()
    g2 = build_root_system("G2")
    assert tuple(g2.positive_roots) == G2_ROOTS == (
        (3, 2), (3, 1), (2, 1), (1, 1), (0, 1), (1, 0))
    assert [g2.root_name(r) for r in g2.positive_roots] == [
        "11122", "1112", "112", "12", "2", "1"]
    dim = g2.adjoint_dim
    basis = [{i: 1} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = _bracket(g2, basis[i], _bracket(g2, basis[j], basis[k]))
                rhs = _bracket(g2, _bracket(g2, basis[i], basis[j]), basis[k])
                for key, v in _bracket(g2, basis[j],
                                       _bracket(g2, basis[i], basis[k])).items():
                    rhs[key] = rhs.get(key, 0) + v
                assert lhs == {key: v for key, v in rhs.items() if v}, (i, j, k)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_dimension_oracle():
    started = time.perf_counter()
    g2 = build_root_system("G2")
    for weight, expected in (((1, 0), 7), ((0, 1), 14)):
        module = WeylModuleP.build(g2, weight, None, 10_000)
        assert module.dim == expected == g2.weyl_dimension(weight)
    assert time.perf_counter() - started < 5.0


def test_criterion_03_inequality_table_equals_brute_force():
    started = time.perf_counter()
    g2 = build_root_system("G2")
    for k, l in G2_WEIGHTS_DEPTH3:
        module = WeylModuleP.build(g2, (k, l), None, 10_000)
        brute = {tuple(s) for s in essential_set(module).indices}
        table = set(g2_essential_table(k, l))
        assert brute == table, (k, l)
        assert len(table) == g2.weyl_dimension((k, l))
    assert time.perf_counter() - started < 600.0


def test_criterion_04_restriction_map_shape_on_every_essential():
    g2 = build_root_system("G2")
    for k, l in G2_WEIGHTS_DEPTH3:
        sections = h0(g2, (k, l), None)
        es = sections.essentials
        for s in es.indices:
            poly = j_map(sections, sections.xi(s), sum(s))
            assert poly.coefficient(s) == 1, (k, l, s)
            for t in poly.support():
                assert sum(t) == sum(s), (k, l, s, t)
                assert order_key(t) >= order_key(s), (k, l, s, t)
                assert t == s or t not in es, (k, l, s, t)


def test_criterion_05_section_symbols_and_annihilation_identities():
    started = time.perf_counter()
    g2 = build_root_system("G2")
    for p in (11, 13):
        h0_w2 = h0(g2, (0, 1), p)
        h0_w1 = h0(g2, (1, 0), p)
        # j^2 sends a1 to x3 x5, a2 to x2 x5, and v' to x_11122 x_1
        for sections, idx in ((h0_w2, G2_A1_INDEX), (h0_w2, G2_A2_INDEX),
                              (h0_w1, G2_VPRIME_INDEX)):
            assert j_map(sections, sections.xi(idx), 2) \
                == Polynomial.monomial(idx), (p, idx)
        legs = (h0_w2, h0_w2)
        pair = tensor_of((h0_w2.xi(G2_A1_INDEX), h0_w2.xi(G2_A2_INDEX)),
                         reduce=h0_w2.reduce)
        for pos, power in G2_ANNIHILATORS:
            expo = tuple(power if i == pos else 0 for i in range(g2.n_pos))
            assert not tensor_act(legs, "E", expo, pair), \
                (p, pos, power)
    assert time.perf_counter() - started < 60.0


def test_criterion_06_top_coefficient_nonzero_mod_p():
    started = time.perf_counter()
    details = {p: g2_coefficient_check(p).details for p in (11, 13)}
    # the Z expansion agrees with the closed form at p = 11, and its residue
    # mod 11 is the literal coefficient ...
    assert details[11]["routes_agree"]
    assert details[11]["integer_coefficient"] % 11 \
        == details[11]["literal_coefficient_mod_p"]
    # ... and the exact integer is +binomial(2p-2, p-1): the chain sign -1
    # is raised to the even power p-1
    for p, d in details.items():
        assert d["integer_coefficient"] == math.comb(2 * p - 2, p - 1)
        assert d["chain_constant"] == -1
        assert d["witness_power_mod_p"] != 0   # the usable replacement witness
    assert time.perf_counter() - started < 120.0
    for p, d in details.items():
        assert d["literal_coefficient_mod_p"] != 0, (
            f"the coefficient is binomial({2 * p - 2}, {p - 1}) = "
            f"{d['integer_coefficient']} = 0 mod {p}; it is divisible by p "
            f"for every prime, so the nonzero claim fails as stated, while "
            f"the power witness F1^(p-1).v is nonzero (see README)")


def test_criterion_07_g2_pipeline():
    for p in (11, 13, 17):
        started = time.perf_counter()
        report = g2_verify(*g2_fundamentals(p))
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, (p, elapsed)
        # the determinism run builds its own modules
        assert stable_dumps(g2_verify(*g2_fundamentals(p)).to_payload()) \
            == stable_dumps(report.to_payload()), p
        by_name = {s.name: s.ok for s in report.steps}
        assert by_name["annihilation"] and by_name["j_images"]
        assert by_name["highest_section"] and by_name["final_lemma"]
        assert report.overall, (
            f"p={p}: four of five steps verify, reports are deterministic, "
            f"but the coefficient step vanishes mod p (binomial divisibility,"
            f" see criterion 6), so the pipeline cannot certify as stated")


def test_criterion_08_property_suites():
    started = time.perf_counter()
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")

    # norm-form operator identity (F0 x 1)DeltaF0 = F0 x F0
    for system, mk in ((a1, lambda p: (p - 1,)), (a2, lambda p: (p - 1, p - 1))):
        for p in (2, 3, 5):
            report = norm_form_identity_check(legs(system, mk(p), mk(p), p))
            assert report.identity_ok and report.ok, (system, p)

    # coproduct coassociativity on triple tensors
    for label, weights, primes in (("A1", ((3,), (2,), (4,)), (2, 3, 5)),
                                   ("A2", ((1, 0), (0, 1), (1, 1)), (2,))):
        system = build_root_system(label)
        for p in primes:
            mods = tuple(WeylModuleP.build(system, w, p, 1000) for w in weights)
            start = triple_of(*(m.highest_vector() for m in mods))
            for pos in range(system.n_pos):
                current = start
                for k in (1, 2, 3):
                    left = iterated_coproduct(mods, "F", pos, k, current, "left")
                    right = iterated_coproduct(mods, "F", pos, k, current, "right")
                    assert left == right, (label, p, pos, k)
                    current = left

    # divided-power multiplicativity X^(a) X^(b) = C(a+b, a) X^(a+b)
    for label, weight, p in (("A1", (4,), 3), ("A2", (1, 1), 2), ("G2", (1, 0), 5)):
        system = build_root_system(label)
        module = WeylModuleP.build(system, weight, p, 1000)
        for pos in range(system.n_pos):
            for side in ("E", "F"):
                mono = lambda k: tuple(k if i == pos else 0 for i in range(system.n_pos))
                for vec in (module.act("F", mono(1), module.highest_vector()),
                            module.highest_vector()):
                    for a in (1, 2, 3):
                        for b in (1, 2, 3):
                            lhs = module.act(side, mono(a), module.act(side, mono(b), vec))
                            rhs = {t: [module.reduce(math.comb(a + b, a) * x)
                                       for x in coords]
                                   for t, coords in
                                   module.act(side, mono(a + b), vec).items()}
                            rhs = {t: c for t, c in rhs.items() if any(c)}
                            assert lhs == rhs, (label, pos, side, a, b)

    # product-order independence of the induced filtration
    for label, lam, mu, p in (("A1", (1,), (1,), 2), ("A1", (2,), (2,), 3),
                              ("A2", (1, 0), (1, 0), 2), ("A2", (1, 0), (0, 1), 2)):
        report = product_order_equality(legs(build_root_system(label), lam, mu, p))
        assert report.equal, (label, lam, mu, p)

    assert time.perf_counter() - started < 600.0


def test_criterion_09_type_a_criterion_sanity():
    started = time.perf_counter()
    a1 = build_root_system("A1")
    a2 = build_root_system("A2")
    for system, p in ((a1, 2), (a1, 3), (a1, 5), (a2, 2)):
        m = v_gamma(system, p)
        report = check_condition2(m)
        assert report.verdict, (
            f"check_condition2 false for {report.label} at p={p}: "
            f"a reportable finding, not an accepted outcome")
        assert implication_consistent(report, check_v0(m))
    assert time.perf_counter() - started < 900.0


def test_criterion_10_degenerate_tensor_factor():
    started = time.perf_counter()
    a1 = build_root_system("A1")
    table = InducedFiltration(legs(a1, (2,), (0,), 3)).table()
    assert table.level_dims[0] == table.tensor_dim == 3
    assert all(g == 0 for g in table.graded_dims[1:])
    assert time.perf_counter() - started < 1.0
