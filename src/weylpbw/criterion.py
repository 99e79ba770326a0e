"""Checkers for the diagonal splitting criterion and the type-G2 pipeline.

The object of interest is gamma = 2(p-1)rho. Condition "2" asks whether
F0.v (x) F0.v survives in the top graded piece of the induced filtration on
V(gamma) (x) V(gamma) — equivalently, whether it escapes level (p-1)N - 1 —
and the ingredient "v0" asks the single-factor analogue, whether F0.v
escapes level (p-1)N - 1 of the PBW filtration on V(gamma). Both are exact
rank computations restricted to one weight space. The first is only
practical at very small rank and prime; the G2 pipeline instead verifies
the chain of finite identities that reduces the full criterion to modules
of dimension at most 196 plus polynomial computations: annihilation
identities on a tensor of sections, three polynomial symbols, a uniqueness
statement read off an inequality table, one monomial coefficient, and a
closing tensor identity. Every verdict is reproducible bit for bit. The
checks take built modules and read the root system and the prime from them.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from . import SCHEMA_VERSION
from .cache import input_hash
from .charzero import DIM_CAP_DEFAULT
from .linalg import row_space
from .pbw import (InducedSections, MultiIndex, Polynomial, g2_essential_member,
                  g2_essential_rows, j_map, monomials_with_depth, order_key,
                  sn_divided_action)
from .rootsys import RootSystem, build_root_system
from .tensorfilt import InducedFiltration
from .weylmod import WeylModuleP, f_zero, is_prime, tensor_act, tensor_of

Weight = Tuple[int, ...]

# the six annihilation identities on a1 (x) a2, as (root position, power)
G2_ANNIHILATORS: Tuple[Tuple[int, int], ...] = (
    (5, 4), (4, 2), (3, 3), (2, 4), (1, 3), (0, 2))

G2_A1_INDEX = (0, 0, 1, 0, 1, 0)   # the section of weight -alpha1 in H0(w2)
G2_A2_INDEX = (0, 1, 0, 0, 1, 0)   # the section of weight 0 in H0(w2)
G2_VPRIME_INDEX = (1, 0, 0, 0, 0, 1)  # the degree-2 section of H0(w1)


def gamma_weight(system: RootSystem, p: int) -> Weight:
    """gamma = 2(p-1)rho, rho the sum of the fundamental weights."""
    return tuple(2 * (p - 1) for _ in range(system.rank))


def _label(system: RootSystem) -> str:
    if system.cartan.label:
        return system.cartan.label
    return "cartan:" + ";".join(",".join(str(v) for v in row)
                                for row in system.cartan.matrix)


@dataclass
class CriterionReport:
    """One verdict about gamma = 2(p-1)rho for one root system and prime."""
    label: str
    p: int
    gamma: Weight
    condition: str
    verdict: bool
    witness: dict
    schema_version: int
    input_hash: str

    def to_payload(self) -> dict:
        return asdict(self)


def _require_prime(p: Optional[int]) -> int:
    if p is None or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _gamma_start(m: WeylModuleP):
    """What both checks start from, for m = V(gamma): the top level (p-1)N,
    F0, F0.v, and the witness fields they fill. A verdict is false when F0
    kills v (no case is expected to hit this)."""
    system, p = m.system, _require_prime(m.p)
    gamma = gamma_weight(system, p)
    if m.highest_weight != gamma:
        raise ValueError(f"V({m.highest_weight}) is not V(gamma), gamma = {gamma}")
    level = (p - 1) * system.n_pos
    f0 = f_zero(system.n_pos, p)
    coords = m.monomial_coords(f0)
    f0v = {} if coords is None else {system.monomial_depth(f0): coords}
    witness = {"dim_v_gamma": m.dim, "top_level": level,
               "f0_annihilates": coords is None}
    return level, f0, f0v, witness


def _report(m: WeylModuleP, condition: str, verdict: bool, witness: dict) -> CriterionReport:
    return CriterionReport(_label(m.system), m.p, m.highest_weight, condition, verdict,
                           witness, SCHEMA_VERSION,
                           input_hash(m.system, p=m.p, condition=condition))


def check_condition2(m: WeylModuleP,
                     dim_cap: int = DIM_CAP_DEFAULT) -> CriterionReport:
    """Does F0.v (x) F0.v escape level (p-1)N - 1 of the induced filtration
    on V(gamma) (x) V(gamma)? ``m`` is V(gamma) over GF(p); ``dim_cap``
    bounds the weight group swept.

    The computation is restricted to the weight space of the test vector,
    which is exact because all spanning vectors are weight-homogeneous.
    """
    level, f0, f0v, witness = _gamma_start(m)
    verdict = False
    if not witness["f0_annihilates"]:
        ten = tensor_of((f0v, f0v), reduce=m.reduce)
        group = tuple(2 * v for v in m.system.monomial_depth(f0))
        filt = InducedFiltration((m, m), up_to=level, dim_cap=dim_cap,
                                 weight_group=group)
        below = filt.contains_at(ten, level - 1)
        at = filt.contains_at(ten, level)
        verdict = not below
        witness["weight_group"] = list(group)
        witness["group_level_dims"] = list(filt.level_dims)
        witness["in_top_level"] = at
        witness["in_level_below"] = below
    return _report(m, "condition2", verdict, witness)


def check_v0(m: WeylModuleP) -> CriterionReport:
    """Does F0.v escape level (p-1)N - 1 of the PBW filtration on V(gamma)?
    ``m`` is V(gamma) over GF(p).

    Equivalent to the nonvanishing of the image v0 of F0.v in the quotient
    by that level — the single-factor ingredient of the splitting criterion.
    """
    level, f0, f0v, witness = _gamma_start(m)
    verdict = False
    if not witness["f0_annihilates"]:
        block = m.system.monomial_depth(f0)
        space = row_space(m.p)
        considered = 0
        for degree in range(level):
            for t in monomials_with_depth(m.system, block, degree=degree):
                coords = m.monomial_coords(t)
                if coords is not None:
                    considered += 1
                    space.insert(coords)
        verdict = not space.contains(f0v[block])
        witness["weight_block"] = list(block)
        witness["block_dim"] = m.dims[block]
        witness["lower_span_rank"] = space.rank
        witness["lower_monomials"] = considered
    return _report(m, "v0", verdict, witness)


def implication_consistent(condition2: CriterionReport,
                           v0: CriterionReport) -> bool:
    """Condition 2 forces the v0 ingredient (one direction only)."""
    if (condition2.condition, v0.condition) != ("condition2", "v0"):
        raise ValueError("expected a condition2 report and a v0 report, got"
                         f" {condition2.condition!r} and {v0.condition!r}")
    if (condition2.label, condition2.p) != (v0.label, v0.p):
        raise ValueError("reports compare different inputs")
    return (not condition2.verdict) or v0.verdict


# --------------------------------------------------------------------------
# the G2 pipeline
# --------------------------------------------------------------------------

@dataclass
class StepVerdict:
    name: str
    ok: bool
    details: dict

    def to_payload(self) -> dict:
        return asdict(self)


def _g2() -> RootSystem:
    return build_root_system("G2")


def g2_annihilation_check(sections: InducedSections) -> StepVerdict:
    """The six divided-power raising operators that must kill a1 (x) a2 in
    H0(w2) (x) H0(w2) (``sections`` is H0(w2)), plus the weight bookkeeping
    that feeds the highest-root morphism."""
    system = sections.system
    a1 = sections.xi(G2_A1_INDEX)
    a2 = sections.xi(G2_A2_INDEX)
    w1 = sections.functional_weight(a1)
    w2 = sections.functional_weight(a2)
    pair_weight = tuple(x + y for x, y in zip(w1, w2))
    # a1 has weight -alpha1 and a2 weight 0, so the pair has weight -alpha1
    weight_ok = w1 == (-2, 1) and w2 == (0, 0)
    legs = (sections, sections)
    ten = tensor_of((a1, a2), reduce=sections.reduce)
    operators = []
    all_vanish = True
    for pos, k in G2_ANNIHILATORS:
        expo = [0] * system.n_pos
        expo[pos] = k
        res = tensor_act(legs, "E", expo, ten)
        vanishes = not res
        all_vanish = all_vanish and vanishes
        operators.append({"root": system.root_name(system.positive_roots[pos]),
                          "power": k, "vanishes": vanishes})
    # only the listed powers annihilate: the first power of E_alpha1 must not
    probe = [0] * system.n_pos
    probe[5] = 1
    informational = bool(tensor_act(legs, "E", probe, ten))
    return StepVerdict("annihilation", all_vanish and weight_ok, {
        "operators": operators,
        "weight_of_pair": list(pair_weight),
        "weight_ok": weight_ok,
        "first_power_nonzero": informational,
    })


def g2_section_symbols_check(
        system: RootSystem,
        symbols: Dict[str, Tuple[MultiIndex, Polynomial]]) -> StepVerdict:
    """The degree-2 symbols of a1, a2 (in H0(w2)) and v' (in H0(w1)), given
    by name as (essential index, symbol), are single monomials: x3 x5,
    x2 x5 and x1 x6."""
    results = []
    ok = True
    for name, (idx, sym) in symbols.items():
        match = sym == Polynomial.monomial(idx)
        # the reason each symbol is a single monomial: nothing of its degree
        # and weight is larger in the total order
        depth = system.monomial_depth(idx)
        peers = monomials_with_depth(system, depth, degree=2)
        maximal = max(peers, key=order_key) == idx
        ok = ok and match and maximal
        results.append({"section": name, "index": list(idx),
                        "is_monomial": match, "order_maximal": maximal})
    return StepVerdict("j_images", ok, {"symbols": results})


def g2_highest_section_check(p: int, seed_symbol: Polynomial) -> StepVerdict:
    """(p-1, 0, 0, 0, 0, p-1) is the unique essential multi-index of degree
    >= 2(p-1) for (p-1)w1 — so the top filtered piece of H0((p-1)w1) is a
    line — and the degree-2 seed v' in H0(w1) has symbol (``seed_symbol``)
    exactly x1 x6; multiplicativity of the dual basis then gives the
    (p-1)-st power statement without ever building V((p-1)w1)."""
    k = p - 1
    # the table is only counted, row by row; just its few entries of degree
    # >= 2k are listed and sorted
    size, top = 0, []
    for prefix, s6_max in g2_essential_rows(k, 0):
        size += s6_max + 1
        top.extend(prefix + (s6,)
                   for s6 in range(max(0, 2 * k - sum(prefix)), s6_max + 1))
    top.sort(key=order_key)
    expected_top = (k, 0, 0, 0, 0, k)
    unique = top == [expected_top]
    seed_ok = seed_symbol == Polynomial.monomial(G2_VPRIME_INDEX)
    return StepVerdict("highest_section", unique and seed_ok, {
        "table_size": size,
        "degree_bound": 2 * k,
        "top_indices": [list(s) for s in top],
        "unique": unique,
        "seed_symbol_is_x1x6": seed_ok,
    })


def g2_coefficient_check(p: int) -> StepVerdict:
    """The coefficient of x^(p-1,...,p-1) in E_alpha1^(p-1) applied to
    x1^(p-1) x2^(p-1) x3^(p-1) x5^(2p-2) x6^(p-1), reduced mod p.

    Two routes are computed: the divided differential-operator action over
    Z, whose coefficient reduced mod p is the verdict's literal, and a
    closed form — the only climb pattern reaching the target moves p-1 of
    the x5 factors one chain step, so the integer coefficient is
    binomial(2p-2, p-1) times a (p-1)-st power of the chain constant. That
    binomial is divisible by p for every prime (adding p-1 to itself in base
    p carries), so the verdict is false at every p; the
    companion witness fields record that replacing the x5^(2p-2) block by a
    (p-1)-st tensor power of single-step seeds yields coefficient
    2^(p-1) = 1 mod p instead, which is the membership the surrounding
    argument needs.
    """
    _require_prime(p)
    system = _g2()
    k = p - 1
    xbar = Polynomial.monomial((k, k, k, 0, 2 * k, k))
    target = (k,) * 6
    integer = sn_divided_action(system, 5, k, xbar).coefficient(target)
    literal = integer % p
    chain = system.structure_constant((1, 0), (0, 1))   # alpha1 onto alpha2
    closed = math.comb(2 * k, k) * chain ** k
    routes_agree = integer == closed
    # the target is essential for k*w1 + l*w2, l = 2k, with three bounds tight
    l = 2 * k
    membership = g2_essential_member(k, l, target)
    tight = {
        "s6_eq_k": target[5] == k,
        "sum_1_to_5_eq_k_plus_2l": sum(target[:5]) == k + 2 * l,
        "sum_2_to_6_eq_k_plus_2l": sum(target[1:]) == k + 2 * l,
    }
    seed = Polynomial.monomial((1, 1, 1, 0, 2, 1))
    seed_coeff = sn_divided_action(system, 5, 1, seed).coefficient((1,) * 6)
    witness_power = pow(seed_coeff % p, k, p)
    verdict = literal != 0
    details = {
        "target": list(target),
        "literal_coefficient_mod_p": literal,
        "integer_coefficient": integer,
        "closed_form_binomial": math.comb(2 * k, k),
        "chain_constant": chain,
        "routes_agree": routes_agree,
        "es_membership": membership,
        "tight_inequalities": tight,
        "witness_seed_coefficient": seed_coeff,
        "witness_power_mod_p": witness_power,
        "proposition_via_power_witness": witness_power != 0,
    }
    if literal == 0:
        details["anomaly"] = (
            "the coefficient equals binomial(2p-2, p-1) times a unit and is"
            " divisible by p for every prime; the stated identity cannot"
            " hold mod p, while the power-witness route does produce a"
            " nonzero coefficient")
    return StepVerdict("coefficient", verdict, details)


def g2_final_lemma_check(p: int) -> StepVerdict:
    """The closing tensor identity, reduced to table and sl2 arithmetic:
    (i) the all-(p-1) multi-index is essential for (p-1)theta, so F0 does
    not kill its highest vector; (ii) F_alpha1^(p-1) does not kill the
    highest vector of V((p-1)w1); (iii) nu sits on the alpha1-string through
    (p-1)theta and the corresponding weight space of V((p-1)theta) is a
    line, because only one monomial has depth (p-1)alpha1."""
    _require_prime(p)
    system = _g2()
    k = p - 1
    theta = (3, 1)
    member_theta = g2_essential_member(3 * k, k, (k,) * 6)
    pair = system.pairing((k, 0), (1, 0))
    f1_ok = pair == k
    member_omega1 = g2_essential_member(k, 0, (0, 0, 0, 0, 0, k))
    nu = tuple(k * (t - a) for t, a in zip(theta, system.root_weight_coords((1, 0))))
    # nu = (p-1)(theta - alpha1) is on the string when p-1 <= <(p-1)theta, alpha1^vee>
    on_string = k <= system.pairing(tuple(k * t for t in theta), (1, 0))
    depth_monos = monomials_with_depth(system, (k, 0))
    line_ok = depth_monos == [(0, 0, 0, 0, 0, k)]
    ok = member_theta and f1_ok and member_omega1 and on_string and line_ok
    return StepVerdict("final_lemma", ok, {
        "p_minus_1_in_es_of_scaled_theta": member_theta,
        "f1_power_pairing": pair,
        "f1_nonzero": f1_ok,
        "f1_index_essential": member_omega1,
        "nu": list(nu),
        "nu_on_alpha1_string": on_string,
        "nu_weight_space_is_line": line_ok,
    })


@dataclass
class G2Report:
    """The full G2 verification for one prime."""
    p: int
    steps: List[StepVerdict]
    overall: bool
    exploration_only: bool
    certified: bool
    schema_version: int
    input_hash: str

    def step(self, name: str) -> StepVerdict:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_payload(self) -> dict:
        return dict(asdict(self), type="G2")


def g2_verify(v_w1: WeylModuleP, v_w2: WeylModuleP) -> G2Report:
    """Run every G2 step on V(w1) and V(w2) over GF(p) and conjoin the
    verdicts. In G2, w* = w, so they carry H0(w1) and H0(w2).

    Primes below 11 run in exploration mode: all data is produced, but no
    certification is claimed (the simplicity and self-duality of V(theta)
    used by the surrounding argument needs p >= 11).
    """
    system = _g2()
    if ({v_w1.system.cartan.matrix, v_w2.system.cartan.matrix} != {system.cartan.matrix}
            or (v_w1.highest_weight, v_w2.highest_weight) != ((1, 0), (0, 1))
            or v_w1.p != v_w2.p):
        raise ValueError("g2_verify takes the G2 modules V(1,0) and V(0,1) over one prime")
    p = _require_prime(v_w1.p)
    s1 = InducedSections(v_w1)   # H0(w1)
    s2 = InducedSections(v_w2)   # H0(w2)
    symbols = {name: (idx, j_map(sections, sections.xi(idx), 2))
               for name, sections, idx in (("a1", s2, G2_A1_INDEX), ("a2", s2, G2_A2_INDEX),
                                           ("v'", s1, G2_VPRIME_INDEX))}
    steps = [
        g2_annihilation_check(s2),
        g2_section_symbols_check(system, symbols),
        g2_highest_section_check(p, symbols["v'"][1]),
        g2_coefficient_check(p),
        g2_final_lemma_check(p),
    ]
    overall = all(s.ok for s in steps)
    exploration = p < 11
    return G2Report(p, steps, overall, exploration,
                    overall and not exploration, SCHEMA_VERSION,
                    input_hash(system, p=p, condition="g2_verify"))
