"""Mod-p Weyl modules, duals, and the coproduct action on tensors."""

import gc
import itertools
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from tensor3 import iterated_coproduct, triple_of
from test_charzero import GOLDEN_PAYLOAD_DIGESTS

import weylpbw
from weylpbw import weylmod
from weylpbw import (AdmissibleLattice, InvariantError, WeylModuleP, build_root_system,
                     essential_set, pbw_filtration, tensor_act, tensor_of)
from weylpbw.weylmod import (
    DualModuleP,
    f_zero,
    is_prime,
    tensor_leg_act,
)


def test_is_prime():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _monomial_entries():
    """The four entry points that take a monomial, each as a call (side, s)
    on A1 x A1 V(1, 1) over GF(3); ``monomial_coords`` lowers only, so it
    reads s alone."""
    m = WeylModuleP.build(build_root_system([[2, 0], [0, 2]]), (1, 1), 3, 100)
    v = m.highest_vector()
    t = tensor_of((v, v))
    return {
        "act": lambda side, s: m.act(side, s, v),
        "monomial_coords": lambda side, s: m.monomial_coords(s),
        "tensor_leg_act": lambda side, s: tensor_leg_act((m, m), 1, side, s, t),
        "tensor_act": lambda side, s: tensor_act((m, m), side, s, t),
    }


def test_monomial_validation():
    for entry, call in _monomial_entries().items():
        if entry != "monomial_coords":
            with pytest.raises(ValueError, match="side must be 'E' or 'F'"):
                call("X", (1, 0))
        with pytest.raises(ValueError, match="natural numbers"):
            call("F", (-1, 0))
        with pytest.raises(ValueError, match="root count"):
            call("F", (1,))
        assert call("F", [True, 1]) == call("F", (1, 1)), entry   # a boolean is an int
    a1a1 = build_root_system([[2, 0], [0, 2]])
    assert [type(e) for e in weylmod._monomial(a1a1, "E", [True, 2])] == [int, int]
    assert f_zero(3, 5) == (4, 4, 4)


@pytest.mark.parametrize("exponents", [(1.5, 0), (1.0, 0), ("1", 0), (None,)])
def test_monomial_rejects_non_integral_exponents(exponents):
    """An exponent that is not an integer is refused, never truncated, by
    every entry point."""
    for call in _monomial_entries().values():
        with pytest.raises(ValueError, match="natural numbers"):
            call("F", exponents)


def test_monomial_coords_refuses_a_float_exponent_after_its_int_twin():
    """The table of F^s v is keyed by s, and 1.0 hashes as 1: a float
    exponent is refused whether or not its integer twin was computed
    before, on this module or another."""
    a2 = build_root_system("A2")
    m = WeylModuleP.build(a2, (1, 1), None, 100)
    assert m.monomial_coords((0, 0, 1)) == [1]
    for module in (m, WeylModuleP.build(a2, (1, 1), None, 100)):
        with pytest.raises(ValueError, match="natural numbers"):
            module.monomial_coords((0, 0, 1.0))


@pytest.mark.parametrize("s", [("1", 0, 0), (None, 0, 0)])
def test_monomial_coords_refuses_a_non_number_with_a_value_error(s):
    m = WeylModuleP.build(build_root_system("A2"), (1, 1), None, 100)
    with pytest.raises(ValueError, match="natural numbers"):
        m.monomial_coords(s)


def test_composite_p_rejected():
    a1 = build_root_system("A1")
    with pytest.raises(ValueError):
        WeylModuleP.build(a1, (1,), 6, 100)


def test_dimensions_independent_of_p():
    g2 = build_root_system("G2")
    for p in (None, 2, 3, 5):
        assert WeylModuleP.build(g2, (0, 1), p, 1000).dim == 14


def test_divided_powers_a1():
    a1 = build_root_system("A1")
    m = WeylModuleP.build(a1, (2,), None, 100)
    v = m.highest_vector()
    assert m.act("F", (1,), v) == {(1,): [1]}
    assert m.act("F", (1,), m.act("F", (1,), v)) == {(2,): [2]}   # F F v = 2 F^(2) v
    assert m.act("F", (2,), v) == {(2,): [1]}
    assert not m.act("F", (3,), v)


def test_leg_apply_takes_no_zeroth_power():
    """X^(0) is the identity and every caller skips it: ``leg_apply`` on a
    module or a dual refuses k = 0, as ``divided`` does."""
    m = WeylModuleP.build(build_root_system("A1"), (2,), 3, 100)
    for leg in (m, DualModuleP(m)):
        with pytest.raises(ValueError, match=r"X\^\(0\) is the identity"):
            leg.leg_apply("F", 0, 0, (0,), [1])


def corrupt_a1_module() -> WeylModuleP:
    """V(2) of A1 with F on the middle block changed from 2 to 1, so that
    F^(2) = F F / 2 is no longer integral."""
    lattice = AdmissibleLattice.build("A1", (2,))
    lattice.f_gen[(0, (1,))] = [[1]]
    return WeylModuleP(lattice, None)


def test_non_integral_divided_power_raises_invariant_error():
    """The check runs on each block as it is built: F^(2) on the top block
    passes through the corrupted middle one."""
    with pytest.raises(InvariantError, match="not integral"):
        corrupt_a1_module().divided("F", 0, 2, (0,))


def test_divided_power_check_survives_optimize_flag():
    """``python -O`` strips asserts; the integrality check must still fire."""
    here = Path(__file__).resolve().parent
    src = Path(weylpbw.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import test_weylmod\n"
            "try:\n"
            "    test_weylmod.corrupt_a1_module().divided('F', 0, 2, (0,))\n"
            "except test_weylmod.InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "InvariantError: divided power F^(2)" in result.stdout


def _product_of_first_powers(lattice, side, pos, k, t):
    """X_beta^(k) on block t straight from the definition: k first powers
    along the beta-string from t, multiplied, then divided by k! exactly.
    (target block, integer matrix), None when the string leaves the module
    or the product is zero."""
    gen = lattice.e_gen if side == "E" else lattice.f_gen
    beta = lattice.system.positive_roots[pos]
    sign = -1 if side == "E" else 1
    prod, cur = None, t
    for _ in range(k):
        step = gen.get((pos, cur))
        if step is None:
            return None
        prod = step if prod is None else [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*prod)] for row in step]
        cur = tuple(v + sign * c for v, c in zip(cur, beta))
    assert all(v % math.factorial(k) == 0 for row in prod for v in row)
    prod = [[v // math.factorial(k) for v in row] for row in prod]
    return (cur, prod) if any(map(any, prod)) else None


@pytest.mark.parametrize("p", [None, 2, 3])
@pytest.mark.parametrize("typ,weight", [(typ, weight) for typ, weight, _ in GOLDEN_PAYLOAD_DIGESTS])
def test_leg_matrices_are_divided_products_of_first_powers(typ, weight, p):
    """Each block built on first use equals the product of first powers
    divided exactly and reduced, for E and F and every k with a nonzero block;
    the dual's block is the signed transpose of the module block feeding it."""
    lattice = AdmissibleLattice.build(typ, weight)
    m = WeylModuleP(lattice, p)
    d = DualModuleP(m)
    for side in ("E", "F"):
        for pos in range(lattice.system.n_pos):
            k = 1
            while True:
                refs = {t: _product_of_first_powers(lattice, side, pos, k, t)
                        for t in m.dims}
                if not any(refs.values()):
                    break
                upstream = {}
                for t, ref in refs.items():
                    got = m.leg_matrix(side, pos, k, t)
                    if ref is None:
                        assert got is None, (side, pos, k, t)
                        continue
                    tgt, mat = ref
                    assert got == (tgt, [[m.reduce(v) for v in row] for row in mat]), \
                        (side, pos, k, t)
                    upstream[tgt] = (t, [[m.reduce((-1) ** k * v) for v in col]
                                         for col in zip(*mat)])
                for t in m.dims:
                    assert d.leg_matrix(side, pos, k, t) == upstream.get(t), (side, k, t)
                k += 1


@pytest.mark.parametrize("typ,weight", [(typ, weight) for typ, weight, _ in GOLDEN_PAYLOAD_DIGESTS])
def test_a_module_shares_its_lattice_shape_and_boxes_its_blocks(typ, weight):
    """The module keeps its lattice's own block tables, blocks in ``dims``
    order, and its box, read off its lowest block, is lam - w0(lam) in root
    coordinates, which the dual shares."""
    lattice = AdmissibleLattice.build(typ, weight)
    m = WeylModuleP(lattice, 3)
    assert m.dims is lattice.dims and m.weights is lattice.weights
    assert m.box == lattice.system.depth_vector(m.highest_weight)
    assert m.box in m.dims
    assert DualModuleP(m).box == m.box


def test_module_is_freed_by_refcount():
    """Nothing a module builds on first use points back at it, so with the
    cycle collector off it is freed as soon as its last user lets go."""
    gc.disable()
    try:
        a2 = build_root_system("A2")
        m = WeylModuleP.build(a2, (1, 1), 3)
        ref = weakref.ref(m)
        es = essential_set(m)
        assert pbw_filtration(m, 4).top_dim == m.dim
        d = DualModuleP(m)
        xi = {(2, 2): [1]}
        assert d.act("F", (1, 1, 1), xi)
        assert tensor_act((m, d), "F", (1, 1, 1), tensor_of((m.highest_vector(), xi)))
        del m, es, d
        assert ref() is None
    finally:
        gc.enable()


def test_monomial_coords_highest():
    g2 = build_root_system("G2")
    m = WeylModuleP(AdmissibleLattice.build(g2, (1, 0)), None)
    assert m.monomial_coords((0, 0, 0, 0, 0, 0)) == [1]
    theta = (1, 0, 0, 0, 0, 0)
    fv = m.act("F", theta, m.highest_vector())
    assert list(fv) == [(3, 2)]   # depth of the highest positive root
    assert m.monomial_coords(theta) == fv[(3, 2)]
    assert m.monomial_coords((2, 0, 0, 0, 0, 0)) is None   # F_theta^(2) kills v


def _scale(m, c, vec):
    out = {}
    for t, coords in vec.items():
        scaled = [m.reduce(c * x) for x in coords]
        if any(scaled):
            out[t] = scaled
    return out


@pytest.mark.parametrize("label,weight,p", [
    ("A1", (4,), None), ("A1", (4,), 3), ("A2", (1, 1), 2), ("G2", (1, 0), 5)])
def test_divided_power_multiplicativity(label, weight, p):
    """X^(a) X^(b) = binom(a+b, a) X^(a+b) on every module tested."""
    system = build_root_system(label)
    m = WeylModuleP.build(system, weight, p, 1000)
    v = m.highest_vector()
    for pos in range(system.n_pos):
        for a in range(1, 4):
            for b in range(1, 4):
                mono = lambda k: tuple(k if i == pos else 0 for i in range(system.n_pos))
                lhs = m.act("F", mono(a), m.act("F", mono(b), v))
                rhs = _scale(m, math.comb(a + b, a), m.act("F", mono(a + b), v))
                assert lhs == rhs, (label, pos, a, b)


def test_vector_weight():
    g2 = build_root_system("G2")
    m = WeylModuleP.build(g2, (1, 0), None, 100)
    v = m.highest_vector()
    assert m.vector_weight(v) == (1, 0)
    fv = m.act("F", (0, 0, 0, 0, 0, 1), v)
    assert m.vector_weight(fv) == (-1, 1)          # lam - alpha1
    assert m.vector_weight({}) is None


def test_dual_is_antipode_twisted():
    """(X^(k) . xi)(u) = (-1)^k xi(X^(k) . u) on the dual module."""
    a1 = build_root_system("A1")
    m = WeylModuleP.build(a1, (2,), None, 100)
    d = DualModuleP(m)
    xi = {(2,): [1]}
    assert d.act("F", (1,), xi) == {(1,): [-2]}
    assert d.act("E", (1,), xi) == {}
    for side, s in (("F", (1,)), ("E", (1,)), ("F", (2,))):
        sign = (-1) ** sum(s)
        for t in m.dims:
            for r in range(m.dims[t]):
                u = {t: [1 if i == r else 0 for i in range(m.dims[t])]}
                lhs = d.pair(d.act(side, s, xi), u)
                rhs = sign * d.pair(xi, m.act(side, s, u))
                assert lhs == rhs


def test_dual_act_rejects_wrong_length():
    a1 = build_root_system("A1")
    d = DualModuleP(WeylModuleP.build(a1, (2,), None, 100))
    with pytest.raises(ValueError, match="root count"):
        d.act("F", (1, 0), {(2,): [1]})


def test_dual_functional_weights():
    a1 = build_root_system("A1")
    d = DualModuleP(WeylModuleP.build(a1, (2,), None, 100))
    assert d.functional_weight({(2,): [1]}) == (2,)   # dual to the lowest vector
    assert d.functional_weight({(0,): [1]}) == (-2,)
    assert d.functional_weight({(1,): [0]}) is None   # the zero functional
    assert d.functional_weight({(0,): [1], (2,): [1]}) is None   # mixed


def test_tensor_of_is_sparse_canonical():
    a1 = build_root_system("A1")
    m = WeylModuleP.build(a1, (1,), None, 100)
    t = tensor_of((m.highest_vector(), {(1,): [0]}))
    assert t == {}                                  # zero entries dropped
    t = tensor_of((m.highest_vector(), m.highest_vector()))
    assert t == {((0,), (0,)): [[1]]}


def test_tensor_coproduct_a1():
    a1 = build_root_system("A1")
    m = WeylModuleP.build(a1, (1,), None, 100)
    t = tensor_of((m.highest_vector(), m.highest_vector()))
    assert tensor_act((m, m), "F", (1,), t) == {((0,), (1,)): [[1]], ((1,), (0,)): [[1]]}
    # F^(2) (v x v): only the split (1, 1) survives on V(1) x V(1)
    assert tensor_act((m, m), "F", (2,), t) == {((1,), (1,)): [[1]]}
    assert tensor_leg_act((m, m), 0, "F", (1,), t) == {((1,), (0,)): [[1]]}
    assert tensor_leg_act((m, m), 1, "F", (1,), t) == {((0,), (1,)): [[1]]}


def _random_monomials(rng, n_pos, count):
    """``count`` monomials (side, exponents) of either side with two or
    three nonzero exponents in 1..2."""
    for _ in range(count):
        expo = [0] * n_pos
        for pos in rng.sample(range(n_pos), rng.choice([2, 3])):
            expo[pos] = rng.randint(1, 2)
        yield rng.choice("EF"), tuple(expo)


def _mixed_legs(m):
    """Module and dual legs in every combination, each dual built afresh."""
    return [(m, m), (m, DualModuleP(m)), (DualModuleP(m), m), (DualModuleP(m), DualModuleP(m))]


@pytest.mark.parametrize("label,weight", [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))])
@pytest.mark.parametrize("p", [None, 2, 3])
def test_tensor_leg_act_matches_the_factor_by_factor_action(label, weight, p):
    """One composed matrix per block gives what the leg's own ``act``, one
    root factor at a time, gives on that factor of a pure tensor, on either
    leg, for module and dual legs. Monomials of two or three factors are
    asked for in turn, some twice in a row, so the matrices kept for the
    last one are read as well as built."""
    rng = random.Random(f"{label}{weight}{p}")
    m = WeylModuleP.build(build_root_system(label), weight, p)
    entry = (lambda: rng.randint(-3, 3)) if p is None else (lambda: rng.randrange(p))
    nonzero = 0
    for legs in _mixed_legs(m):
        vecs = [{t: [entry() for _ in range(m.dims[t])] for t in rng.sample(list(m.dims), 3)}
                for _ in range(2)]
        tvec = tensor_of(tuple(vecs), reduce=m.reduce)
        for side, s in _random_monomials(rng, m.system.n_pos, 12):
            for idx in (0, 1, 1):
                acted = list(vecs)
                acted[idx] = legs[idx].act(side, s, vecs[idx])
                want = tensor_of(tuple(acted), reduce=m.reduce)
                assert tensor_leg_act(legs, idx, side, s, tvec) == want, (legs, idx, side, s)
                nonzero += bool(want)
    assert nonzero


def _tensor_sum(x, y, reduce):
    """x + y for two tensor vectors, all-zero blocks dropped."""
    out = {key: [list(row) for row in block] for key, block in x.items()}
    for key, block in y.items():
        prev = out.get(key)
        out[key] = [list(row) for row in block] if prev is None else [
            [reduce(a + b) for a, b in zip(r, s)] for r, s in zip(prev, block)]
    return {key: block for key, block in out.items() if any(map(any, block))}


@pytest.mark.parametrize("label,weight", [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0))])
@pytest.mark.parametrize("p", [None, 2, 3])
def test_tensor_act_is_the_coproduct_of_each_factor_in_turn(label, weight, p):
    """Delta is an algebra map: Delta(X^t) on a tensor equals the
    single-factor Delta(X_beta^(k)) applied one root at a time, last root
    first. Checked on a sum of two pure tensors, for module and dual legs."""
    rng = random.Random(f"coproduct{label}{weight}{p}")
    m = WeylModuleP.build(build_root_system(label), weight, p)
    n_pos = m.system.n_pos
    entry = (lambda: rng.randint(-3, 3)) if p is None else (lambda: rng.randrange(p))

    def pure():
        vecs = [{t: [entry() for _ in range(m.dims[t])] for t in rng.sample(list(m.dims), 2)}
                for _ in range(2)]
        return tensor_of(tuple(vecs), reduce=m.reduce)

    nonzero = 0
    for legs in _mixed_legs(m):
        tvec = _tensor_sum(pure(), pure(), m.reduce)
        for side, s in _random_monomials(rng, n_pos, 6):
            want = tvec
            for pos in range(n_pos - 1, -1, -1):
                k = s[pos]
                if k:
                    factor = tuple(k if i == pos else 0 for i in range(n_pos))
                    want = tensor_act(legs, side, factor, want)
            assert tensor_act(legs, side, s, tvec) == want, (legs, side, s)
            nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize("label,weights", [("A2", ((1, 0), (2, 1))), ("B2", ((0, 1), (1, 1))),
                                           ("G2", ((1, 0), (0, 1)))])
@pytest.mark.parametrize("p", [None, 3])
def test_tensor_act_is_the_sum_over_every_split(label, weights, p):
    """``tensor_act`` skips the splits that cannot act on a leg (k beta
    outside the leg's box of block depths); the sum over every split a + b
    = t, each leg acted on by its own ``act``, agrees. The legs differ in
    size, and the exponents run past what the smaller one can carry."""
    rng = random.Random(f"splits{label}{weights}{p}")
    system = build_root_system(label)
    small, large = (WeylModuleP.build(system, w, p) for w in weights)
    entry = (lambda: rng.randint(-3, 3)) if p is None else (lambda: rng.randrange(p))
    n_pos = system.n_pos
    nonzero = 0
    for legs in [(small, large), (large, DualModuleP(small)), (DualModuleP(large), small)]:
        vecs = [{t: [entry() for _ in range(leg.dims[t])] for t in rng.sample(list(leg.dims), 2)}
                for leg in legs]
        for _ in range(4):
            expo = [0] * n_pos
            for pos in rng.sample(range(n_pos), 2):
                expo[pos] = rng.randint(1, 4)
            side = rng.choice("EF")
            want = {}
            for b in itertools.product(*(range(k + 1) for k in expo)):
                a = tuple(k - j for k, j in zip(expo, b))
                acted = (legs[0].act(side, a, vecs[0]), legs[1].act(side, b, vecs[1]))
                want = _tensor_sum(want, tensor_of(acted, reduce=small.reduce), small.reduce)
            got = tensor_act(legs, side, expo, tensor_of(tuple(vecs), reduce=small.reduce))
            assert got == want, (legs, side, expo)
            nonzero += bool(want)
    assert nonzero


# --- coassociativity of the divided-power coproduct -------------------------
#
# The library works with two tensor legs; tensor3 bootstraps a third on top
# of tensor_act/leg_apply.


@pytest.mark.parametrize("label,weights,p", [
    ("A1", ((3,), (2,), (4,)), None),
    ("A1", ((3,), (2,), (4,)), 3),
    ("A2", ((1, 0), (0, 1), (1, 1)), 2),
])
def test_coproduct_coassociativity(label, weights, p):
    system = build_root_system(label)
    mods = tuple(WeylModuleP.build(system, w, p, 1000) for w in weights)
    start = triple_of(*(m.highest_vector() for m in mods))
    for pos in range(system.n_pos):
        current = start
        for k in (1, 2, 3):
            left = iterated_coproduct(mods, "F", pos, k, current, "left")
            right = iterated_coproduct(mods, "F", pos, k, current, "right")
            assert left == right, (label, pos, k)
            current = left    # deeper vectors keep the check nontrivial
        if current:
            for k in (1, 2):
                left = iterated_coproduct(mods, "E", pos, k, current, "left")
                right = iterated_coproduct(mods, "E", pos, k, current, "right")
                assert left == right, (label, pos, k, "E")
