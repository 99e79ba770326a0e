"""Highest-weight modules over Q and their minimal integral forms."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylpbw
from weylpbw import (AdmissibleLattice, HWModuleQ, InvariantError, ResourceCapError,
                     build_root_system, charzero)
from weylpbw.cache import stable_dumps, stable_hash
from weylpbw.linalg import ScaledLattice, hnf_rows
from weylpbw.pbw import monomials_with_depth
from weylpbw.weylmod import WeylModuleP


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G2")


def test_dimensions_match_weyl_formula(g2):
    for weight, dim in [((1, 0), 7), ((0, 1), 14), ((1, 1), 64)]:
        module = HWModuleQ(g2, weight)
        assert sum(blk.dim for blk in module.blocks.values()) == dim
        assert dim == g2.weyl_dimension(weight)


def test_dimensions_small_rank():
    a1 = build_root_system("A1")
    for n in range(6):
        module = HWModuleQ(a1, (n,))
        assert sum(blk.dim for blk in module.blocks.values()) == n + 1
    a2 = build_root_system("A2")
    module = HWModuleQ(a2, (1, 1))
    assert sum(blk.dim for blk in module.blocks.values()) == 8


def test_block_structure_g2_fundamental(g2):
    module = HWModuleQ(g2, (1, 0))
    # 7 = 1 + 1 + ... with a 1-dimensional zero-weight block at depth (2, 1)
    dims = {t: blk.dim for t, blk in module.blocks.items()}
    assert dims[(0, 0)] == 1
    assert dims[(2, 1)] == 1
    assert sum(dims.values()) == 7
    assert module.blocks[(2, 1)].weight == (0, 0)


def test_gram_contravariance(g2):
    """The invariant form is symmetric and nondegenerate per block over Q."""
    from weylpbw.linalg import rank_dense

    module = HWModuleQ(g2, (0, 1))
    for t, blk in module.blocks.items():
        gram = module.gram(t)
        assert len(gram) == blk.dim
        for i in range(blk.dim):
            for j in range(blk.dim):
                assert gram[i][j] == gram[j][i]
        rank, _ = rank_dense(gram)
        assert rank == blk.dim, t


def test_root_operators_serve_simple_roots_only(g2):
    """Non-simple root operators are derived over Z by the lattice build, so
    the Q-side accessors refuse them; the simple ones come as an integer
    matrix over a positive denominator."""
    module = HWModuleQ(g2, (1, 0))
    for pos, beta in enumerate(g2.positive_roots):
        for operator in (module.f_root, module.e_root):
            if sum(beta) == 1:
                ints, den = operator((1, 0), pos)
                assert isinstance(den, int) and den > 0
                assert all(isinstance(v, int) for row in ints for v in row)
            else:
                with pytest.raises(ValueError, match="not simple"):
                    operator((1, 0), pos)


def _leading_minors_positive(gram):
    """Sylvester's criterion: Gaussian elimination without pivoting meets only
    positive pivots exactly when every leading principal minor is positive."""
    a = [[Fraction(v) for v in row] for row in gram]
    for k, top in enumerate(a):
        if top[k] <= 0:
            return False
        for row in a[k + 1:]:
            f = row[k] / top[k]
            for c in range(k, len(top)):
                row[c] -= f * top[c]
    return True


def _rational(pair):
    ints, den = pair
    return [[Fraction(v, den) for v in row] for row in ints]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def assert_integer_gram_layer(module):
    """Every block Gram is an integer, symmetric, positive definite matrix, its
    stored pair satisfies G X = d I, and the simple operators that ``f_root``
    and ``e_root`` return as (ints, den) satisfy [E_i, F_i] = <mu, alpha_i^vee>."""
    system = module.system
    simple = range(system.n_pos - system.rank, system.n_pos)
    for t, blk in module.blocks.items():
        gram = module.gram(t)
        assert all(type(v) is int for row in gram for v in row), t
        assert gram == [list(col) for col in zip(*gram)], t
        assert _leading_minors_positive(gram), t
        assert blk.den > 0
        assert _product(gram, blk.adj) == [[blk.den * (r == c) for c in range(blk.dim)]
                                           for r in range(blk.dim)], t
        for pos in simple:
            i = system.positive_roots[pos].index(1)
            up = tuple(v - (k == i) for k, v in enumerate(t))
            down = tuple(v + (k == i) for k, v in enumerate(t))
            bracket = [[Fraction(-blk.weight[i] * (r == c)) for c in range(blk.dim)]
                       for r in range(blk.dim)]
            if down in module.blocks:   # + E_i F_i
                ef = _product(_rational(module.e_root(down, pos)),
                              _rational(module.f_root(t, pos)))
                bracket = [[x + y for x, y in zip(*rows)] for rows in zip(bracket, ef)]
            if up in module.blocks:     # - F_i E_i
                fe = _product(_rational(module.f_root(up, pos)),
                              _rational(module.e_root(t, pos)))
                bracket = [[x - y for x, y in zip(*rows)] for rows in zip(bracket, fe)]
            assert not any(v for row in bracket for v in row), (t, pos)


def test_dim_cap_enforced(g2):
    with pytest.raises(ResourceCapError):
        HWModuleQ(g2, (4, 4), dim_cap=100)
    with pytest.raises(ResourceCapError):
        AdmissibleLattice.build(g2, (4, 4), dim_cap=100)


def test_lattice_dims_and_blocks(g2):
    lattice = AdmissibleLattice.build(g2, (0, 1))
    assert lattice.dim == 14
    assert lattice.highest_weight == (0, 1)
    assert set(lattice.dims) == set(lattice.weights)
    assert lattice.dims[(0, 0)] == 1
    # the adjoint representation has a 2-dimensional zero-weight space
    assert lattice.dims[(3, 2)] == 2
    assert lattice.weights[(3, 2)] == (0, 0)


def test_lattice_operators_are_integral(g2):
    lattice = AdmissibleLattice.build(g2, (1, 0))
    for mat in list(lattice.e_gen.values()) + list(lattice.f_gen.values()):
        for row in mat:
            for entry in row:
                assert isinstance(entry, int)


def test_lattice_payload_cartan_preserved():
    a2 = build_root_system("A2")
    payload = AdmissibleLattice.build(a2, (1, 1)).to_payload()
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["highest_weight"] == [1, 1]
    assert sum(b["dim"] for b in payload["blocks"]) == 8


# Digests of ``stable_hash(lattice.to_payload())``: any change to the lattice
# kernel must reproduce these bytes exactly.
GOLDEN_PAYLOAD_DIGESTS = [
    ("G2", (1, 0), "e4ded631fe30f42be9885fbd8b87aba56304cff21572fc3ecf327553524c6064"),
    ("G2", (0, 1), "4c2243586d6816253462f167a3f7345a594cf1703d416f89e05e25f8c8577e16"),
    ("G2", (1, 1), "e9107debaa68647a98e10669df122077dd533b6184463cbeddebc72c0fe75e8c"),
    ("A2", (1, 1), "8d474d5eae9455a17634d99c49bd7dea5c4ca1f3bbb6a21b2d1ce8ed9afe56df"),
    ("B2", (2, 3), "2042f68a89a5efc8ad7b3aa61a77cade3944302536466a3eb55e478495bf308e"),
    ("C3", (0, 1, 1), "e711ac5347d57ce35ecf3195c5040e8e1f157e5beba76ea1bdea0fba6fe20238"),
    ("B3", (1, 0, 1), "f76a3906febc3ce7f2038fe50f6e7caeaf9828248bf686ba9778226db99d72b4"),
    ("A3", (1, 0, 1), "fec4a2bcf0cbce5cd8aea9d4f3280bf597f5ad6466542598b493da734d9db206"),
]


@pytest.mark.parametrize("typ,weight,digest", GOLDEN_PAYLOAD_DIGESTS)
def test_lattice_payload_golden_digest(typ, weight, digest):
    lattice = AdmissibleLattice.build(typ, weight)
    assert stable_hash(lattice.to_payload()) == digest


def assert_lattice_is_pbw_span(lattice):
    """Each block of ``lattice`` is the Z-span of the ordered divided PBW
    monomials F^(s) v over all positive roots, the lattice's original
    definition: in lattice coordinates their Hermite form is the identity."""
    m = WeylModuleP(lattice, None)
    for t, dim in lattice.dims.items():
        coords = (m.monomial_coords(s) for s in monomials_with_depth(lattice.system, t))
        identity = [tuple(int(r == c) for c in range(dim)) for r in range(dim)]
        assert hnf_rows((c for c in coords if c is not None), dim) == identity, t


@pytest.mark.parametrize("typ,weight", [(typ, weight) for typ, weight, _ in GOLDEN_PAYLOAD_DIGESTS])
def test_integer_gram_layer(typ, weight):
    assert_integer_gram_layer(HWModuleQ(typ, weight))


@pytest.mark.parametrize("typ,weight", [(typ, weight) for typ, weight, _ in GOLDEN_PAYLOAD_DIGESTS])
def test_lattice_is_the_span_of_ordered_divided_monomials(typ, weight):
    assert_lattice_is_pbw_span(AdmissibleLattice.build(typ, weight))


@pytest.mark.parametrize("typ,weight", [(typ, weight) for typ, weight, _ in GOLDEN_PAYLOAD_DIGESTS])
def test_lattice_payload_round_trip(typ, weight):
    lattice = AdmissibleLattice.build(typ, weight)
    payload = lattice.to_payload()
    rebuilt = AdmissibleLattice.from_payload(payload)
    assert rebuilt.system.cartan.matrix == lattice.system.cartan.matrix
    assert rebuilt.highest_weight == lattice.highest_weight
    assert list(rebuilt.dims) == list(lattice.dims)
    assert rebuilt.dims == lattice.dims
    assert rebuilt.weights == lattice.weights
    assert rebuilt.e_gen == lattice.e_gen
    assert rebuilt.f_gen == lattice.f_gen
    # serialize -> deserialize -> serialize is byte-identical
    assert stable_dumps(rebuilt.to_payload()) == stable_dumps(payload)


def build_with_corrupt_block():
    """Build G2 (1,0) with the lattice basis of its second block doubled.

    F maps the highest vector onto half of the doubled basis vector, so the
    operator matrices are no longer integral on the lattice.
    """
    original = ScaledLattice.finalize
    calls = []

    def corrupted(self):
        den, basis = original(self)
        calls.append(self)
        if len(calls) == 2:
            basis = [tuple(2 * v for v in basis[0])] + basis[1:]
        return den, basis

    ScaledLattice.finalize = corrupted
    try:
        return AdmissibleLattice.build("G2", (1, 0))
    finally:
        ScaledLattice.finalize = original


def test_corrupt_lattice_raises_invariant_error():
    with pytest.raises(InvariantError, match="not integral on the lattice"):
        build_with_corrupt_block()
    assert issubclass(InvariantError, AssertionError)


def _invariant_error_under_optimize(builder: str) -> str:
    """Run ``test_charzero.<builder>()`` under ``python -O``; the stdout it prints."""
    here = Path(__file__).resolve().parent
    src = Path(weylpbw.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import test_charzero\n"
            "try:\n"
            f"    test_charzero.{builder}()\n"
            "except test_charzero.InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_invariant_error_survives_optimize_flag():
    """``python -O`` strips asserts; the integrality check must still fire."""
    assert ("InvariantError: operator matrix not integral on the lattice"
            in _invariant_error_under_optimize("build_with_corrupt_block"))


def build_with_corrupt_structure_constant():
    """Build G2 (1,0) with N(alpha_2, alpha_1) doubled in ``_root_splits``.

    alpha_1 + alpha_2 splits along its extraspecial pair (alpha_2, alpha_1).
    The commutator [F_2, F_1] on the lattice is -N F_12 with the true N = +-1,
    so halving it leaves a remainder wherever F_12 has an odd entry.
    """
    original = charzero._root_splits

    def corrupted(system):
        splits = original(system)
        pos = system.pos_index[(1, 1)]
        ipos, rpos, n_const = splits[pos]
        return {**splits, pos: (ipos, rpos, 2 * n_const)}

    charzero._root_splits = corrupted
    try:
        return AdmissibleLattice.build("G2", (1, 0))
    finally:
        charzero._root_splits = original


CORRUPT_COMMUTATOR = r"F commutator for root \(1, 1\) at block \(0, 0\) is not divisible by N = -?2"


def test_corrupt_structure_constant_raises_invariant_error():
    with pytest.raises(InvariantError, match=CORRUPT_COMMUTATOR):
        build_with_corrupt_structure_constant()


def test_commutator_check_survives_optimize_flag():
    out = _invariant_error_under_optimize("build_with_corrupt_structure_constant")
    assert re.search("InvariantError: " + CORRUPT_COMMUTATOR, out), out


def build_with_corrupt_inverse_pair():
    """Build A2 (1,1) with d doubled in the stored pair (d, X) of block (1, 0).

    Gram entries two steps down are then read as half their value, which
    leaves a remainder at block (1, 2).
    """
    original = charzero.inverse_pair
    calls = []

    def corrupted(mat):
        den, adj = original(mat)
        calls.append(mat)
        return (2 * den if len(calls) == 2 else den), adj

    charzero.inverse_pair = corrupted
    try:
        return HWModuleQ("A2", (1, 1))
    finally:
        charzero.inverse_pair = original


CORRUPT_GRAM = r"candidate Gram entry at block \(1, 2\) is not integral"


def test_corrupt_inverse_pair_raises_invariant_error():
    with pytest.raises(InvariantError, match=CORRUPT_GRAM):
        build_with_corrupt_inverse_pair()


def test_gram_integrality_check_survives_optimize_flag():
    out = _invariant_error_under_optimize("build_with_corrupt_inverse_pair")
    assert re.search("InvariantError: " + CORRUPT_GRAM, out), out


def test_singular_basis_gram_raises_invariant_error(monkeypatch):
    """A pivot choice that keeps a dependent candidate (here F_2 v = 0 in
    G2 (1,0)) leaves a singular basis Gram, which the build refuses."""
    monkeypatch.setattr(charzero, "rank_dense", lambda mat: (len(mat), list(range(len(mat)))))
    with pytest.raises(InvariantError, match=r"chosen basis Gram at block \(0, 1\) is singular"):
        HWModuleQ("G2", (1, 0))


CHEVALLEY_MODULES = [
    ("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1)), ("C2", (1, 1)),
    ("G2", (1, 0)), ("G2", (0, 1)), ("G2", (1, 1)), ("A3", (1, 0, 1)),
    ("B3", (1, 0, 1)), ("C3", (0, 1, 1)),
]


def _apply(m, side, pos, vec):
    out = {}
    for t, coords in vec.items():
        hit = m.leg_apply(side, pos, 1, t, coords)
        if hit is not None:
            out[hit[0]] = hit[1]
    return out


def _combine(*terms):
    """The sum of c * vec over the (c, vec) terms, all-zero blocks dropped."""
    out = {}
    for c, vec in terms:
        for t, coords in vec.items():
            row = out.setdefault(t, [0] * len(coords))
            for k, v in enumerate(coords):
                row[k] += c * v
    return {t: row for t, row in out.items() if any(row)}


def _bracket(m, x, y, vec):
    return _combine((1, _apply(m, *x, _apply(m, *y, vec))),
                    (-1, _apply(m, *y, _apply(m, *x, vec))))


@pytest.mark.parametrize("typ,weight", CHEVALLEY_MODULES)
def test_lattice_operators_satisfy_chevalley_relations(typ, weight):
    """On every basis vector of every block of the integral form:
    [E_a, E_b] = N(a, b) E_{a+b}, [F_a, F_b] = N(-a, -b) F_{a+b} (0 when
    a + b is not a root), [E_a, F_a] = <wt, a^vee> and [E_i, F_j] = 0 for
    distinct simple roots."""
    m = WeylModuleP(AdmissibleLattice.build(typ, weight), None)
    system = m.system
    roots = system.positive_roots
    simple = range(system.n_pos - system.rank, system.n_pos)
    for t, dim in m.dims.items():
        for b in range(dim):
            vec = {t: [int(k == b) for k in range(dim)]}
            for a, alpha in enumerate(roots):
                for c, beta in enumerate(roots):
                    total = tuple(x + y for x, y in zip(alpha, beta))
                    if system.is_positive_root(total):
                        s = system.pos_index[total]
                        n_e = system.structure_constant(alpha, beta)
                        n_f = system.structure_constant(tuple(-x for x in alpha),
                                                        tuple(-x for x in beta))
                        want_e = _combine((n_e, _apply(m, "E", s, vec)))
                        want_f = _combine((n_f, _apply(m, "F", s, vec)))
                    else:
                        want_e = want_f = {}
                    assert _bracket(m, ("E", a), ("E", c), vec) == want_e, (t, b, a, c)
                    assert _bracket(m, ("F", a), ("F", c), vec) == want_f, (t, b, a, c)
                h = system.pairing(m.weights[t], alpha)
                assert _bracket(m, ("E", a), ("F", a), vec) == _combine((h, vec)), (t, b, a)
            for i in simple:
                for j in simple:
                    if i != j:
                        assert _bracket(m, ("E", i), ("F", j), vec) == {}, (t, b, i, j)
