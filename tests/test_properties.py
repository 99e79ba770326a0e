"""Property tests of the exact kernels: linear algebra against an independent
oracle (sympy), the action kernel against the identities it must obey, and
the output-sensitive PBW sweeps against plain exhaustive ones.

Hypothesis and sympy are test-only dependencies; the module is skipped when
Hypothesis is missing, and the sympy comparison when sympy is.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from weylpbw import (AdmissibleLattice, DualModuleP, HWModuleQ, WeylModuleP,  # noqa: E402
                     build_root_system, essential_set, pbw_filtration, stable_dumps)
from weylpbw.linalg import (RowSpaceGF, inverse_pair, pivot_prefix, rank_dense,  # noqa: E402
                            row_space, solve_dense)
from weylpbw.pbw import (Polynomial, monomials_of_degree, monomials_with_depth,  # noqa: E402
                         sn_divided_action, sweep_key)
from weylpbw.weylmod import HyperMonomial, tensor_act, tensor_leg_act, tensor_of  # noqa: E402

from test_charzero import assert_integer_gram_layer, assert_lattice_is_pbw_span  # noqa: E402

small_ints = st.integers(-4, 4)
entries = st.one_of(small_ints, st.fractions(-3, 3, max_denominator=5))


@st.composite
def rectangular_matrices(draw):
    """Integer matrices of rank <= k: a product with some rows and columns
    zeroed, each rational row then scaled to integers (scaling a row keeps
    the rank and the pivot columns)."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nrows, ncols)))
    left = draw(st.lists(st.lists(small_ints, min_size=k, max_size=k),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                          min_size=k, max_size=k))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    mat = []
    for r in range(nrows):
        row = []
        for c in range(ncols):
            v = sum((left[r][t] * Fraction(right[t][c]) for t in range(k)), Fraction(0))
            if r in zero_rows or c in zero_cols:
                v = Fraction(0)
            row.append(v)
        den = math.lcm(*(v.denominator for v in row))
        mat.append([int(v * den) for v in row])
    return mat


def _sympy(mat):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                          for v in row] for row in mat])


@settings(deadline=None, max_examples=200)
@given(rectangular_matrices())
def test_rank_dense_matches_sympy(mat):
    oracle = _sympy(mat)
    rank, pivots = rank_dense(mat)
    assert rank == oracle.rank()
    assert pivots == list(oracle.rref()[1])


square_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(deadline=None, max_examples=200)
@given(square_int_matrices)
def test_inverse_pair_matches_sympy(mat):
    """mat @ X = d I with d the least positive denominator of mat^-1, or the
    matrix is singular."""
    oracle = _sympy(mat)
    if oracle.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            inverse_pair(mat)
        return
    den, adj = inverse_pair(mat)
    assert den == math.lcm(*(v.q for v in oracle.inv()))
    n = len(mat)
    assert [[sum(mat[r][k] * adj[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)] == [[den * (r == c) for c in range(n)] for r in range(n)]


@st.composite
def square_systems(draw, rational_rhs: bool):
    """A square integer matrix and one to three right-hand columns."""
    mat = draw(square_int_matrices)
    rhs = entries if rational_rhs else small_ints
    cols = draw(st.lists(st.lists(rhs, min_size=len(mat), max_size=len(mat)),
                         min_size=1, max_size=3))
    return mat, cols


@settings(deadline=None, max_examples=200)
@given(square_systems(rational_rhs=True))
def test_solve_dense_matches_sympy_over_q(system):
    mat, cols = system
    oracle = _sympy(mat)
    if oracle.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            solve_dense(mat, cols)
        return
    sols = solve_dense(mat, cols)
    assert len(sols) == len(cols)
    for col, sol in zip(cols, sols):
        assert _sympy([sol]) == (oracle.inv() * _sympy([col]).T).T


@settings(deadline=None, max_examples=200)
@given(square_systems(rational_rhs=False), st.sampled_from([2, 3, 5, 7]))
def test_solve_dense_matches_sympy_over_gf_p(system, p):
    """Entries in [0, p) and mat @ X = rhs mod p, or ValueError exactly when
    det(mat) vanishes mod p (also when it does not vanish over Q)."""
    mat, cols = system
    if _sympy(mat).det() % p == 0:
        with pytest.raises(ValueError, match="singular"):
            solve_dense(mat, cols, p)
        return
    sols = solve_dense(mat, cols, p)
    assert len(sols) == len(cols)
    for col, sol in zip(cols, sols):
        assert all(0 <= v < p for v in sol)
        assert [(sum(a * x for a, x in zip(row, sol)) - b) % p
                for row, b in zip(mat, col)] == [0] * len(mat)


# 251 < 2**8 gets 16-bit lanes, room for one (p - 1)**2 step between
# normalisations; 2**61 - 1 gets 128-bit lanes, past the machine word widths.
GF_PRIMES = [2, 3, 5, 7, 251, 2**61 - 1]


def _gf_rank(rows, p):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    if not rows:
        return 0, ()
    field = GF(p)
    _, pivots = DomainMatrix([[field(v) for v in row] for row in rows],
                             (len(rows), len(rows[0])), field).rref()
    return len(pivots), tuple(pivots)


@settings(deadline=None, max_examples=300)
@given(rectangular_matrices(), st.sampled_from(GF_PRIMES), st.data())
def test_row_space_gf_matches_sympy(rows, p, data):
    """RowSpaceGF rank, leading columns, membership and pivot prefixes
    against sympy's rref over GF(p)."""
    pytest.importorskip("sympy")
    ncols = len(rows[0])
    space = RowSpaceGF(p)
    raising = [row for row in rows if space.insert(row)]
    rank, pivots = _gf_rank(rows, p)
    assert space.rank == rank
    assert sorted(space.pivots) == list(pivots)
    assert all(0 <= v < p for piv in space.pivots.values() for v in space._lanes(piv))
    assert all(space._lanes(piv)[0] == 1 for piv in space.pivots.values())
    coeffs = data.draw(st.lists(st.integers(-300, 300), min_size=len(rows),
                                max_size=len(rows)))
    probes = [[sum(f * row[c] for f, row in zip(coeffs, rows)) for c in range(ncols)],
              *data.draw(st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols),
                                  min_size=1, max_size=3))]
    for k in range(rank + 1):
        sub = pivot_prefix(space, k)
        base = _gf_rank(raising[:k], p)[0]
        assert sub.rank == base == k
        for probe in probes:
            member = _gf_rank(raising[:k] + [probe], p)[0] == base
            assert sub.contains(probe) == member


def test_row_space_gf_lane_budget():
    """The lane budget: the steps a lane absorbs between normalisations."""
    assert [RowSpaceGF(p).budget for p in (2, 3, 251, 257)] == [65534, 16383, 1, 65535]
    assert RowSpaceGF(2**61 - 1).lane_bits == 128


# -- the action kernel: module, dual and tensor actions ------------------------

SMALL_MODULES = [("A1", (1,)), ("A1", (3,)), ("A1", (4,)), ("A2", (1, 0)),
                 ("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 0)), ("B2", (0, 1)),
                 ("B2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 1)), ("G2", (1, 1))]
_LATTICES: dict = {}


def _module(label, weight, p) -> WeylModuleP:
    key = (label, weight)
    if key not in _LATTICES:
        _LATTICES[key] = AdmissibleLattice.build(label, weight, 64)
    return WeylModuleP(_LATTICES[key], p)


@st.composite
def small_modules(draw):
    label, weight = draw(st.sampled_from(SMALL_MODULES))
    return _module(label, weight, draw(st.sampled_from([None, 2, 3, 5])))


def _vectors(draw, m):
    """A vector on up to three blocks of ``m``, coordinates in the module's ring."""
    keys = draw(st.lists(st.sampled_from(list(m.dims)), min_size=1, max_size=3,
                         unique=True))
    entry = st.integers(-3, 3) if m.p is None else st.integers(0, m.p - 1)
    return {t: [draw(entry) for _ in range(m.dims[t])] for t in keys}


def _single_root(m, draw, max_k=3):
    pos = draw(st.integers(0, m.system.n_pos - 1))
    return pos, draw(st.sampled_from("EF")), draw(st.integers(0, max_k))


def _sparse_exponents(m, draw):
    """Exponents with at most two nonzero entries, so few products die."""
    out = [0] * m.system.n_pos
    for pos in draw(st.lists(st.integers(0, m.system.n_pos - 1), max_size=2)):
        out[pos] = draw(st.integers(1, 2))
    return tuple(out)


def _power(m, side, pos, k):
    return HyperMonomial(side, tuple(k if i == pos else 0 for i in range(m.system.n_pos)))


def _scaled(leg, c, vec):
    out = {t: [leg.reduce(c * x) for x in coords] for t, coords in vec.items()}
    return {t: coords for t, coords in out.items() if any(coords)}


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_divided_powers_compose_on_modules_and_duals(data):
    """X^(a) X^(b) = C(a+b, a) X^(a+b), on Weyl vectors and on functionals."""
    m = data.draw(small_modules())
    leg = data.draw(st.sampled_from([m, DualModuleP(m)]))
    pos, side, a = _single_root(m, data.draw)
    b = data.draw(st.integers(0, 3))
    vec = _vectors(data.draw, m)
    lhs = leg.act(_power(m, side, pos, a), leg.act(_power(m, side, pos, b), vec))
    rhs = leg.act(_power(m, side, pos, a + b), vec)
    assert _scaled(leg, 1, lhs) == _scaled(leg, math.comb(a + b, a), rhs)


def _mod_p(vec, p):
    """``vec`` reduced mod p, all-zero blocks dropped."""
    out = {t: [x % p for x in coords] for t, coords in vec.items()}
    return {t: coords for t, coords in out.items() if any(coords)}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_reduction_mod_p_commutes_with_the_action(data):
    """X^s acting over GF(p) on v mod p is X^s acting over Z on v, reduced
    mod p, on Weyl vectors and on functionals alike."""
    label, weight = data.draw(st.sampled_from(SMALL_MODULES))
    p = data.draw(st.sampled_from([2, 3, 5]))
    over_z, over_p = _module(label, weight, None), _module(label, weight, p)
    dual = data.draw(st.booleans())
    legs = (DualModuleP(over_z), DualModuleP(over_p)) if dual else (over_z, over_p)
    n_pos = over_z.system.n_pos
    mono = HyperMonomial(data.draw(st.sampled_from("EF")),
                         tuple(data.draw(st.lists(st.integers(0, 2), min_size=n_pos,
                                                  max_size=n_pos))))
    block = data.draw(st.sampled_from(list(over_z.dims)))
    vec = {block: data.draw(st.lists(st.integers(-9, 9), min_size=over_z.dims[block],
                                     max_size=over_z.dims[block]))}
    assert legs[1].act(mono, _mod_p(vec, p)) == _mod_p(legs[0].act(mono, vec), p)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_tensor_leg_act_is_the_action_on_one_leg(data):
    m = data.draw(small_modules())
    legs = tuple(data.draw(st.sampled_from([m, DualModuleP(m)])) for _ in range(2))
    idx = data.draw(st.sampled_from([0, 1]))
    mono = HyperMonomial(data.draw(st.sampled_from("EF")), _sparse_exponents(m, data.draw))
    u, w = _vectors(data.draw, m), _vectors(data.draw, m)
    got = tensor_leg_act(legs, idx, mono, tensor_of((u, w), reduce=m.reduce))
    pair = (legs[0].act(mono, u), w) if idx == 0 else (u, legs[1].act(mono, w))
    assert got == tensor_of(pair, reduce=m.reduce)


def _tensor_sum(terms, p):
    """Blockwise sum of tensor vectors, reduced mod p, all-zero blocks dropped."""
    acc = {}
    for tvec in terms:
        for key, block in tvec.items():
            prev = acc.get(key)
            acc[key] = block if prev is None else [
                [x + y for x, y in zip(r, s)] for r, s in zip(prev, block)]
    if p is not None:
        acc = {key: [[v % p for v in row] for row in block] for key, block in acc.items()}
    return {key: block for key, block in acc.items() if any(map(any, block))}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_tensor_act_is_the_coproduct_on_mixed_legs(data):
    """Delta(X^(k)) (u (x) w) = sum_{i+j=k} X^(i) u (x) X^(j) w, each leg a
    module or its dual."""
    m = data.draw(small_modules())
    legs = tuple(data.draw(st.sampled_from([m, DualModuleP(m)])) for _ in range(2))
    pos, side, k = _single_root(m, data.draw)
    u, w = _vectors(data.draw, m), _vectors(data.draw, m)
    got = tensor_act(legs, _power(m, side, pos, k), tensor_of((u, w), reduce=m.reduce))
    terms = [tensor_of((legs[0].act(_power(m, side, pos, i), u),
                        legs[1].act(_power(m, side, pos, k - i), w)), reduce=m.reduce)
             for i in range(k + 1)]
    assert got == _tensor_sum(terms, m.p)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_monomial_coords_agrees_with_act(data):
    """F^s v from ``monomial_coords``, from ``act``, and factor by factor
    with the last root's factor applied first, all lie in one block."""
    m = data.draw(small_modules())
    s = tuple(data.draw(st.integers(0, 3)) for _ in range(m.system.n_pos))
    vec = m.act(HyperMonomial("F", s), m.highest_vector())
    by_factor = m.highest_vector()
    for pos in reversed(range(m.system.n_pos)):
        by_factor = m.act(_power(m, "F", pos, s[pos]), by_factor)
    assert _scaled(m, 1, by_factor) == vec
    coords = m.monomial_coords(s)
    if coords is None:
        assert vec == {}
    else:
        assert vec == {m.system.monomial_depth(s): coords}


# -- the divided action on symbols against its definition ---------------------

def _derivation(system, pos, poly):
    """E_beta on symbols, beta the root at ``pos``: the derivation taking
    x_gamma to N_{beta, gamma} x_{gamma + beta}."""
    beta = system.positive_roots[pos]
    out = {}
    for s, c in poly.coeffs.items():
        for g, gamma in enumerate(system.positive_roots):
            up = tuple(a + b for a, b in zip(gamma, beta))
            if s[g] and system.is_positive_root(up):
                t = list(s)
                t[g] -= 1
                t[system.pos_index[up]] += 1
                t = tuple(t)
                out[t] = out.get(t, 0) + c * s[g] * system.structure_constant(beta, gamma)
    return Polynomial(out)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_divided_symbol_action_is_the_derivation_power(data):
    """k! E^(k) f is E applied k times to f over Z, and E^(k) f with a prime
    is the Z result reduced."""
    system = build_root_system(data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "C3"])))
    n = system.n_pos
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    poly = Polynomial(data.draw(st.dictionaries(monomials, st.integers(-3, 3),
                                                min_size=1, max_size=3)))
    pos = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    got = sn_divided_action(system, pos, k, poly)
    power = poly
    for _ in range(k):
        power = _derivation(system, pos, power)
    assert got.scale(math.factorial(k)) == power
    assert sn_divided_action(system, pos, k, poly, p) == got.reduce(p)


# -- the integral form: simple-root generation against the PBW definition ------

def _small_module(draw):
    """A rank <= 2 type and a dominant weight with |lam| <= 3."""
    label = draw(st.sampled_from(["A1", "A2", "B2", "C2", "G2"]))
    rank = build_root_system(label).rank
    weight = tuple(draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)
                        .filter(lambda w: sum(w) <= 3)))
    return label, weight


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_lattice_is_the_span_of_ordered_divided_monomials(data):
    """The lattice built from simple-root divided powers is the Z-span of
    every ordered divided PBW monomial applied to v."""
    assert_lattice_is_pbw_span(AdmissibleLattice.build(*_small_module(data.draw)))


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_integer_gram_layer(data):
    """Integer, positive definite block Grams with G X = d I, and
    [E_i, F_i] = <mu, alpha_i^vee> from the (ints, den) operators."""
    assert_integer_gram_layer(HWModuleQ(*_small_module(data.draw)))


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_a_payload_holds_exactly_its_lattice(data):
    """A payload re-serialises byte for byte, and loses its lattice when one
    e/f matrix is dropped or one block's weight is moved off its depth."""
    payload = AdmissibleLattice.build(*_small_module(data.draw)).to_payload()
    want = stable_dumps(payload)
    assert stable_dumps(AdmissibleLattice.from_payload(payload).to_payload()) == want
    edited = json.loads(want)
    where = data.draw(st.sampled_from([side for side in ("e", "f") if edited[side]] + ["weight"]))
    if where == "weight":
        weight = data.draw(st.sampled_from(edited["blocks"]))["weight"]
        weight[data.draw(st.integers(0, len(weight) - 1))] += data.draw(
            st.integers(-3, 3).filter(bool))
    else:
        del edited[where][data.draw(st.sampled_from(sorted(edited[where])))]
    with pytest.raises((KeyError, ValueError)):
        AdmissibleLattice.from_payload(edited)


# -- the PBW sweeps: forced enumeration tail and early stops -------------------

ENUMERATION_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


def _brute_monomials(system, depth, degree=None):
    """Every s in the box of per-root exponent caps, in lexicographic order,
    kept when its depth (and degree) match."""
    caps = [min(d // b for d, b in zip(depth, beta) if b) for beta in system.positive_roots]
    return [s for s in itertools.product(*(range(c + 1) for c in caps))
            if system.monomial_depth(s) == tuple(depth)
            and (degree is None or sum(s) == degree)]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_monomials_with_depth_matches_brute_force(data):
    system = build_root_system(data.draw(st.sampled_from(ENUMERATION_TYPES)))
    top = 4 if system.rank <= 2 else 3
    depth = tuple(data.draw(st.integers(-1, top)) for _ in range(system.rank))
    degree = data.draw(st.one_of(st.none(), st.integers(-1, 7)))
    assert monomials_with_depth(system, depth, degree) == _brute_monomials(
        system, depth, degree)


@pytest.mark.parametrize("label", ENUMERATION_TYPES)
def test_monomials_with_depth_edge_depths(label):
    system = build_root_system(label)
    zero = (0,) * system.rank
    assert monomials_with_depth(system, zero) == [(0,) * system.n_pos]
    assert monomials_with_depth(system, zero, degree=1) == []
    negative = (-1,) + (1,) * (system.rank - 1)
    assert monomials_with_depth(system, negative) == []
    assert monomials_with_depth(system, negative, degree=1) == []
    # a coordinate too large to reach in two steps of any positive root
    too_large = (7,) + (0,) * (system.rank - 1)
    assert monomials_with_depth(system, too_large, degree=2) == []
    assert monomials_with_depth(system, too_large) == _brute_monomials(system, too_large)


# The modules the sweep benchmark draws from. Their blocks lie deeper than the
# brute-force test above reaches (coordinates up to 18), so the degree pruning
# is checked there against the unpruned enumeration instead.
SWEEP_MODULES = [("G2", (0, 3)), ("G2", (1, 2)), ("G2", (2, 1)), ("C3", (0, 1, 1)),
                 ("A3", (2, 1, 2))]


@pytest.mark.parametrize("label,weight", SWEEP_MODULES)
def test_degree_lists_concatenate_to_the_full_list(label, weight):
    """For every depth in the weight box of V(weight), the lists for degree
    0, 1, ..., height, concatenated, are the full list stably sorted by
    degree: pruning drops no multi-index and keeps the lexicographic order."""
    system = build_root_system(label)
    box = system.depth_vector(weight)
    for depth in itertools.product(*(range(b + 1) for b in box)):
        by_degree = [s for d in range(sum(depth) + 1)
                     for s in monomials_with_depth(system, depth, degree=d)]
        assert by_degree == sorted(monomials_with_depth(system, depth), key=sum), depth


def _brute_box_monomials(system, box, degree):
    """Every s of total degree ``degree`` in the box of per-root exponent
    caps, in lexicographic order, kept when its depth fits inside ``box``."""
    caps = [min(b // c for b, c in zip(box, beta) if c) for beta in system.positive_roots]
    return [s for s in itertools.product(*(range(c + 1) for c in caps))
            if sum(s) == degree
            and all(d <= b for d, b in zip(system.monomial_depth(s), box))]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(ENUMERATION_TYPES), st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.integers(-1, 6))
@example("A2", [0, 0, 0], 0)
@example("G2", [0, 0, 0], -1)
@example("B3", [2, 1, 2], 0)
@example("C3", [2, 2, 2], 4)
def test_monomials_of_degree_matches_brute_force(label, box, degree):
    system = build_root_system(label)
    box = tuple(min(b, 4 if system.rank <= 2 else 2) for b in box[:system.rank])
    assert list(monomials_of_degree(system, box, degree)) == _brute_box_monomials(
        system, box, degree)


def test_monomials_with_depth_a1_negative():
    a1 = build_root_system("A1")
    assert monomials_with_depth(a1, (-1,)) == []
    assert monomials_with_depth(a1, (2,)) == [(2,)]
    assert monomials_with_depth(a1, (2,), degree=1) == []


def _insert(space, coords):
    return coords is not None and space.insert(coords)


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("label,weight", SMALL_MODULES)
def test_sweeps_equal_their_no_stop_references(label, weight, p):
    m = _module(label, weight, p)
    es = essential_set(m)
    for depth in m.dims:
        indices = sorted(monomials_with_depth(m.system, depth), key=sweep_key)
        space, kept = row_space(p), {}
        for s in indices:                 # the complete greedy sweep
            coords = m.monomial_coords(s)
            if _insert(space, coords):
                kept[s] = coords
        sweep = es.by_block[depth]
        # the sweep enumerates only up to the degree in which it spans
        top = max(map(sum, sweep.essential))
        assert sweep.all_indices == [s for s in indices if sum(s) <= top]
        assert sweep.vectors == kept
        assert set(sweep.essential) == set(kept)

    box = m.system.depth_vector(m.highest_weight)
    top = sum(box)
    spaces, rank, levels = {}, 0, []
    for n in range(top + 2):              # every monomial of degree <= n, no stop
        for s in monomials_of_degree(m.system, box, n):
            depth = m.system.monomial_depth(s)
            if depth in m.dims:
                space = spaces.setdefault(depth, row_space(p))
                rank += _insert(space, m.monomial_coords(s))
        levels.append(rank)
    for n in sorted({0, 1, top // 2, top - 1, top, top + 1} - {-1}):
        assert pbw_filtration(m, n).level_dims == levels[:n + 1], n
