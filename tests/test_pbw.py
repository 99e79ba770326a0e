"""Essential monomial bases, filtration tables, and graded symbols."""

import functools
import itertools
import math

import pytest
from builders import h0

from weylpbw import (
    InducedSections,
    InvariantError,
    Polynomial,
    WeylModuleP,
    build_root_system,
    essential_set,
    g2_essential_member,
    g2_essential_table,
    j_map,
    order_key,
    pbw_filtration,
    section_product,
    sn_divided_action,
)
from weylpbw import pbw
from weylpbw.linalg import solve_dense
from weylpbw.pbw import monomials_with_depth
from weylpbw.weylmod import tensor_act, tensor_of


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G2")


# --- the total order ---------------------------------------------------------


def test_order_degree_dominates():
    assert order_key((1, 0, 0, 0, 0, 0)) < order_key((0, 0, 0, 2, 0, 0))
    assert order_key((0, 0, 0, 0, 0, 2)) > order_key((1, 0, 0, 0, 0, 0))


def test_order_within_degree_reads_from_the_right():
    # equal degree: compare reversed tuples lexicographically
    assert order_key((0, 0, 0, 2, 0, 0)) < order_key((0, 0, 1, 0, 1, 0))
    assert order_key((1, 0, 0, 0, 0, 1)) > order_key((0, 0, 1, 0, 1, 0))
    assert order_key((1, 1)) == order_key((1, 1))
    assert sorted([(2, 0), (0, 2), (1, 1)], key=order_key) == [
        (2, 0), (1, 1), (0, 2)]


# --- essential sets ----------------------------------------------------------

G2_W1_ESSENTIALS = [
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1),
]

A2_ADJOINT_ESSENTIALS = [
    (0, 0, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
]


def test_essential_a1_string():
    a1 = build_root_system("A1")
    m = WeylModuleP.build(a1, (4,), None, 100)
    es = essential_set(m)
    assert es.indices == [(0,), (1,), (2,), (3,), (4,)]
    assert es.degree_histogram() == [1, 1, 1, 1, 1]


def test_essential_g2_seven(g2):
    m = WeylModuleP.build(g2, (1, 0), None, 1000)
    es = essential_set(m)
    assert es.indices == G2_W1_ESSENTIALS
    assert es.degree_histogram() == [1, 5, 1]
    assert (1, 0, 0, 0, 0, 1) in es
    assert (0, 0, 0, 0, 1, 0) not in es


def test_essential_g2_adjoint(g2):
    es = essential_set(WeylModuleP.build(g2, (0, 1), None, 1000))
    assert len(es.indices) == 14
    assert es.degree_histogram() == [1, 5, 8]
    # the degree-2 convention pair: the table keeps (0,0,1,0,1,0)
    assert (0, 0, 1, 0, 1, 0) in es
    assert (0, 0, 0, 2, 0, 0) not in es


def test_essential_a2_adjoint():
    a2 = build_root_system("A2")
    for p in (None, 2):
        es = essential_set(WeylModuleP.build(a2, (1, 1), p, 100))
        assert es.indices == A2_ADJOINT_ESSENTIALS


def test_sweep_convention_documented(g2):
    """Why the sweep runs reverse-lex-largest-first within a degree: the two
    degree-2 monomial vectors below are EQUAL in the integral module, and the
    published inequality description keeps the larger index, so the smaller
    one must be swept first and discarded."""
    m = WeylModuleP.build(g2, (0, 1), None, 1000)
    v = m.highest_vector()
    small = m.act("F", (0, 0, 0, 2, 0, 0), v)
    large = m.act("F", (0, 0, 1, 0, 1, 0), v)
    assert small == large == {(2, 2): [-1]}
    assert order_key((0, 0, 0, 2, 0, 0)) < order_key((0, 0, 1, 0, 1, 0))


def test_essential_matches_inequality_table(g2):
    for k, l in [(1, 0), (0, 1), (2, 0), (1, 1)]:
        es = essential_set(WeylModuleP.build(g2, (k, l), None, 10000))
        assert set(es.indices) == set(g2_essential_table(k, l)), (k, l)


def _reference_monomials(system, depth):
    """Every s of the given depth in lexicographic order: the plain recursion
    over the root positions, with no degree pruning and no memo."""
    roots = system.positive_roots

    def rec(pos, rem):
        if pos == len(roots):
            if not any(rem):
                yield ()
            return
        k = 0
        while min(rem) >= 0:
            for rest in rec(pos + 1, rem):
                yield (k,) + rest
            rem, k = tuple(r - b for r, b in zip(rem, roots[pos])), k + 1

    return list(rec(0, tuple(depth)))


# the modules of the sweep benchmark, and B3 (1,0,1)
ENUMERATED_MODULES = [("G2", (0, 3)), ("G2", (1, 2)), ("G2", (2, 1)), ("C3", (0, 1, 1)),
                      ("A3", (2, 1, 2)), ("B3", (1, 0, 1))]


@pytest.mark.parametrize("label,weight", ENUMERATED_MODULES)
def test_memoised_enumeration_matches_the_plain_recursion(label, weight, monkeypatch):
    """For every depth in the weight box of V(weight) (so every block), the
    memoised enumeration gives the plain recursion's list for degree=None
    and, filtered, for each degree: built into an empty memo, read back
    from a full one, and with a memo of 8 lists that evicts all the time."""
    system = build_root_system(label)
    box = system.depth_vector(weight)
    depths = list(itertools.product(*(range(b + 1) for b in box)))
    want = {t: _reference_monomials(system, t) for t in depths}
    pbw._suffixes.cache_clear()
    tiny = functools.lru_cache(maxsize=8)(pbw._suffixes.__wrapped__)
    for suffixes, rounds in ((pbw._suffixes, 2), (tiny, 1)):
        monkeypatch.setattr(pbw, "_suffixes", suffixes)
        for _ in range(rounds):
            for t in depths:
                assert monomials_with_depth(system, t) == want[t], t
                for d in range(sum(t) + 2):
                    assert monomials_with_depth(system, t, degree=d) == [
                        s for s in want[t] if sum(s) == d], (t, d)
    assert tiny.cache_info().currsize == 8


@pytest.mark.parametrize("depth", [(1, 1, 1), (2, 1, 0), (1,), ()])
def test_enumeration_rejects_a_depth_of_the_wrong_length(g2, depth):
    """A depth or box whose length is not the rank is an error, raised
    before any memo is read, not a list for a shorter or longer depth."""
    with pytest.raises(ValueError, match="rank 2"):
        monomials_with_depth(g2, depth)
    with pytest.raises(ValueError, match="rank 2"):
        monomials_with_depth(g2, depth, degree=1)
    with pytest.raises(ValueError, match="rank 2"):
        list(pbw.monomials_of_degree(g2, depth, 1))
    assert monomials_with_depth(g2, (2, 1)) == monomials_with_depth(g2, [2, 1])


@pytest.fixture
def coords_calls(monkeypatch):
    """The multi-indices passed to ``WeylModuleP.monomial_coords``, in call order."""
    calls = []
    coords = WeylModuleP.monomial_coords

    def counting(self, s):
        calls.append(s)
        return coords(self, s)

    monkeypatch.setattr(WeylModuleP, "monomial_coords", counting)
    return calls


def test_essential_sweep_stops_at_full_rank(g2, coords_calls):
    """A block's sweep computes F^s v only up to its last essential index:
    past it the kept vectors already span the block."""
    es = essential_set(WeylModuleP.build(g2, (1, 2), 5, 10000))
    expected = sum(max(sweep.all_indices.index(s) for s in sweep.essential) + 1
                   for sweep in es.by_block.values())
    assert len(coords_calls) == expected
    assert expected < sum(len(sweep.all_indices) for sweep in es.by_block.values())


def test_monomial_coords_are_the_composed_action(g2):
    """Every F^s v an essential sweep of G2 (1,2) at p=3 reaches, read through
    the shared tails, is F^s applied to v factor by factor; each call hands
    out a new list, so writing to one changes no later answer."""
    m = WeylModuleP.build(g2, (1, 2), 3)
    fresh = WeylModuleP(m.lattice, 3)
    es = essential_set(m)
    indices = [s for sweep in es.by_block.values() for s in sweep.all_indices]
    assert len(indices) == 520
    for s in indices:
        want = fresh.act("F", s, fresh.highest_vector())
        assert m.monomial_coords(s) == next(iter(want.values()), None), s
        got = m.monomial_coords(s)
        if got is not None:
            got[0] += 1
            assert m.monomial_coords(s) == next(iter(want.values())), s
    zero = (0,) * g2.n_pos
    m.monomial_coords(zero).append(5)
    assert m.monomial_coords(zero) == [1]
    with pytest.raises(ValueError):
        m.monomial_coords((0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        m.monomial_coords((0, 0, 0, 0, -1, 0))


def test_filtration_sweep_stops_at_full_rank(g2, coords_calls):
    """Each block's filtration sweep ends once the block is spanned, well
    before its last monomial."""
    m = WeylModuleP.build(g2, (1, 2), 5, 10000)
    top = sum(g2.depth_vector((1, 2)))
    assert pbw_filtration(m, top).top_dim == g2.weyl_dimension((1, 2))
    monomials = sum(len(monomials_with_depth(g2, t)) for t in m.dims)
    assert 2 * len(coords_calls) < monomials


def test_table_cardinality_is_weyl_dimension(g2):
    for k, l in [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (16, 0)]:
        assert len(g2_essential_table(k, l)) == g2.weyl_dimension((k, l)), (k, l)


def test_g2_essential_member_inequalities():
    assert g2_essential_member(1, 0, (1, 0, 0, 0, 0, 1))
    assert not g2_essential_member(1, 0, (2, 0, 0, 0, 0, 0))   # sum over 1..5 too big
    assert not g2_essential_member(1, 0, (0, 0, 0, 0, 1, 0))   # s5 exceeds l
    assert g2_essential_member(2, 0, (2, 0, 0, 0, 0, 2))
    # the degree-2(p-1) top index of V((p-1) w1) for p = 11
    assert g2_essential_member(10, 0, (10, 0, 0, 0, 0, 10))


# --- filtration tables -------------------------------------------------------


def test_pbw_filtration_g2_fundamental(g2):
    m = WeylModuleP.build(g2, (1, 0), None, 1000)
    table = pbw_filtration(m, 3)
    assert table.level_dims == [1, 6, 7, 7]
    assert table.graded_dims == [1, 5, 1, 0]
    assert table.top_dim == 7


def test_pbw_filtration_a2_adjoint():
    a2 = build_root_system("A2")
    m = WeylModuleP.build(a2, (1, 1), None, 100)
    table = pbw_filtration(m, 4)
    assert table.level_dims == [1, 4, 8, 8, 8]
    assert table.graded_dims == [1, 3, 4, 0, 0]


def test_pbw_filtration_rejects_negative_level(g2):
    m = WeylModuleP.build(g2, (1, 0), None, 1000)
    with pytest.raises(ValueError, match="negative"):
        pbw_filtration(m, -1)
    assert pbw_filtration(m, 0).level_dims == [1]


def test_filtration_checks_spanning_once_it_reaches_a_block_height(g2, monkeypatch):
    """A filtration sweep that reaches a block's height raises, as the
    essential sweep does, when the monomial vectors fail to span the block;
    a level below the height of every unspanned block does not."""
    m = WeylModuleP.build(g2, (1, 0), None, 1000)
    monkeypatch.setattr(WeylModuleP, "monomial_coords",
                        lambda self, s: None if sum(s) else [1])
    assert pbw_filtration(m, 0).level_dims == [1]
    with pytest.raises(InvariantError, match="fail to span"):
        pbw_filtration(m, 1)


def test_histogram_accumulates_to_level_dims(g2):
    """Essential counts per degree are the graded dimensions."""
    for weight in [(1, 0), (0, 1), (1, 1)]:
        m = WeylModuleP.build(g2, weight, None, 10000)
        es = essential_set(m)
        hist = es.degree_histogram()
        table = pbw_filtration(m, len(hist) - 1)
        assert table.graded_dims == hist, weight


# --- polynomials -------------------------------------------------------------


def test_polynomial_arithmetic():
    x = Polynomial.monomial((1, 0))
    y = Polynomial.monomial((0, 1))
    q = (x + y) * (x + y)
    assert q.coefficient((2, 0)) == 1
    assert q.coefficient((1, 1)) == 2
    assert x * x == Polynomial.monomial((2, 0))
    assert q.scale(3).coefficient((1, 1)) == 6
    assert set(q.reduce(2).support()) == {(2, 0), (0, 2)}


# --- graded symbols (j) ------------------------------------------------------


def test_j_map_paper_symbols(g2):
    for p in (11, 13):
        adj = h0(g2, (0, 1), p, 10000)
        a1 = adj.xi((0, 0, 1, 0, 1, 0))
        a2 = adj.xi((0, 1, 0, 0, 1, 0))
        assert j_map(adj, a1, 2) == Polynomial.monomial((0, 0, 1, 0, 1, 0))
        assert j_map(adj, a2, 2) == Polynomial.monomial((0, 1, 0, 0, 1, 0))
        fund = h0(g2, (1, 0), p, 10000)
        vp = fund.xi((1, 0, 0, 0, 0, 1))
        assert j_map(fund, vp, 2) == Polynomial.monomial((1, 0, 0, 0, 0, 1))


def test_j_map_shape_every_essential(g2):
    """Leading coefficient 1 at s, support at equal degree and t >= s only,
    and no other essential index inside the support."""
    for weight in [(1, 0), (0, 1)]:
        sections = h0(g2, weight, 11, 10000)
        es = sections.essentials
        for s in es.indices:
            poly = j_map(sections, sections.xi(s), sum(s))
            assert poly.coefficient(s) == 1, (weight, s)
            for t in poly.support():
                assert sum(t) == sum(s), (weight, s, t)
                assert order_key(t) >= order_key(s), (weight, s, t)
                if t != s:
                    assert t not in es, (weight, s, t)


def test_j_map_rejects_lower_degree_component(g2):
    sections = h0(g2, (1, 0), 11, 10000)
    xi = sections.xi((0, 0, 0, 0, 0, 0))    # a degree-0 essential component
    with pytest.raises(ValueError):
        j_map(sections, xi, 1)


def test_j_map_skips_higher_degree_components(g2):
    """Components above the requested degree belong to deeper filtration
    levels and do not contribute to the degree-n symbol."""
    sections = h0(g2, (1, 0), 11, 10000)
    lo = sections.xi((1, 0, 0, 0, 0, 0))
    hi = sections.xi((1, 0, 0, 0, 0, 1))
    mixed = {}
    for src in (lo, hi):
        for t, coords in src.items():
            cur = mixed.setdefault(t, [0] * len(coords))
            for i, c in enumerate(coords):
                cur[i] = (cur[i] + c) % 11
    assert j_map(sections, mixed, 1) == Polynomial.monomial((1, 0, 0, 0, 0, 0))


def _symbol_by_dual_basis(sections, xi, n):
    """The degree-n symbol read one essential index at a time: the component
    xi(F^s v), then the dual-basis element at s on every F^t v, t >= s."""
    out = {}
    for blk, coords in xi.items():
        if not any(coords):
            continue
        sweep = sections.essentials.by_block[blk]
        for s in sweep.essential:
            c = sections.pair(xi, {blk: sweep.vectors[s]})
            if not c:
                continue
            if sum(s) < n:
                raise ValueError(
                    f"functional has a component at essential degree {sum(s)}"
                    f" < {n}, so it does not lie in filtration level {n}")
            if sum(s) > n:
                continue
            xi_s = sections.essentials.dual_functional(s)
            for t in monomials_with_depth(sections.system, blk, degree=n):
                if order_key(t) < order_key(s):
                    continue
                vec = sections.module.monomial_coords(t)
                if vec is None:
                    continue
                val = sections.pair(xi_s, {blk: vec})
                if val:
                    out[t] = out.get(t, 0) + c * val
    return Polynomial(out).reduce(sections.p)


def _symbol_or_error(symbol, sections, xi, n):
    try:
        return symbol(sections, xi, n)
    except ValueError as exc:
        return str(exc)


def _plus(xi, eta):
    out = {blk: list(c) for blk, c in xi.items()}
    for blk, c in eta.items():
        out[blk] = [x + y for x, y in zip(out.get(blk, [0] * len(c)), c)]
    return out


@pytest.mark.parametrize("label, lam, p", [
    ("A2", (1, 1), 3), ("A3", (0, 1, 0), None), ("B2", (1, 1), 5),
    ("C3", (1, 0, 0), 2), ("G2", (0, 1), 11), ("G2", (1, 0), 3),
    ("A3", (1, 1, 1), 3), ("G2", (1, 1), 2), ("B3", (1, 0, 1), None)])
def test_j_map_matches_the_dual_basis_route(label, lam, p):
    """Each essential index's dual-basis element, and the sum of each pair
    of them in one block, at the degree of each index and one below: the
    same symbol, or the same rejection."""
    system = build_root_system(label)
    sections = h0(system, lam, p)
    cases = [([s], sections.xi(s)) for s in sections.essentials.indices] + [
        ([s, t], _plus(sections.xi(s), sections.xi(t)))
        for sweep in sections.essentials.by_block.values()
        for s, t in itertools.combinations(sweep.essential, 2)]
    for ss, xi in cases:
        for n in {d for s in ss for d in (sum(s), sum(s) - 1)}:
            assert (_symbol_or_error(j_map, sections, xi, n)
                    == _symbol_or_error(_symbol_by_dual_basis, sections, xi, n)), (ss, n)


def test_sections_take_the_dual_module():
    """H0(lam) is built on V(lam*): in A2, V(1,0) carries H0(0,1)."""
    a2 = build_root_system("A2")
    module = WeylModuleP.build(a2, (1, 0), 2, 100)
    sections = InducedSections(module)
    assert sections.module is module
    assert (sections.system, sections.p, sections.weight) == (a2, 2, (0, 1))


# --- products of sections ----------------------------------------------------


def test_section_product_a1_symbols():
    a1 = build_root_system("A1")
    s1 = h0(a1, (1,), None, 100)
    s2 = h0(a1, (2,), None, 100)
    xi0, xi1 = s1.xi((0,)), s1.xi((1,))
    assert section_product(s1, s1, s2, xi0, xi0) == s2.xi((0,))
    assert section_product(s1, s1, s2, xi0, xi1) == s2.xi((1,))
    assert section_product(s1, s1, s2, xi1, xi1) == s2.xi((2,))


def test_section_product_g2_square_of_top_section(g2):
    """The square of the degree-2 corner section has symbol x1^2 x6^2 with
    coefficient 1 — the multiplicativity the corner argument rests on."""
    fund = h0(g2, (1, 0), 11, 10000)
    target = h0(g2, (2, 0), 11, 10000)
    vp = fund.xi((1, 0, 0, 0, 0, 1))
    square = section_product(fund, fund, target, vp, vp)
    sym = j_map(target, square, 4)
    assert sym == Polynomial.monomial((2, 0, 0, 0, 0, 2))


def _product_by_tensor_route(a, b, target, xi, eta):
    """xi*eta through a tensor vector: Delta(F^s) applied to the tensor of
    the highest vectors, contracted block by block with xi (x) eta, then
    re-expanded in the essential dual basis of each block."""
    start = tensor_of((a.module.highest_vector(), b.module.highest_vector()))
    out = {}
    for blk, sweep in target.essentials.by_block.items():
        vals = []
        for s in sweep.essential:
            tv = tensor_act((a.module, b.module), "F", s, start)
            total = sum(x * y * v
                        for (ta, tb), block in tv.items() if ta in xi and tb in eta
                        for x, row in zip(xi[ta], block)
                        for y, v in zip(eta[tb], row))
            vals.append(target.module.reduce(total))
        if any(vals):
            mat = [sweep.vectors[s] for s in sweep.essential]
            out[blk] = solve_dense(mat, [vals], target.p)[0]
    return out


@pytest.mark.parametrize("p", [None, 2, 3, 11])
@pytest.mark.parametrize("label, lam, mu", [
    ("A1", (1,), (2,)), ("A2", (1, 0), (1, 1)), ("B2", (0, 1), (1, 0)),
    ("G2", (1, 0), (0, 1))])
def test_section_product_matches_the_tensor_route(label, lam, mu, p):
    """Products of the first and last few essential dual-basis elements,
    and of one sum of them, agree with the tensor-vector computation."""
    system = build_root_system(label)
    a, b = h0(system, lam, p), h0(system, mu, p)
    target = h0(system, tuple(x + y for x, y in zip(lam, mu)), p)

    def picks(sections):
        idx = sections.essentials.indices
        xis = [sections.xi(s) for s in idx[:2] + idx[-2:]]
        return xis + [_plus(xis[1], xis[-1])]

    for xi, eta in itertools.product(picks(a), picks(b)):
        assert (section_product(a, b, target, xi, eta)
                == _product_by_tensor_route(a, b, target, xi, eta))


def test_section_product_weight_mismatch(g2):
    fund = h0(g2, (1, 0), 11, 10000)
    bad_target = h0(g2, (1, 1), 11, 10000)
    with pytest.raises(ValueError):
        section_product(fund, fund, bad_target, fund.xi((0,) * 6),
                        fund.xi((0,) * 6))


@pytest.mark.parametrize("left,right", [("B2", "C2"), ("A2", "B2")])
def test_section_product_root_system_mismatch(left, right):
    """Sections over different root systems do not multiply: B2 x C2 into B2
    has the same shapes throughout, and A2 x B2 into A2 differs in root count
    only on the right factor."""
    a = h0(build_root_system(left), (1, 0), 3)
    b = h0(build_root_system(right), (0, 1), 3)
    target = h0(build_root_system(left), (1, 1), 3)
    top = (0,) * a.system.n_pos
    with pytest.raises(ValueError, match="common root system"):
        section_product(a, b, target, a.xi(top), b.xi((0,) * b.system.n_pos))


# --- divided differential action --------------------------------------------


def test_sn_action_single_climb(g2):
    x5 = Polynomial.monomial((0, 0, 0, 0, 1, 0))
    out = sn_divided_action(g2, 5, 1, x5)
    assert [(t, out.coefficient(t)) for t in out.support()] == [
        ((0, 0, 0, 1, 0, 0), -1)]
    # no climb from the simple-root variable or from beta2
    assert sn_divided_action(g2, 5, 1, Polynomial.monomial((0, 0, 0, 0, 0, 1))) \
        == Polynomial()
    assert sn_divided_action(g2, 5, 1, Polynomial.monomial((0, 1, 0, 0, 0, 0))) \
        == Polynomial()


def test_sn_action_witness_seed(g2):
    seed = Polynomial.monomial((1, 1, 1, 0, 2, 1))
    out = sn_divided_action(g2, 5, 1, seed)
    assert out.coefficient((1, 1, 1, 1, 1, 1)) == -2


def test_sn_action_divided_multiplicativity(g2):
    """E^(a) E^(b) = binom(a+b, a) E^(a+b) as operators on symbols."""
    poly = Polynomial.monomial((1, 1, 1, 0, 4, 1))
    for a in (1, 2):
        for b in (1, 2):
            lhs = sn_divided_action(g2, 5, a, sn_divided_action(g2, 5, b, poly))
            rhs = sn_divided_action(g2, 5, a + b, poly).scale(math.comb(a + b, a))
            assert lhs == rhs, (a, b)


def test_sn_action_rejects_monomials_off_the_root_count(g2):
    """A monomial needs one exponent per positive root, none dropped or
    missing."""
    for bad in ((0, 0, 0, 0, 1, 0, 7), (0, 0, 0, 1, 0)):
        with pytest.raises(ValueError, match="does not have the root count 6"):
            sn_divided_action(g2, 5, 1, Polynomial.monomial(bad))


def test_sn_action_rejects_non_integral_chain_coefficient(g2, monkeypatch):
    """With every structure constant forced to 1, a root string of length
    three along the short simple root gives (ad E)^2 / 2! = 1/2: a named
    error, not a silent Fraction."""
    monkeypatch.setattr(g2, "structure_constant", lambda a, b: 1)
    with pytest.raises(InvariantError,
                       match="divided chain coefficient 1/2 .* is not integral"):
        sn_divided_action(g2, 5, 1, Polynomial.monomial((0, 0, 0, 0, 1, 0)))
