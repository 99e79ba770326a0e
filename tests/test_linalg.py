"""Exact linear algebra: row spaces, solvers, and integer lattices."""

import random
from fractions import Fraction

import pytest

from weylpbw.linalg import (
    RowSpaceGF,
    RowSpaceQQ,
    ScaledLattice,
    hnf_rows,
    pivot_prefix,
    rank_dense,
    row_space,
    solve_dense,
    xgcd,
)


def test_xgcd():
    for a, b in [(12, 18), (0, 5), (5, 0), (-4, 6), (7, 13)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def test_row_space_gf_rank_and_membership():
    sp = RowSpaceGF(5)
    assert sp.insert([1, 2])
    assert sp.insert([0, 1, 1])
    assert not sp.insert([1, 3, 1])   # sum of the first two
    assert sp.rank == 2
    assert sp.contains([2, 4])
    assert sp.contains([])
    assert not sp.contains([0, 0, 1])


def test_row_space_gf_reduces_mod_p():
    sp = RowSpaceGF(3)
    assert sp.insert([3, 1])   # == (0, 1) mod 3
    assert sp.contains([0, 2])
    assert not sp.contains([1])


def test_row_space_qq():
    sp = RowSpaceQQ()
    assert sp.insert([3, 2])
    assert not sp.insert([9, 6])         # scalar multiple
    assert sp.insert([1])
    assert sp.rank == 2
    assert sp.contains([7, 10])


@pytest.mark.parametrize("p", [None, 2, 3, 251])
def test_row_space_rows_are_zero_past_their_end(p):
    """A row is zero past its end: trailing zeros name the same vector, rows
    of different widths share one space, and zero rows add nothing."""
    sp = row_space(p)
    assert sp.contains([]) and sp.contains([0, 0, 0])
    assert not sp.insert([]) and not sp.insert([0, 0, 0, 0])
    assert sp.rank == 0
    assert sp.insert([1, 2])
    assert not sp.insert([1, 2, 0, 0])
    assert sp.contains([1, 2, 0, 0, 0])
    assert sp.insert([0, 1, 0, 0, 1])          # wider than the first row
    assert sp.contains([1, 3, 0, 0, 1])
    assert not sp.contains([0, 0, 0, 0, 0, 1])
    assert sp.insert([0, 0, 1])                # narrower than the last
    assert sp.contains([1, 3, 1, 0, 1, 0, 0])
    assert not sp.contains([1, 2, 1, 0, 1])
    assert not sp.insert([]) and not sp.insert([0] * 9)
    assert sp.rank == 3
    assert sp.contains([]) and sp.contains([0] * 9)


def test_row_space_factory():
    assert isinstance(row_space(None), RowSpaceQQ)
    assert isinstance(row_space(7), RowSpaceGF)


@pytest.mark.parametrize("p", [2, 3, None])
def test_pivot_prefix_spans_the_first_rank_raising_vectors(p):
    """The first k pivots span exactly the first k vectors whose insert
    raised the rank, checked against a fresh space of those vectors."""
    rng = random.Random(p)
    space = row_space(p)
    raising = []
    for _ in range(40):
        vec = [0] * 8
        for c in rng.sample(range(8), rng.randint(1, 4)):
            vec[c] = rng.randint(-2, 2)
        if space.insert(vec):
            raising.append(vec)
    assert space.rank == len(raising) >= 4
    probes = [[rng.randint(-2, 2) for c in range(8)] for _ in range(30)]
    for j in range(1, len(raising) + 1):        # a combination that needs raising[j - 1]
        combo = [0] * 8
        for i, vec in enumerate(raising[:j]):
            f = 1 if i == j - 1 else rng.randint(-2, 2)
            combo = [x + f * v for x, v in zip(combo, vec)]
        probes.append(combo)
    for k in range(len(raising) + 2):
        fresh = row_space(p)
        for vec in raising[:k]:
            fresh.insert(vec)
        sub = pivot_prefix(space, k)
        assert sub.rank == fresh.rank == min(k, len(raising))
        for vec in raising + probes:
            assert sub.contains(vec) == fresh.contains(vec)
    assert pivot_prefix(space, 0).pivots == {}
    assert space.rank == len(raising)           # the prefix changed nothing


def test_solve_dense_round_trip():
    sols = solve_dense([[2, 1], [1, 1]], [[3, 2]])
    assert sols == [[Fraction(1), Fraction(1)]]


def test_solve_dense_singular():
    with pytest.raises(ValueError, match="singular"):
        solve_dense([[1, 1], [2, 2]], [[1, 3]])
    with pytest.raises(ValueError, match="singular"):   # invertible over Q, determinant 5
        solve_dense([[1, 1], [1, 6]], [[1, 3]], p=5)


def test_solve_mod_p():
    assert solve_dense([[2, 1], [1, 1]], [[3, 2]], p=5) == [[1, 1]]


def test_rank_dense_pivots():
    rank, pivots = rank_dense([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank == 2
    assert pivots == [0, 1]
    assert rank_dense([[0, 2, 1], [0, 4, 3], [0, 0, 0]]) == (2, [1, 2])
    assert rank_dense([]) == (0, [])
    assert rank_dense([[0, 0], [0, 0]]) == (0, [])


def test_hnf_rows():
    assert hnf_rows([(2, 4), (6, 8)], 2) == [(2, 0), (0, 4)]
    assert hnf_rows([(1, 2, 3), (2, 4, 6), (0, 0, 5)], 3) == [(1, 2, 3), (0, 0, 5)]


def test_scaled_lattice_finalize():
    sl = ScaledLattice(2)
    sl.insert([1, 0], 2)  # (1/2, 0)
    sl.insert([1, 1], 3)  # (1/3, 1/3)
    denom, basis = sl.finalize()
    assert denom == 6
    assert basis == [(1, 4), (0, 6)]
    # every inserted vector is an integer combination of basis / denom
    # (1/2, 0) * 6 = (3, 0) = (1,4)*3 - (0,6)*2
    assert (3, 0) == tuple(3 * b - 2 * c for b, c in zip(*basis))
