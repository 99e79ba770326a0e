"""Property tests of the exact kernels against an independent oracle (sympy).

Hypothesis and sympy are test-only dependencies; the module is skipped when
either is missing.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from weylpbw.charzero import _mat_vec  # noqa: E402
from weylpbw.linalg import rank_dense  # noqa: E402

small_ints = st.integers(-4, 4)
entries = st.one_of(small_ints, st.fractions(-3, 3, max_denominator=5))


def _mixed(draw, value: Fraction):
    """Return an integral value as int or Fraction, as the caller's data might."""
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    return Fraction(value)


@st.composite
def rectangular_matrices(draw):
    """Matrices of rank <= k as a product, with some rows and columns zeroed."""
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
            row.append(_mixed(draw, v))
        mat.append(row)
    return mat


def _sympy(mat):
    return sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                          for v in row] for row in mat])


@settings(deadline=None, max_examples=200)
@given(rectangular_matrices())
def test_rank_dense_matches_sympy(mat):
    oracle = _sympy(mat)
    rank, pivots = rank_dense(mat)
    assert rank == oracle.rank()
    assert pivots == list(oracle.rref()[1])


@st.composite
def matrix_and_vector(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    mat = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows))
    vec = draw(st.lists(st.one_of(st.just(0), entries), min_size=ncols, max_size=ncols))
    return mat, vec


@settings(deadline=None, max_examples=200)
@given(matrix_and_vector())
def test_sparse_mat_vec_matches_dense_definition(case):
    mat, vec = case
    dense = [sum((Fraction(row[c]) * vec[c] for c in range(len(vec))), Fraction(0))
             for row in mat]
    got = _mat_vec(mat, vec)
    assert got == dense
    assert all(type(v) is Fraction for v in got)
