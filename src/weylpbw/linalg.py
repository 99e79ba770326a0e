"""Exact linear algebra over Q, Z and GF(p).

Everything in here is exact: arbitrary-precision integer rows, or ints
reduced mod a prime. No floating point. Every matrix eliminated here is
integral; a solve inverts it once as an integer pair (d, X) with
mat @ X = d * I, so a Fraction appears only as the solution over Q.
Sparse vectors are dicts keyed by column index; dense matrices are lists
of row lists.
"""
from __future__ import annotations

import copy
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

Row = Dict[int, int]


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class RowSpaceGF:
    """Incremental row space over GF(p); rows are sparse dicts, pivot value 1."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: Dict[int, Row] = {}

    def _reduce(self, vec: Row) -> Row:
        p = self.p
        vec = {c: v % p for c, v in vec.items() if v % p}
        while vec:
            c = min(vec)
            piv = self.pivots.get(c)
            if piv is None:
                return vec
            f = vec[c]
            for cc, vv in piv.items():
                nv = (vec.get(cc, 0) - f * vv) % p
                if nv:
                    vec[cc] = nv
                else:
                    vec.pop(cc, None)
        return vec

    def insert(self, vec: Row) -> bool:
        """Add a vector; True if it enlarged the space."""
        red = self._reduce(dict(vec))
        if not red:
            return False
        c = min(red)
        inv = pow(red[c], -1, self.p)
        self.pivots[c] = {cc: (vv * inv) % self.p for cc, vv in red.items()}
        return True

    def contains(self, vec: Row) -> bool:
        return not self._reduce(dict(vec))

    @property
    def rank(self) -> int:
        return len(self.pivots)


class RowSpaceQQ:
    """Incremental row space over Q, kept fraction-free.

    Rows are stored as primitive integer vectors; a rational vector spans the
    same line as its cleared-denominator integer vector, so rank and
    membership agree with the Q-span. Reduction is by cross-multiplication
    (a*vec - b*piv), with a gcd strip after each step to control growth.
    """

    def __init__(self) -> None:
        self.pivots: Dict[int, Row] = {}

    @staticmethod
    def _primitive(vec: Row) -> Row:
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        if g > 1:
            return {c: v // g for c, v in vec.items()}
        return vec

    def _reduce(self, vec: Row) -> Row:
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            c = min(vec)
            piv = self.pivots.get(c)
            if piv is None:
                return self._primitive(vec)
            a, b = piv[c], vec[c]
            new: Row = {}
            for cc in set(vec) | set(piv):
                v = a * vec.get(cc, 0) - b * piv.get(cc, 0)
                if v:
                    new[cc] = v
            vec = self._primitive(new)
        return vec

    def insert(self, vec: Row) -> bool:
        red = self._reduce(dict(vec))
        if not red:
            return False
        c = min(red)
        if red[c] < 0:
            red = {cc: -vv for cc, vv in red.items()}
        self.pivots[c] = red
        return True

    def contains(self, vec: Row) -> bool:
        return not self._reduce(dict(vec))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def row_space(p: int | None):
    """Rank/membership engine for the given scalar field (None means Q)."""
    return RowSpaceQQ() if p is None else RowSpaceGF(p)


def pivot_prefix(space, k: int):
    """The row space of the first k pivots ``space`` stored, over its field.

    An insert that raises the rank stores one pivot under a new leading
    column and never changes it, so the pivots keep their insertion order
    and the first k of them span exactly the first k rank-raising vectors.
    Rows with distinct leading columns reduce as an echelon basis, so the
    result's ``contains`` decides membership in that span. The rows are
    shared with ``space``, not copied.
    """
    sub = copy.copy(space)
    sub.pivots = dict(islice(space.pivots.items(), k))
    return sub


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    """The exact product a @ b of two dense matrices."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def solve_dense(mat: Sequence[Sequence[int]], rhs_cols: Sequence[Sequence],
                p: int | None = None) -> List[List]:
    """Solve mat @ X = rhs for a square integer mat; rhs given column-wise.

    X = adj @ rhs / d from the integer pair (d, adj) of ``inverse_pair``.
    Over Q (p None) the entries are Fractions and rhs may be rational; over
    GF(p) they are ints in [0, p). d is the least denominator of mat^-1, so
    mat is singular mod p exactly when p divides d. Returns the solution
    column-wise. Raises ValueError('singular matrix') when mat is not
    invertible over the field.
    """
    den, adj = inverse_pair(mat)
    cols = mat_mul(rhs_cols, list(zip(*adj)))   # (adj @ rhs)^T
    if p is None:
        return [[Fraction(v, den) for v in col] for col in cols]
    if den % p == 0:
        raise ValueError("singular matrix")
    inv = pow(den, -1, p)
    return [[v * inv % p for v in col] for col in cols]


def inverse_pair(mat: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(d, X) with mat @ X = d * I, for a square integer matrix.

    d is the least positive integer that makes d * mat^-1 integral, so
    gcd(d, X) = 1. One fraction-free Gauss-Jordan pass (Bareiss) over
    [mat | I]: each step divides exactly by the previous pivot, the left half
    ends as det(mat) * I and the right half as the adjugate, which is then
    divided by its common factor with the determinant. Raises
    ValueError('singular matrix') when mat is not invertible.
    """
    n = len(mat)
    rows = [[*row, *(int(c == r) for c in range(n))] for r, row in enumerate(mat)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        pv = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
    g = gcd(prev, *(v for row in rows for v in row[n:])) * (1 if prev > 0 else -1)
    return prev // g, [[v // g for v in row[n:]] for row in rows]


def rank_dense(mat: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """Exact rank and pivot-column list of a rectangular integer matrix.

    The rows are reduced to echelon form by fraction-free Bareiss steps;
    every division by the previous pivot is exact.
    """
    if not mat:
        return 0, []
    rows = [list(r) for r in mat]
    nrows, ncols = len(rows), len(rows[0])
    pivots: List[int] = []
    prev = 1
    r0 = 0
    for col in range(ncols):
        piv = next((r for r in range(r0, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        top = rows[r0]
        pv = top[col]
        for r in range(r0 + 1, nrows):
            row = rows[r]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (pv * row[c] - f * top[c]) // prev
            row[col] = 0
        prev = pv
        pivots.append(col)
        r0 += 1
        if r0 == nrows:
            break
    return len(pivots), pivots


def hnf_rows(rows: Iterable[Sequence[int]], width: int) -> List[Tuple[int, ...]]:
    """Row-style Hermite normal form of the integer row span.

    Pivots positive, entries above each pivot reduced into [0, pivot), rows
    ordered by pivot column. The result is the canonical basis of the span.
    """
    piv: Dict[int, List[int]] = {}
    for raw in rows:
        vec = list(raw)
        while True:
            c = next((i for i in range(width) if vec[i]), None)
            if c is None:
                break
            if c not in piv:
                if vec[c] < 0:
                    vec = [-v for v in vec]
                piv[c] = vec
                break
            base = piv[c]
            g, x, y = xgcd(base[c], vec[c])
            fb, fv = base[c] // g, vec[c] // g
            comb = [x * base[i] + y * vec[i] for i in range(width)]
            vec = [fb * vec[i] - fv * base[i] for i in range(width)]
            piv[c] = comb
    cols = sorted(piv)
    basis = [piv[c] for c in cols]
    # Reduce entries above each pivot to the canonical range.
    for j, c in enumerate(cols):
        pv = basis[j][c]
        for i in range(j):
            q = basis[i][c] // pv
            if q:
                basis[i] = [basis[i][k] - q * basis[j][k] for k in range(width)]
    return [tuple(r) for r in basis]


class ScaledLattice:
    """Z-lattice inside Q^width spanned by generators row / den, row integral.

    finalize() returns (den, HNF rows of den * L), den the least positive
    integer that makes den * L integral.
    """

    def __init__(self, width: int):
        self.width = width
        self._gens: List[Tuple[Sequence[int], int]] = []

    def insert(self, row: Sequence[int], den: int = 1) -> None:
        """Add the generator row / den."""
        self._gens.append((row, den))

    def finalize(self) -> Tuple[int, List[Tuple[int, ...]]]:
        den = lcm(1, *(d for _, d in self._gens))
        rows = hnf_rows(([v * (den // d) for v in row] for row, d in self._gens),
                        self.width)
        if not rows:
            return 1, []
        g = gcd(den, *(v for r in rows for v in r))
        if g > 1:
            return den // g, [tuple(v // g for v in r) for r in rows]
        return den, rows
