"""Exact linear algebra over Q, Z and GF(p).

Everything in here is exact: arbitrary-precision integer rows, or ints
reduced mod a prime. No floating point. Every matrix eliminated here is
integral; a solve inverts it once as an integer pair (d, X) with
mat @ X = d * I, so a Fraction appears only as the solution over Q.
There is one rank engine per field, ``RowSpaceQQ`` over Q and
``RowSpaceGF`` over GF(p), and both take a row as a dense sequence of ints,
entry c in column c and zero past its end. Over Q they keep primitive
integer lists; over GF(p) they pack each row into one int of fixed-width
lanes, one lane per column, and store each pivot shifted so that its
leading lane sits at bit 0: a reduction step is one multiply-add and one
shift on a row that shrinks as its low lanes clear. ``Lanes`` is the one
codec of such ints, shared with the tensor filtration, which builds its
spanning vectors as packed lanes. Dense matrices are lists of row lists.
"""
from __future__ import annotations

import copy
import struct
from fractions import Fraction
from itertools import islice, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple

# struct codes of the lane widths, in bytes, that struct packs whole; wider
# lanes go through int.to_bytes one lane at a time
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


def lane_bytes(bound: int) -> int:
    """The narrowest of 1, 2, 4, 8, 16, ... bytes that holds ``bound`` >= 0."""
    width = 1
    while bound >> (8 * width):
        width *= 2
    return width


class Lanes:
    """A sequence of ints as one int of fixed-width lanes: entry i in bits
    [i*bits, (i+1)*bits), ``nbytes`` bytes per lane.

    ``pack`` and ``unpack`` take lanes in [0, 2**bits). ``encode`` and
    ``decode`` take signed entries of absolute value below ``half``, 2**(bits
    - 1), written as the plain sum of v_i * 2**(i*bits): sums and products of
    encoded ints encode the sums and convolutions of their entries, so long as
    every entry of the result stays below ``half``. Decoding biases every lane
    by ``half``, which puts it in [0, 2**bits), unpacks and takes the bias
    off; no lane borrows from the next.
    """

    def __init__(self, nbytes: int):
        self.nbytes = nbytes
        self.bits = 8 * nbytes
        self.half = 1 << (self.bits - 1)
        self._half_lane = self.half.to_bytes(nbytes, "little")
        self._code = _LANE_CODES.get(nbytes)

    @classmethod
    def signed(cls, bound: int) -> "Lanes":
        """The narrowest lanes whose ``encode`` and ``decode`` hold every
        entry of absolute value at most ``bound``."""
        return cls(lane_bytes(2 * bound))

    def pack(self, lanes: Sequence[int]) -> int:
        if self._code is None:
            width = self.nbytes
            return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in lanes),
                                  "little")
        return int.from_bytes(struct.pack(f"<{len(lanes)}{self._code}", *lanes), "little")

    def unpack(self, x: int, n: int | None = None) -> Sequence[int]:
        """The first n lanes of x, lowest first; all of them when n is None."""
        width = self.nbytes
        if n is None:
            n = -(-x.bit_length() // self.bits)
        raw = x.to_bytes(n * width, "little")
        if self._code is None:
            return [int.from_bytes(raw[i:i + width], "little")
                    for i in range(0, len(raw), width)]
        return struct.unpack(f"<{n}{self._code}", raw)

    def _bias(self, n: int) -> int:
        """``half`` in each of n lanes."""
        return int.from_bytes(self._half_lane * n, "little")

    def encode(self, values: Sequence[int]) -> int:
        return self.pack([v + self.half for v in values]) - self._bias(len(values))

    def decode(self, x: int, n: int, p: int | None = None) -> List[int]:
        """The n entries ``encode`` wrote into x, reduced into [0, p) when p
        is given."""
        half = self.half
        lanes = self.unpack(x + self._bias(n), n)
        if p is None:
            return [v - half for v in lanes]
        return [(v - half) % p for v in lanes]


class RowSpaceGF:
    """Incremental row space over GF(p); each row is packed into one int.

    Entry c of a row sits in lane c, bits [c*B, (c+1)*B) of a nonnegative
    int. A lane is twice as wide as the narrowest of 1, 2, 4, 8, 16, ...
    bytes that holds p - 1, so it holds a reduced entry plus at least one
    product (p - 1)**2 below 2**B. ``pivots`` maps each leading column c to
    its packed row, in insertion order, stored from its leading lane: lane
    c sits at bit 0 and holds 1, and every lane is reduced into [0, p).

    Reduction eliminates the lowest nonzero lane first, with the row shifted
    so that this lane sits at bit 0: with f its value mod p and piv the
    pivot of its column, lane 0 of x + (p - f) * piv is a multiple of p, so
    that sum shifted one lane right is the reduced row, one lane shorter.
    Only the lane read is reduced; every other lane grows by at most
    (p - 1)**2 per step, and never falls. After ``budget`` steps, the most
    that can pass with every lane below 2**B, the whole row is normalised
    mod p, so no lane ever carries into the next, the one being dropped
    included.
    """

    def __init__(self, p: int):
        self.p = p
        self.lanes = Lanes(2 * lane_bytes(p - 1))
        self.lane_bits = bits = self.lanes.bits
        # (p - 1) + budget * (p - 1)**2 < 2**bits: the most steps between normalisations
        self.budget = ((1 << bits) - p) // (p - 1) ** 2
        self.pivots: Dict[int, int] = {}

    def _lanes(self, x: int) -> Sequence[int]:
        """The lanes of a packed row, lowest column first."""
        return self.lanes.unpack(x)

    def _normalised(self, x: int, scale: int = 1) -> int:
        """x with every lane multiplied by ``scale`` and reduced into [0, p)."""
        p = self.p
        return self.lanes.pack([v * scale % p for v in self._lanes(x)])

    def _packed(self, row: Sequence[int]) -> int:
        p = self.p
        return self.lanes.pack([v % p for v in row])

    def _reduce(self, x: int) -> Tuple[int, int]:
        """(c, y): y is 0 if x lies in the span; else x reduced until its
        lowest lane nonzero mod p, column c, has no pivot, and shifted so
        that lane c sits at bit 0."""
        p, bits, pivots = self.p, self.lane_bits, self.pivots
        mask = (1 << bits) - 1
        left = self.budget
        c = 0
        while x:
            v = x & mask
            if not v:
                low = ((x & -x).bit_length() - 1) // bits
                x >>= low * bits
                c += low
                v = x & mask
            f = v % p
            if f:
                piv = pivots.get(c)
                if piv is None:
                    return c, x
                x = (x + (p - f) * piv) >> bits
                left -= 1
                if not left:
                    x = self._normalised(x)
                    left = self.budget
            else:
                x >>= bits
            c += 1
        return c, 0

    def insert(self, row: Sequence[int]) -> bool:
        """Add a row; True if it enlarged the space."""
        c, x = self._reduce(self._packed(row))
        if not x:
            return False
        lead = (x & ((1 << self.lane_bits) - 1)) % self.p
        self.pivots[c] = self._normalised(x, pow(lead, -1, self.p))
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not self._reduce(self._packed(row))[1]

    @property
    def rank(self) -> int:
        return len(self.pivots)


class RowSpaceQQ:
    """Incremental row space over Q, kept fraction-free.

    Rows are stored as primitive integer lists; ``pivots`` maps each leading
    column to its row, in insertion order, with a positive leading entry.
    Reduction is by cross-multiplication (a*vec - b*piv), with a gcd strip
    before each step to control growth.
    """

    def __init__(self) -> None:
        self.pivots: Dict[int, List[int]] = {}

    def _reduce(self, row: Sequence[int]) -> List[int]:
        """[] if row lies in the span, else row reduced to a primitive list
        whose leading column has no pivot."""
        vec, c = list(row), 0
        while True:
            while c < len(vec) and not vec[c]:
                c += 1
            if c == len(vec):
                return []
            g = gcd(*vec)
            if g > 1:
                vec = [v // g for v in vec]
            piv = self.pivots.get(c)
            if piv is None:
                return vec
            a, b = piv[c], vec[c]
            vec = [a * x - b * y for x, y in zip_longest(vec, piv, fillvalue=0)]

    def insert(self, row: Sequence[int]) -> bool:
        """Add a row; True if it enlarged the space."""
        red = self._reduce(row)
        if not red:
            return False
        c = next(i for i, v in enumerate(red) if v)
        self.pivots[c] = red if red[c] > 0 else [-v for v in red]
        return True

    def contains(self, row: Sequence[int]) -> bool:
        return not self._reduce(row)

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

    One ``RowSpaceQQ`` insert per row. The pivot columns of any echelon form
    of the matrix are the leading columns of every echelon basis of its row
    space, so they are the space's pivot columns, in ascending order.
    """
    space = RowSpaceQQ()
    for row in mat:
        space.insert(row)
    return space.rank, sorted(space.pivots)


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
