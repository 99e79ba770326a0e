"""Finite root systems with a pinned Chevalley sign convention.

Cartan matrices use the convention A[i][j] = <alpha_j, alpha_i^vee>, so row i
is the i-th simple coroot paired against the simple roots. Roots are stored
as integer coordinate tuples over the simple roots; weights as integer
tuples of fundamental-weight coordinates.

Positive roots are listed in strictly height-decreasing order, ties broken
reverse-lexicographically on the coordinate tuple (larger last coordinate
first). For G2 this reproduces the order 3a1+2a2, 3a1+a2, 2a1+a2, a1+a2,
a2, a1 that the rest of the package is pinned to. The simple roots always
come last, which the monomial enumeration in ``pbw`` relies on.

Structure constants N[a,b] with [E_a, E_b] = N[a,b] E_{a+b} are fixed by the
extraspecial-pair convention: positive roots are scanned in increasing
(height, lex) order, and for each non-simple positive root the special pair
with the least first member gets the positive sign N = p+1. All other
constants are forced from those by the Jacobi identity and the standard
reflection rules, with every division checked exact. ``charzero`` splits
each root along its extraspecial pair too. A Cartan matrix is validated
once, in integers, when a ``RootSystem`` is built from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from numbers import Rational
from typing import Dict, Optional, Sequence, Tuple

Coords = Tuple[int, ...]
Weight = Tuple[int, ...]

RANK_CAP = 4  # largest rank accepted; beyond it a ResourceCapError
_HEIGHT_CAP = 64  # safety stop for the closure loop; finite type never nears it


class CartanMatrixError(ValueError):
    """Raised when an input matrix violates a Cartan-matrix axiom."""


class ResourceCapError(RuntimeError):
    """Raised when a requested computation exceeds a configured cap."""


class InvariantError(AssertionError):
    """Raised when a mathematical invariant of a construction fails.

    Unlike a bare ``assert`` it is not stripped by ``python -O``; it
    subclasses AssertionError so existing handlers still catch it.
    """


_LABEL_MATRICES: Dict[str, Tuple[Tuple[int, ...], ...]] = {
    "G2": ((2, -3), (-1, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


def _series_matrix(series: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    if series == "A" and rank >= 1:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2
            if i + 1 < rank:
                rows[i][i + 1] = -1
                rows[i + 1][i] = -1
        return tuple(tuple(r) for r in rows)
    if series in ("B", "C") and rank >= 2:
        rows = [list(r) for r in _series_matrix("A", rank)]
        if series == "B":
            rows[rank - 1][rank - 2] = -2
        else:
            rows[rank - 2][rank - 1] = -2
        return tuple(tuple(r) for r in rows)
    if series == "D" and rank >= 4:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2
        for i in range(rank - 2):
            rows[i][i + 1] = rows[i + 1][i] = -1
        rows[rank - 3][rank - 1] = rows[rank - 1][rank - 3] = -1
        return tuple(tuple(r) for r in rows)
    raise CartanMatrixError(f"unsupported type label {series}{rank}")


@dataclass(frozen=True)
class CartanData:
    """A Cartan matrix plus an optional label; ``RootSystem`` validates it."""

    matrix: Tuple[Tuple[int, ...], ...]
    label: Optional[str] = None

    @staticmethod
    def from_label(label: str) -> "CartanData":
        """The Cartan data of a type label; the rank is a number, so b03 is B3."""
        label = label.strip().upper()
        series, rank = label[:1], label[1:]
        if not rank.isdecimal():
            raise CartanMatrixError(f"unknown type label {label!r}")
        name = series + str(int(rank))
        if name in _LABEL_MATRICES:
            return CartanData(_LABEL_MATRICES[name], name)
        if series == "G":
            raise CartanMatrixError("type G exists only in rank 2")
        if series in "ABCD":
            return CartanData(_series_matrix(series, int(rank)), name)
        raise CartanMatrixError(f"unknown type label {label!r}")

    @staticmethod
    def from_matrix(rows: Sequence[Sequence[int]], label: Optional[str] = None) -> "CartanData":
        return CartanData(tuple(tuple(int(v) for v in r) for r in rows), label)


def _validate_cartan(mat: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Check the Cartan-matrix axioms; the symmetrizer d of ``_symmetrizer``."""
    n = len(mat)
    if n == 0 or any(len(r) != n for r in mat):
        raise CartanMatrixError("axiom 'square': matrix must be square and nonempty")
    for i in range(n):
        if mat[i][i] != 2:
            raise CartanMatrixError(f"axiom 'diagonal=2': entry ({i},{i}) is {mat[i][i]}")
        for j in range(n):
            if i != j and mat[i][j] > 0:
                raise CartanMatrixError(f"axiom 'offdiag<=0': entry ({i},{j}) is {mat[i][j]}")
            if i != j and (mat[i][j] == 0) != (mat[j][i] == 0):
                raise CartanMatrixError(f"axiom 'zero-symmetry': entries ({i},{j}),({j},{i})")
    d = _symmetrizer(mat)
    # Finite type: D A is positive definite, i.e. its leading minors, the
    # pivots of fraction-free (Bareiss) elimination, are all positive.
    work = [[d[i] * v for v in row] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        if work[k][k] <= 0:
            raise CartanMatrixError("axiom 'finite-type': symmetrization not positive definite")
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                work[r][c] = (work[k][k] * work[r][c] - work[r][k] * work[k][c]) // prev
        prev = work[k][k]
    return d


def _symmetrizer(mat: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Positive integers d with d_i * a_ij symmetric; minimal on each component.
    A component is walked in integers, scaled up where a_ij / a_ji is not integral."""
    n = len(mat)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start], comp = 1, [start]
        for i in comp:
            for j in range(n):
                if mat[i][j] and not d[j]:
                    num, den = d[i] * mat[i][j], mat[j][i]
                    scale = abs(den) // gcd(num, den)
                    for k in comp:
                        d[k] *= scale
                    d[j] = num * scale // den
                    comp.append(j)
        g = gcd(*(d[k] for k in comp))
        for k in comp:
            d[k] //= g
    if any(d[i] * mat[i][j] != d[j] * mat[j][i] for i in range(n) for j in range(n)):
        raise CartanMatrixError("axiom 'symmetrizable': inconsistent ratios")
    return tuple(d)


def _height(c: Coords) -> int:
    return sum(c)


def _add(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Coords, b: Coords) -> Coords:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Coords) -> Coords:
    return tuple(-x for x in a)


class RootSystem:
    """Positive roots, Chevalley constants, and weight utilities for one type."""

    def __init__(self, cartan: CartanData):
        self.d = _validate_cartan(cartan.matrix)
        self.cartan = cartan
        self.A = cartan.matrix
        self.rank = len(self.A)
        if self.rank > RANK_CAP:
            raise ResourceCapError(f"rank {self.rank} exceeds cap {RANK_CAP}")
        self._close_roots()
        self.positive_roots: Tuple[Coords, ...] = self._descending_height_order()
        self.n_pos = len(self.positive_roots)
        self.pos_index = {b: k for k, b in enumerate(self.positive_roots)}
        if cartan.label == "G2":
            expected = ((3, 2), (3, 1), (2, 1), (1, 1), (0, 1), (1, 0))
            if self.positive_roots != expected:
                raise InvariantError("G2 root order convention broken")
        simples = {tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)}
        if set(self.positive_roots[self.n_pos - self.rank:]) != simples:
            raise InvariantError("the last rank positive roots must be the simple roots")
        self._build_structure_constants()

    # -- root enumeration ---------------------------------------------------

    def _close_roots(self) -> None:
        simples = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        found = set(simples)
        frontier = list(simples)
        height = 1
        while frontier:
            height += 1
            if height > _HEIGHT_CAP:
                raise CartanMatrixError("axiom 'finite-type': closure did not terminate")
            nxt = []
            for beta in frontier:
                # <beta, alpha_i^vee> for every i, from row i of the Cartan matrix
                pairs = self.root_weight_coords(beta)
                for i, alpha in enumerate(simples):
                    p = 0
                    while _sub(beta, tuple(v * (p + 1) for v in alpha)) in found:
                        p += 1
                    if p - pairs[i] > 0:
                        cand = _add(beta, alpha)
                        if cand not in found:
                            found.add(cand)
                            nxt.append(cand)
            frontier = nxt
        self._pos_set = found
        self._all_roots = found | {_neg(b) for b in found}

    def _descending_height_order(self) -> Tuple[Coords, ...]:
        def key(b: Coords):
            return (-_height(b), tuple(-c for c in reversed(b)))

        return tuple(sorted(self._pos_set, key=key))

    # -- bilinear form ------------------------------------------------------

    def bilinear(self, a: Coords, b: Coords) -> int:
        total = 0
        for i in range(self.rank):
            if a[i]:
                for j in range(self.rank):
                    if b[j]:
                        total += a[i] * b[j] * self.d[i] * self.A[i][j]
        return total

    def norm(self, b: Coords) -> int:
        return self.bilinear(b, b)

    def coroot_coords(self, b: Coords) -> Coords:
        nn = self.norm(b)
        out = []
        for i in range(self.rank):
            num = 2 * self.d[i] * b[i]
            if num % nn:
                raise InvariantError("coroot coordinates must be integral")
            out.append(num // nn)
        return tuple(out)

    def root_weight_coords(self, b: Coords) -> Weight:
        return tuple(sum(self.A[i][j] * b[j] for j in range(self.rank)) for i in range(self.rank))

    def is_positive_root(self, c: Coords) -> bool:
        return c in self._pos_set

    def height(self, b: Coords) -> int:
        return _height(b)

    # -- structure constants ------------------------------------------------

    def _p_value(self, a: Coords, b: Coords) -> int:
        p = 0
        cur = _sub(b, a)
        while cur in self._all_roots:
            p += 1
            cur = _sub(cur, a)
        return p

    def _build_structure_constants(self) -> None:
        carter = sorted(self._pos_set, key=lambda b: (_height(b), b))
        ckey = {b: i for i, b in enumerate(carter)}
        table: Dict[Tuple[Coords, Coords], int] = {}
        self._npos = table
        self._extraspecial: Dict[Coords, Tuple[Coords, Coords]] = {}

        def nfull(a: Coords, b: Coords) -> int:
            return self._resolve_constant(a, b)

        for zeta in carter:
            if _height(zeta) < 2:
                continue
            pairs = []
            for a in carter:
                b = _sub(zeta, a)
                if b in self._pos_set and ckey[a] < ckey[b]:
                    pairs.append((a, b))
            pairs.sort(key=lambda ab: ckey[ab[0]])
            a0, b0 = self._extraspecial[zeta] = pairs[0]
            n0 = self._p_value(a0, b0) + 1
            table[(a0, b0)] = n0
            table[(b0, a0)] = -n0
            for xi, eta in pairs[1:]:
                t1 = t2 = 0
                if _sub(xi, a0) in self._all_roots:
                    t1 = nfull(_neg(a0), xi) * nfull(_sub(xi, a0), eta)
                if _sub(eta, a0) in self._all_roots:
                    t2 = nfull(eta, _neg(a0)) * nfull(_sub(eta, a0), xi)
                dnm = nfull(zeta, _neg(a0))
                n, rem = divmod(-(t1 + t2), dnm)
                if rem:
                    raise InvariantError("Jacobi propagation must stay integral")
                if abs(n) != self._p_value(xi, eta) + 1:
                    raise InvariantError("|N| must equal p+1")
                table[(xi, eta)] = n
                table[(eta, xi)] = -n

    def _resolve_constant(self, a: Coords, b: Coords) -> int:
        c = _add(a, b)
        if c not in self._all_roots:
            return 0
        apos = a in self._pos_set
        bpos = b in self._pos_set
        if apos and bpos:
            return self._npos[(a, b)]
        if not apos and not bpos:
            return -self._npos[(_neg(a), _neg(b))]
        if not apos:
            return -self._resolve_constant(b, a)
        # a positive, b negative; use the zero-sum triple (a, b, -c).
        if c in self._pos_set:
            n, rem = divmod(-self.norm(c) * self._npos[(_neg(b), c)], self.norm(a))
        else:
            n, rem = divmod(self.norm(c) * self._npos[(_neg(c), a)], self.norm(b))
        if rem:
            raise InvariantError("mixed-sign constant must be integral")
        return n

    def structure_constant(self, a: Coords, b: Coords) -> int:
        """N with [E_a, E_b] = N * E_{a+b}; 0 when a+b is not a root."""
        return self._resolve_constant(a, b)

    def extraspecial_pair(self, gamma: Coords) -> Tuple[Coords, Coords]:
        """The sign-defining decomposition of a non-simple positive root: the
        pair the structure constants were built from, and the split
        ``charzero._root_splits`` derives the root operators along."""
        pair = self._extraspecial.get(gamma)
        if pair is None:
            raise InvariantError(f"{gamma} is not a non-simple positive root")
        return pair

    # -- adjoint representation ----------------------------------------------

    @property
    def adjoint_dim(self) -> int:
        return 2 * self.n_pos + self.rank

    def basis_element(self, idx: int):
        """('E', root) | ('H', i) | ('F', root) for the adjoint basis order."""
        if idx < self.n_pos:
            return ("E", self.positive_roots[idx])
        if idx < self.n_pos + self.rank:
            return ("H", idx - self.n_pos)
        return ("F", self.positive_roots[idx - self.n_pos - self.rank])

    def _elem_index(self, kind: str, val) -> int:
        if kind == "E":
            return self.pos_index[val]
        if kind == "H":
            return self.n_pos + val
        return self.n_pos + self.rank + self.pos_index[val]

    def bracket_basis(self, i: int, j: int) -> Dict[int, int]:
        """[x_i, x_j] expanded over the adjoint basis, as a sparse vector."""
        ki, vi = self.basis_element(i)
        kj, vj = self.basis_element(j)
        if ki == "H" and kj == "H":
            return {}
        if ki == "H" or kj == "H":
            sign = 1 if ki == "H" else -1
            hidx = vi if ki == "H" else vj
            kind, root = (kj, vj) if ki == "H" else (ki, vi)
            signed = root if kind == "E" else _neg(root)
            coef = sum(self.A[hidx][t] * signed[t] for t in range(self.rank))
            tgt = self._elem_index(kind, root)
            return {tgt: sign * coef} if coef else {}
        ra = vi if ki == "E" else _neg(vi)
        rb = vj if kj == "E" else _neg(vj)
        s = _add(ra, rb)
        if all(v == 0 for v in s):
            pos = ra if ki == "E" else rb
            sgn = 1 if ki == "E" else -1
            out: Dict[int, int] = {}
            for t, c in enumerate(self.coroot_coords(pos)):
                if c:
                    out[self._elem_index("H", t)] = sgn * c
            return out
        n = self.structure_constant(ra, rb)
        if n == 0:
            return {}
        if s in self._pos_set:
            return {self._elem_index("E", s): n}
        return {self._elem_index("F", _neg(s)): n}

    # -- weights --------------------------------------------------------------

    @property
    def rho(self) -> Weight:
        return tuple([1] * self.rank)

    def pairing(self, lam: Weight, beta: Coords) -> int:
        """<lam, beta^vee> for a weight lam and a root beta."""
        cor = self.coroot_coords(beta)
        return sum(c * m for c, m in zip(cor, lam))

    def is_dominant(self, lam: Weight) -> bool:
        return all(m >= 0 for m in lam)

    def star(self, lam: Weight) -> Weight:
        """-w0(lam): the highest weight of the dual of V(lam)."""
        cur = list(lam)
        while True:
            i = next((t for t in range(self.rank) if cur[t] > 0), None)
            if i is None:
                break
            ci = cur[i]
            for j in range(self.rank):
                cur[j] -= ci * self.A[j][i]
        return tuple(-v for v in cur)

    def root_coords_of(self, lam: Weight) -> Tuple[Rational, ...]:
        """Coordinates of a weight over the simple roots: the Fractions of
        ``solve_dense``, a solve over Q (they may be fractional)."""
        from .linalg import solve_dense

        cols = solve_dense(self.A, [list(lam)])
        return tuple(cols[0])

    def depth_vector(self, lam: Weight) -> Coords:
        """Root coordinates of lam - w0(lam): the weight-box extent of V(lam)."""
        span = tuple(a + b for a, b in zip(lam, self.star(lam)))
        coords = self.root_coords_of(span)
        if any(v.denominator != 1 for v in coords):
            raise InvariantError("lam - w0(lam) must lie in the root lattice")
        return tuple(int(v) for v in coords)

    def monomial_depth(self, s: Sequence[int]) -> Coords:
        """Root coordinates of sum_beta s_beta * beta for a multi-index s."""
        if len(s) != self.n_pos:
            raise ValueError("multi-index length does not match the root count")
        out = [0] * self.rank
        for e, b in zip(s, self.positive_roots):
            for i in range(self.rank):
                out[i] += e * b[i]
        return tuple(out)

    def weyl_dimension(self, lam: Weight) -> int:
        if not self.is_dominant(lam):
            raise ValueError(f"weight {lam} is not dominant")
        num = den = 1
        rho = self.rho
        for b in self.positive_roots:
            lp = self.pairing(tuple(l + r for l, r in zip(lam, rho)), b)
            rp = self.pairing(rho, b)
            num *= lp
            den *= rp
        if num % den:
            raise InvariantError(f"Weyl dimension of {lam} is not integral")
        return num // den

    def root_name(self, b: Coords) -> str:
        """Digit-string name of a positive root, e.g. (2,1) -> '112'."""
        if b not in self._pos_set:
            raise InvariantError(f"{b} is not a positive root")
        return "".join(str(i + 1) * b[i] for i in range(self.rank))


@lru_cache(maxsize=None)
def _cached_system(matrix: Tuple[Tuple[int, ...], ...], label: Optional[str]) -> RootSystem:
    return RootSystem(CartanData(matrix, label))


def build_root_system(spec) -> RootSystem:
    """Build (and memoize) a root system from a label or an explicit matrix."""
    if isinstance(spec, RootSystem):
        return spec
    if isinstance(spec, CartanData):
        cd = spec
    elif isinstance(spec, str):
        cd = CartanData.from_label(spec)
    else:
        cd = CartanData.from_matrix(spec)
    return _cached_system(cd.matrix, cd.label)
