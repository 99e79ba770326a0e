"""PBW-degree filtrations, essential monomials, and polynomial symbols.

The lowering operators F_beta, taken in the fixed root order, give every
highest-weight module a spanning family F^s v indexed by multi-indices s.
Filtering by total degree of s yields the PBW filtration. The *essential*
multi-indices are selected by a greedy sweep inside each weight block: the
block's monomials are visited by degree, within a degree from the largest
monomial downward, and a monomial is kept exactly when its vector is
independent of the ones already kept. Everything here is exact rank
arithmetic over Q or GF(p); the kept vectors of degree <= n are a basis of
filtration level n, so the filtration table counts the sweep's degrees.

The sweep enumerates a block one degree at a time
(``monomials_with_depth(..., degree=d)``, which enters only branches that
can reach degree d) and stops after the degree in which the block is
spanned, so it never lists the monomials of higher degree. The enumeration
is one recursion over the root positions, with a memo of this module's own
at every position: the degrees and blocks of one module, and the modules of
one type, walk each shared subtree once. The monomial vectors F^s v come
from ``WeylModuleP.monomial_coords``, which shares their tails.

Functionals on a Weyl module (sections of the induced module) get polynomial
symbols: the degree-n symbol of xi is the sum of xi(F^s v) * x^s over the
essential s of degree n. The sweep visits a degree from the largest monomial
down, so no other F^t v of degree n has a coordinate at an essential s < t
of its degree (see ``j_map``). ``EssentialSet.functional`` is the one solve:
a block's functional from its values on the essential vectors, for the dual
basis and for products of sections (taken through the coproduct).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .linalg import row_space, solve_dense
from .rootsys import InvariantError, RootSystem
from .weylmod import DualModuleP, Vector, WeylModuleP, is_prime

MultiIndex = Tuple[int, ...]


# --------------------------------------------------------------------------
# total order on multi-indices
# --------------------------------------------------------------------------

def order_key(s: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Sort key for the total order: degree first, then the exponents read
    from the last root backwards (so ties break at the largest root index,
    where the smaller exponent means the smaller monomial)."""
    return (sum(s), tuple(reversed(s)))


# --------------------------------------------------------------------------
# multi-index enumeration
# --------------------------------------------------------------------------

_MEMO_CAP = 1 << 14


@functools.cache
def _least_degree(system: RootSystem, depth: Tuple[int, ...], start: int = 0) -> int:
    """The least degree of an s of depth ``depth`` (nonnegative) on the roots
    from position ``start`` on. The simple roots, which come last, alone
    give the largest such degree, the height sum(depth)."""
    if start >= system.n_pos - system.rank:
        return sum(depth)
    beta = system.positive_roots[start]
    cap = min(d // b for d, b in zip(depth, beta) if b)
    return min(k + _least_degree(system, tuple(d - k * b for d, b in zip(depth, beta)),
                                 start + 1)
               for k in range(cap + 1))


@functools.lru_cache(maxsize=_MEMO_CAP)
def _suffixes(system: RootSystem, pos: int, rem: Tuple[int, ...],
              deg_left: Optional[int]) -> List[MultiIndex]:
    """The suffixes s[pos:] of the multi-indices below (position, remainder,
    degree left), in lexicographic order; see ``monomials_with_depth``. The
    list is shared, so callers copy it before handing it out."""
    roots = system.positive_roots
    tail = system.n_pos - system.rank
    if pos == tail:
        return [tuple([rem[beta.index(1)] for beta in roots[tail:]])]
    beta = roots[pos]
    out: List[MultiIndex] = []
    for k in range(min([r // b for r, b in zip(rem, beta) if b]) + 1):
        nxt = tuple([r - k * b for r, b in zip(rem, beta)])
        left = None if deg_left is None else deg_left - k
        if left is None or _least_degree(system, nxt, pos + 1) <= left <= sum(nxt):
            out += [(k,) + rest for rest in _suffixes(system, pos + 1, nxt, left)]
    return out


def _check_rank(system: RootSystem, what: str, coords: Sequence[int]) -> None:
    if len(coords) != system.rank:
        raise ValueError(f"{what} {tuple(coords)} does not have the rank {system.rank}")


def monomials_with_depth(system: RootSystem, depth: Sequence[int],
                         degree: Optional[int] = None) -> List[MultiIndex]:
    """All s with sum_beta s_beta * beta equal to ``depth`` (root coordinates),
    optionally restricted to total degree ``degree``, in lexicographic order
    of s. A depth with a negative coordinate has none; a depth whose length
    is not the rank is a ``ValueError``.

    The walk is one recursion over the root positions. The last ``rank``
    positive roots are the simple roots (the root order is by descending
    height), so once it reaches them the remainder forces their exponents:
    one candidate per prefix, not a subtree.

    With ``degree`` given, a branch is entered only if it can still reach
    that degree. From a position and a remainder the reachable degrees form
    the interval [least degree, height of the remainder]: a non-simple root
    is a lower positive root (later in the order) plus a simple root, so
    splitting one factor raises the degree by exactly one, until only simple
    roots are left. Every branch entered yields at least one multi-index.

    The subtree below (position, remainder, degree left) is the same
    wherever it is reached, in this call or a later one for another block or
    degree. So its list of suffixes s[pos:] is built once, at every position,
    and kept in this module's own memo of at most ``_MEMO_CAP`` lists.
    """
    _check_rank(system, "depth", depth)
    if min(depth) < 0:
        return []
    depth = tuple(depth)
    if degree is not None and not _least_degree(system, depth) <= degree <= sum(depth):
        return []
    return list(_suffixes(system, 0, depth, degree))


def monomials_of_degree(system: RootSystem, box: Sequence[int],
                        degree: int) -> Iterator[MultiIndex]:
    """All s of total degree ``degree`` whose depth fits inside ``box``, in
    lexicographic order: the lists of ``monomials_with_depth`` for the
    depths in the box, merged. Depths of height below ``degree`` have none
    and are skipped."""
    _check_rank(system, "box", box)
    depths = itertools.product(*(range(b + 1) for b in box))
    yield from sorted(s for depth in depths if sum(depth) >= degree
                      for s in monomials_with_depth(system, depth, degree))


# --------------------------------------------------------------------------
# essential sets
# --------------------------------------------------------------------------

def sweep_key(s: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """Sort key for the essential sweep: by degree, and within a degree from
    the largest monomial downward. The within-degree direction matters: the
    monomial kept in a tied block is the largest one, which is what makes the
    greedy sweep reproduce the G2 inequality table."""
    return (sum(s), tuple(-v for v in reversed(s)))


@dataclass
class BlockSweep:
    """The greedy sweep of one weight block: the multi-indices it enumerated,
    which of them are essential, and their vectors.

    ``all_indices`` is a prefix of the block's multi-indices in sweep order:
    every one of degree at most the degree in which the kept vectors span the
    block (the largest essential degree). No later one can be kept."""
    depth: Tuple[int, ...]
    all_indices: List[MultiIndex]          # sweep order, up to the spanning degree
    essential: List[MultiIndex]            # ascending total order
    vectors: Dict[MultiIndex, List[int]]   # essential index -> block coords


@dataclass
class EssentialSet:
    """All essential multi-indices of a module, block by block."""
    module: WeylModuleP
    by_block: Dict[Tuple[int, ...], BlockSweep]

    @property
    def indices(self) -> List[MultiIndex]:
        return sorted((s for sweep in self.by_block.values()
                       for s in sweep.essential), key=order_key)

    def __contains__(self, s: Sequence[int]) -> bool:
        s = tuple(s)
        depth = self.module.system.monomial_depth(s)
        sweep = self.by_block.get(depth)
        return sweep is not None and s in sweep.vectors

    def degree_histogram(self) -> List[int]:
        degs = [sum(s) for s in self.indices]
        out = [0] * (max(degs) + 1 if degs else 1)
        for d in degs:
            out[d] += 1
        return out

    def functional(self, depth: Tuple[int, ...], values: Sequence) -> Vector:
        """The functional on the block at ``depth`` that takes ``values`` on
        its essential vectors, in ascending order: one solve against the
        block's essential matrix."""
        sweep = self.by_block[depth]
        mat = [sweep.vectors[t] for t in sweep.essential]
        return {depth: solve_dense(mat, [values], self.module.p)[0]}

    def dual_functional(self, s: Sequence[int]) -> Vector:
        """The functional taking value 1 on F^s v and 0 on the other
        essential monomial vectors (the essential dual basis)."""
        s = tuple(s)
        depth = self.module.system.monomial_depth(s)
        sweep = self.by_block.get(depth)
        if sweep is None or s not in sweep.vectors:
            raise ValueError(f"{s} is not an essential multi-index of this module")
        return self.functional(depth, [1 if t == s else 0 for t in sweep.essential])


def _sweep_block(m: WeylModuleP, depth: Tuple[int, ...],
                 top: Optional[int] = None) -> BlockSweep:
    """The greedy sweep of one block, stopping after degree ``top`` (if
    given) or once the block is spanned. A sweep that reaches the block's
    height must have spanned it."""
    space = row_space(m.p)
    indices: List[MultiIndex] = []
    essential: List[MultiIndex] = []
    vectors: Dict[MultiIndex, List[int]] = {}
    full = m.dims.get(depth, 0)
    height = sum(depth)
    last = height if top is None else min(top, height)
    for d in range(_least_degree(m.system, depth), last + 1):
        if space.rank == full:
            break   # no monomial of a higher degree can be independent
        batch = sorted(monomials_with_depth(m.system, depth, degree=d), key=sweep_key)
        indices += batch
        for s in batch:
            if space.rank == full:
                break   # no later monomial can be independent
            coords = m.monomial_coords(s)
            if coords is None:
                continue
            if space.insert(coords):
                essential.append(s)
                vectors[s] = coords
    if last == height and space.rank != full:
        raise InvariantError(
            f"monomial vectors fail to span the block at depth {depth}")
    essential.sort(key=order_key)
    return BlockSweep(depth, indices, essential, vectors)


def essential_set(m: WeylModuleP) -> EssentialSet:
    """Sweep every weight block of the module for essential multi-indices.

    A block's sweep stops once its kept vectors span the block: no later
    monomial could be kept, so the result is that of the complete sweep.
    """
    by_block = {t: _sweep_block(m, t) for t in m.dims}
    return EssentialSet(m, by_block)


@dataclass
class FiltrationTable:
    """Dimensions of the PBW filtration levels of one module."""
    highest_weight: Tuple[int, ...]
    p: Optional[int]
    level_dims: List[int]            # dim V_n for n = 0..top
    graded_dims: List[int]           # dim V_n - dim V_{n-1}

    @property
    def top_dim(self) -> int:
        return self.level_dims[-1] if self.level_dims else 0


def pbw_filtration(m: WeylModuleP, n: int) -> FiltrationTable:
    """Ranks of the spans of the monomial vectors of degree <= 0, 1, ..., n.

    The kept vectors of degree <= d of a block's essential sweep are a basis
    of its level d, and distinct weights are independent. So level n counts
    the essential multi-indices of degree <= n, each block swept only up to
    degree n.
    """
    if n < 0:
        raise ValueError(f"filtration level {n} is negative")
    gains = [0] * (n + 1)
    for depth in m.dims:
        for s in _sweep_block(m, depth, n).essential:
            gains[sum(s)] += 1
    return FiltrationTable(m.highest_weight, m.p, list(itertools.accumulate(gains)),
                           gains)


# --------------------------------------------------------------------------
# the G2 essential table (inequality description)
# --------------------------------------------------------------------------

def g2_essential_member(k: int, l: int, s: Sequence[int]) -> bool:
    """Whether s satisfies the inequality description of the essential set
    of the G2 Weyl module with highest weight k*w1 + l*w2."""
    if len(s) != 6 or any(v < 0 for v in s):
        return False
    s1, s2, s3, s4, s5, s6 = s
    return (s5 <= l and s6 <= k
            and s2 + s3 + s6 <= k + l
            and s3 + s4 + s6 <= k + l
            and s4 + s5 + s6 <= k + l
            and s1 + s2 + s3 + s4 + s5 <= k + 2 * l
            and s2 + s3 + s4 + s5 + s6 <= k + 2 * l)


def g2_essential_rows(k: int, l: int) -> Iterator[Tuple[MultiIndex, int]]:
    """The solutions of the G2 essential-set inequalities for k*w1 + l*w2,
    one row per (s1, ..., s5): that prefix and the largest s6 it allows,
    every s6 from 0 to it being a solution (pruned nested bounds, no box
    filter). Every row has at least one solution."""
    if k < 0 or l < 0:
        raise ValueError("the weight coordinates must be dominant (nonnegative)")
    kl, k2l = k + l, k + 2 * l
    for s1 in range(k2l + 1):
        for s2 in range(min(kl, k2l - s1) + 1):
            for s3 in range(min(kl - s2, k2l - s1 - s2) + 1):
                for s4 in range(min(kl - s3, k2l - s1 - s2 - s3) + 1):
                    for s5 in range(min(l, k2l - s1 - s2 - s3 - s4, kl - s4) + 1):
                        yield (s1, s2, s3, s4, s5), min(k, kl - s2 - s3, kl - s3 - s4,
                                                        kl - s4 - s5,
                                                        k2l - s2 - s3 - s4 - s5)


def g2_essential_table(k: int, l: int) -> List[MultiIndex]:
    """All solutions of the G2 essential-set inequalities for k*w1 + l*w2,
    the rows of ``g2_essential_rows`` spelled out, sorted in the monomial
    total order."""
    return sorted((prefix + (s6,) for prefix, top in g2_essential_rows(k, l)
                   for s6 in range(top + 1)), key=order_key)


# --------------------------------------------------------------------------
# polynomials (symbols on the nilradical)
# --------------------------------------------------------------------------

class Polynomial:
    """A polynomial in one variable per positive root, exact coefficients.

    Coefficients are ints (or Fractions over Q); zero coefficients are never
    stored. Multiplication is the honest product x^s * x^t = x^(s+t).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[MultiIndex, object]] = None):
        self.coeffs = {tuple(s): c for s, c in (coeffs or {}).items() if c}

    @classmethod
    def monomial(cls, s: Sequence[int]) -> "Polynomial":
        return cls({tuple(s): 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return Polynomial(out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[MultiIndex, object] = {}
        for s, a in self.coeffs.items():
            for t, b in other.coeffs.items():
                key = tuple(x + y for x, y in zip(s, t))
                out[key] = out.get(key, 0) + a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        return Polynomial({s: c * v for s, v in self.coeffs.items()})

    def reduce(self, p: Optional[int]) -> "Polynomial":
        if p is None:
            return self
        return Polynomial({s: c % p for s, c in self.coeffs.items()})

    def coefficient(self, s: Sequence[int]):
        return self.coeffs.get(tuple(s), 0)

    def support(self) -> List[MultiIndex]:
        return sorted(self.coeffs, key=order_key)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for s in self.support():
            c = self.coeffs[s]
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                            for i, e in enumerate(s) if e) or "1"
            bits.append(f"{c}*{mono}" if c != 1 or mono == "1" else mono)
        return " + ".join(bits)


# --------------------------------------------------------------------------
# sections of induced modules and their symbols
# --------------------------------------------------------------------------

class InducedSections(DualModuleP):
    """The induced module H0(lam), the functionals on a built V(lam*), with
    its essential dual basis and the symbol maps."""

    def __init__(self, module: WeylModuleP):
        super().__init__(module)                               # V(lam*)
        self.weight = self.system.star(module.highest_weight)  # lam
        self.essentials = essential_set(module)

    def xi(self, s: Sequence[int]) -> Vector:
        return self.essentials.dual_functional(s)


def j_map(sections: InducedSections, xi: Vector, n: int) -> Polynomial:
    """The degree-n polynomial symbol of a functional in filtration level n:
    the sum of xi(F^s v) * x^s over the essential s of degree n.

    The coefficient of xi at s in the essential dual basis is xi(F^s v). A
    component of degree < n means xi is not in level n and is rejected; one
    of degree > n dies in the degree-n graded piece. On the F^t v of degree
    n with t >= s, the dual-basis element at s is x^s alone: the sweep visits
    a degree from the largest monomial down, so a rejected F^t v lies in the
    span of the essential vectors of lower degree and of those of degree n
    above t, and has no coordinate at an essential s below t.
    """
    out: Dict[MultiIndex, object] = {}
    for blk in xi:
        sweep = sections.essentials.by_block[blk]
        for s in sweep.essential:
            c = sections.pair(xi, {blk: sweep.vectors[s]})
            if c and sum(s) < n:
                raise ValueError(
                    f"functional has a component at essential degree {sum(s)}"
                    f" < {n}, so it does not lie in filtration level {n}")
            if sum(s) == n:
                out[s] = c
    return Polynomial(out).reduce(sections.p)


def section_product(a: InducedSections, b: InducedSections,
                    target: InducedSections, xi: Vector, eta: Vector) -> Vector:
    """The product of sections H0(lam) x H0(mu) -> H0(lam + mu).

    The value of xi*eta on F^s v_{(lam+mu)*} is (xi (x) eta) applied to
    Delta(F^s).(v (x) w), v and w the highest vectors of the factors. The
    coproduct is an algebra map, so that is the sum of xi(F^a v) * eta(F^b w)
    over the splits a + b = s; a split is skipped once either vector is zero.
    Each block's values are re-expanded in its essential dual basis.
    """
    if not (a.p == b.p == target.p):
        raise ValueError("section product requires a common characteristic")
    if not (a.system.cartan.matrix == b.system.cartan.matrix == target.system.cartan.matrix):
        raise ValueError("section product requires a common root system")
    if tuple(x + y for x, y in zip(a.weight, b.weight)) != target.weight:
        raise ValueError("target weight must be the sum of the factor weights")
    depth = target.system.monomial_depth
    out: Vector = {}
    for blk, sweep in target.essentials.by_block.items():
        vals = []
        for s in sweep.essential:
            total = 0
            for left in itertools.product(*(range(k + 1) for k in s)):
                right = tuple(map(sub, s, left))
                u = a.module.monomial_coords(left)
                w = None if u is None else b.module.monomial_coords(right)
                if w is not None:
                    total += (a.pair(xi, {depth(left): u})
                              * b.pair(eta, {depth(right): w}))
            vals.append(target.module.reduce(total))
        if any(vals):
            out |= target.essentials.functional(blk, vals)
    return out


# --------------------------------------------------------------------------
# the divided action of raising operators on symbols
# --------------------------------------------------------------------------

def _chain(system: RootSystem, beta_pos: int, gamma_pos: int) -> List[Tuple[int, int]]:
    """The beta-chain of x_gamma: (position of gamma + r*beta, c_r) for as
    long as gamma + r*beta stays a positive root, where c_0 = 1 and c_r is
    the coefficient of E_{gamma + r*beta} in (ad E_beta)^r / r! applied to
    E_gamma."""
    beta = system.positive_roots[beta_pos]
    cur = system.positive_roots[gamma_pos]
    out = [(gamma_pos, 1)]
    run = 1
    while system.is_positive_root(nxt := tuple(map(add, cur, beta))):
        run *= system.structure_constant(beta, cur)
        val, rem = divmod(run, math.factorial(len(out)))
        if rem:
            raise InvariantError(
                f"divided chain coefficient {run}/{math.factorial(len(out))} of root"
                f" #{gamma_pos} along root #{beta_pos} is not integral")
        out.append((system.pos_index[nxt], val))
        cur = nxt
    return out


def _spread(chain: List[Tuple[int, int]], copies: int, k: int,
            base: int) -> List[Tuple[int, int, int, int]]:
    """The terms of (sum_r c_r z^r x_{gamma + r*beta})^copies up to z^k, where
    ``chain`` lists (position of gamma + r*beta, c_r) for r = 0, 1, ...: the
    copies spread over the chain with multinomial weight. Each term is
    (monomial code, climb, 0, coefficient), the climb being the z-degree it
    spends and the code sum_g e_g * base**g of its monomial x^e."""
    parts = [(0, 0, copies, 1)]   # (code, climb, copies left to place, coefficient)
    for r, (pos, c) in reversed(list(enumerate(chain))):
        unit = base ** pos
        # the chain's foot, r = 0, is placed last and takes every copy left
        parts = [(code + m * unit, climb + r * m, left - m, w * math.comb(left, m) * c ** m)
                 for code, climb, left, w in parts
                 for m in (range(min(left, (k - climb) // r) + 1) if r else (left,))]
    return parts


def sn_divided_action(system: RootSystem, beta_pos: int, k: int,
                      poly: Polynomial, p: Optional[int] = None) -> Polynomial:
    """Apply the divided operator E_beta^(k) to a symbol polynomial.

    E_beta acts on the variables by the adjoint action, x_gamma climbing the
    chain gamma, gamma+beta, gamma+2beta, ... with the divided adjoint chain
    coefficients c_r (``_chain``). So exp(z E_beta) is the ring map
    x_gamma -> sum_r c_r z^r x_{gamma + r*beta}, and E_beta^(k) f is the z^k
    coefficient of the image of f. The image of a monomial is the product of
    its variables' images: each variable's copies are spread over its chain
    (``_spread``), and the variables are merged one at a time, dropping every
    term whose climb exceeds k or can no longer reach it. No factorial is
    divided, so the expansion is exact over Z; with a prime ``p`` it is
    reduced mod p at the end. A monomial needs one exponent per positive
    root.

    Inside, a monomial x^e of degree d is the integer sum_g e_g * (d+1)**g:
    every image term has degree d, so no exponent reaches the base, and the
    product of two monomials is the sum of their codes.
    """
    n = system.n_pos
    if beta_pos < 0 or beta_pos >= n:
        raise ValueError("beta_pos is out of range")
    if k < 0:
        raise ValueError("the divided power must be nonnegative")
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chains = [_chain(system, beta_pos, g) for g in range(n)]
    result: Dict[MultiIndex, object] = {}
    for s, coeff in poly.coeffs.items():
        if len(s) != n:
            raise ValueError(f"monomial {s} does not have the root count {n}")
        base = sum(s) + 1
        # by climb: {monomial code: coefficient}
        terms: List[Dict[int, object]] = [{0: coeff}] + [{} for _ in range(k)]
        # the most the variables not yet merged can climb: a term that cannot
        # reach k with it is dropped
        room = sum(e * (len(chain) - 1) for e, chain in zip(s, chains))
        for copies, chain in zip(s, chains):
            room -= copies * (len(chain) - 1)
            merged: List[Dict[int, object]] = [{} for _ in range(k + 1)]
            for part, r, _, b in _spread(chain, copies, k, base):
                for climb in range(max(0, k - room - r), k - r + 1):
                    into = merged[climb + r]
                    for code, a in terms[climb].items():
                        into[code + part] = into.get(code + part, 0) + a * b
            terms = merged
        for code, c in terms[k].items():
            mono = tuple(code // base ** g % base for g in range(n))
            result[mono] = result.get(mono, 0) + c
    return Polynomial(result).reduce(p)
