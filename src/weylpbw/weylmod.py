"""Weyl modules and induced modules in positive characteristic.

``WeylModuleP`` reduces an admissible lattice mod a prime (or keeps it over Z
when ``p is None``), with divided-power generator matrices built lazily, block
by block, by exact integer division and only then reduced. It shares its
lattice's ``dims`` and ``weights``; its ``box`` is its lowest block's depth.
``DualModuleP`` carries the functionals on such a module under the
antipode-twisted action: H0(lam) is the dual of the Weyl module with highest
weight lam*. Tensor actions go through the divided-power coproduct, an
algebra map: Delta(X^t) = sum_{a+b=t} X^a (x) X^b.

A monomial X^(s) is a side, "E" (raising) or "F" (lowering), and its
exponent tuple s, one natural number per positive root in the fixed root
order; the last root's factor acts first. Every action takes the two as
separate arguments, ``act(side, s, vec)``, and ``_monomial`` is the one
check of them, made once at the entry of ``act``, ``monomial_coords``,
``tensor_leg_act`` and ``tensor_act``.

Every action, on a module, a dual or a tensor, rests on one composition
loop, ``_compose``: it walks the root positions from last to first and hands
each nonzero factor X_beta^(k) to a step, blockwise on a module or dual
vector and into a composed matrix on one block for a tensor leg. A leg of a
tensor is anything offering ``system``, ``p``, ``reduce``, ``box`` and
``leg_matrix``; both module classes do.
``leg_matrix(side, pos, k, t)`` gives the target block and the matrix of one
factor on block t: the module's divided power itself, or for the dual its
signed transpose (-1)^k M^T on the block that feeds t. Each class keeps one
table per factor (side, pos, k), source block -> (target, matrix) or None,
filled block by block: a block is built by the class's ``divided(side, pos,
k, t)`` the first time it is read, and every later read is one dict access.
The module builds X^(k) on t as X^(k-1) on t times the lattice's first power
on the block that lands in, divided exactly by k and only then reduced, so
only the blocks an action reaches (and the chains below them) are built; the
dual transposes the module block that feeds t. Everything else is
matrix products: ``leg_apply``, the one kernel both classes share with their
``act``, is M.coords. A monomial on one tensor leg (``tensor_leg_act``)
composes its factors' matrices on each source block, last root first,
reduces the product once and applies it, M.X on leg 0 and X.M^T on leg 1;
the leg keeps the composed matrices of the monomial last asked for. The
induced filtration's sweep applies the same composed matrices
(``_monomial_matrix``) to module vectors instead. ``tensor_act`` sums
``tensor_leg_act`` over the splits a + b = t, X^b on leg 1 then X^a on leg 0,
skipping a split once some k*beta of it leaves the leg's ``box``.

The module's two tables stay apart. ``_div_int`` keeps integers, as X^(k) =
X.X^(k-1)/k must be exact and k >= p has no inverse mod p. ``_legs`` keeps
them reduced, since Hermite lattice entries grow (to 1.29e19, 64 bits, on A2
V(8,8); 381,372 on A2 V(4,4); 380 on B2 V(2,2)) and would ride into every
mat-vec and composed product.

The monomial vectors F^s v of a sweep share their tails: with j the first
nonzero position of s, F^s v is F_j^(s_j) applied to F^r v, r being s with
that exponent set to 0. ``monomial_coords`` keeps a table s -> F^s v (None
once it dies) on the module, so each miss is one single-factor ``act`` on a
tail already in the table, and the table lives as long as the module. The
module sweeps, each leg of a tensor filtration's sweep and the structural
tensor checks read their F^s v from it; outside this module nothing calls
``act``.

Module vectors are sparse maps {block key -> dense coordinate list}; tensor
vectors are sparse maps {(block, block) -> dense dim_a x dim_b block}, a
sequence of row sequences, with all-zero blocks dropped. The actions return
list rows; a vector a filtration stores has tuple rows and is never
written to. Scalars are ints, reduced to [0, p) whenever the module carries
a prime.
"""
from __future__ import annotations

from functools import partial
from itertools import product
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .charzero import DIM_CAP_DEFAULT, AdmissibleLattice
from .linalg import mat_mul
from .rootsys import InvariantError, RootSystem

Coords = Tuple[int, ...]
Weight = Tuple[int, ...]
Matrix = List[List[int]]
Vector = Dict[Coords, List[int]]
# rows are sequences: list rows from the actions, tuple rows in stored vectors
TensorVector = Dict[Tuple[Coords, Coords], Sequence[Sequence[int]]]
LegTable = Dict[Coords, Optional[Tuple[Coords, Matrix]]]   # source block -> (target, matrix)

_UNBUILT = object()   # a table slot not built yet (None is a built zero block)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _monomial(system: RootSystem, side: str, s: Sequence[int]) -> Coords:
    """``s`` as the exponent tuple of a monomial of ``side``, booleans read
    as ints: the one check of a monomial (see the module docstring)."""
    if side not in ("E", "F"):
        raise ValueError("side must be 'E' or 'F'")
    s = tuple(s)
    kinds = set(map(type, s))
    if kinds != {int}:
        if not kinds <= {int, bool}:
            raise ValueError("exponents must be natural numbers")
        s = tuple(map(int, s))
    if len(s) != system.n_pos:
        raise ValueError("monomial length does not match the root count")
    if min(s) < 0:
        raise ValueError("exponents must be natural numbers")
    return s


def f_zero(n_pos: int, p: int) -> Coords:
    """The exponents of the lowering monomial F0: every one p - 1."""
    return (p - 1,) * n_pos


def _shift(system: RootSystem, side: str, pos: int, t: Coords, k: int) -> Coords:
    """The block k factors X_beta away from block t: F adds k*beta to the
    depth, E subtracts it (a negative k goes back)."""
    step = -k if side == "E" else k
    return tuple(v + step * c for v, c in zip(t, system.positive_roots[pos]))


def _compose(side: str, s: Coords, vec, step: Callable):
    """Apply X^(s) of ``side`` to ``vec`` one root factor at a time, last
    root first.

    ``step(side, pos, k, vec)`` applies the single factor X_beta^(k) of root
    position ``pos``; zero exponents are skipped, and the walk stops as soon
    as the vector dies.
    """
    for pos in range(len(s) - 1, -1, -1):
        k = s[pos]
        if k == 0:
            continue
        vec = step(side, pos, k, vec)
        if not vec:
            break
    return vec


class WeylModuleP:
    """A Weyl module over F_p (or its integral form when p is None)."""

    def __init__(self, lattice: AdmissibleLattice, p: Optional[int]):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.lattice = lattice
        self.p = p
        self.system: RootSystem = lattice.system
        self.highest_weight: Weight = lattice.highest_weight
        self.dims: Dict[Coords, int] = lattice.dims
        self.weights: Dict[Coords, Weight] = lattice.weights
        self.dim: int = lattice.dim
        self.box: Coords = tuple(map(max, zip(*self.dims)))   # the lowest block's depth
        self._blocks: Dict[Coords, Coords] = {t: t for t in self.dims}   # one tuple each
        self._div_int: Dict[Tuple[str, int, int, Coords], Optional[Matrix]] = {}
        self._legs: Dict[Tuple[str, int, int], LegTable] = {}
        self._last_monomial: Tuple[Optional[Tuple[str, Coords]], LegTable] = (None, {})
        # s -> F^s v as (block, coords), None when it dies; see _tail
        self._tails: Dict[Coords, Optional[Tuple[Coords, Coords]]] = {
            (0,) * self.system.n_pos: ((0,) * self.system.rank, (1,))}

    @classmethod
    def build(cls, system, highest_weight: Weight, p: Optional[int],
              dim_cap: int = DIM_CAP_DEFAULT) -> "WeylModuleP":
        return cls(AdmissibleLattice.build(system, highest_weight, dim_cap), p)

    # -- scalars ---------------------------------------------------------------

    def reduce(self, v: int) -> int:
        return v % self.p if self.p is not None else v

    def highest_vector(self) -> Vector:
        return {(0,) * self.system.rank: [1]}

    # -- divided powers --------------------------------------------------------

    def _divided_int(self, side: str, pos: int, k: int, t: Coords) -> Optional[Matrix]:
        """The integer matrix of X_beta^(k) on block t (before reduction), None
        when it is zero: X^(k-1) on t, then the generator on the block it
        lands in, divided exactly by k."""
        gen = self.lattice.e_gen if side == "E" else self.lattice.f_gen
        if k == 1:
            return gen.get((pos, t))
        key = (side, pos, k, t)
        hit = self._div_int.get(key, _UNBUILT)
        if hit is not _UNBUILT:
            return hit
        out = None
        prev = self._divided_int(side, pos, k - 1, t)
        if prev is not None:
            top = gen.get((pos, _shift(self.system, side, pos, t, k - 1)))
            if top is not None:
                prod = mat_mul(top, prev)
                if any(v % k for row in prod for v in row):
                    raise InvariantError(
                        f"divided power {side}^({k}) of root #{pos} is not"
                        f" integral on block {t}")
                ok = [[v // k for v in row] for row in prod]
                if any(map(any, ok)):
                    out = ok
        self._div_int[key] = out
        return out

    def divided(self, side: str, pos: int, k: int,
                t: Coords) -> Optional[Tuple[Coords, Matrix]]:
        """X_beta^(k) on block t, k >= 1: its target block and its matrix with
        entries reduced into the module's ring; None when it is zero.

        A row already reduced is the integer matrix's own row, not a copy, so
        neither may be written to.
        """
        if k < 1:
            raise ValueError(f"divided power {k} < 1; X^(0) is the identity")
        mat = self._divided_int(side, pos, k, t)
        if mat is None:
            return None
        p = self.p
        if p is not None:
            mat = [row if min(row) >= 0 and max(row) < p else [v % p for v in row]
                   for row in mat]
        return self._blocks[_shift(self.system, side, pos, t, k)], mat

    # -- vector plumbing ---------------------------------------------------------

    def leg_matrix(self, side: str, pos: int, k: int,
                   t: Coords) -> Optional[Tuple[Coords, Matrix]]:
        """X_beta^(k) on block t: its target block and matrix, None when the
        block has no image. Built by ``divided`` on first use and kept in one
        table per factor (side, pos, k)."""
        table = self._legs.get((side, pos, k))
        if table is None:
            table = self._legs[(side, pos, k)] = {}
        hit = table.get(t, _UNBUILT)
        if hit is _UNBUILT:
            hit = table[t] = self.divided(side, pos, k, t)
        return hit

    def leg_apply(self, side: str, pos: int, k: int,
                  t: Coords, coords: Sequence[int]) -> Optional[Tuple[Coords, List[int]]]:
        """Apply X^(k), k >= 1, to a single-block vector; None when it dies."""
        hit = self.leg_matrix(side, pos, k, t)
        if hit is None:
            return None
        tgt, mat = hit
        out = [self.reduce(sum(map(mul, row, coords))) for row in mat]
        return (tgt, out) if any(out) else None

    def _step(self, side: str, pos: int, k: int, vec: Vector) -> Vector:
        """One factor on a blockwise vector, block by block through
        ``leg_apply``. A factor shifts every block by the same amount, so no
        two blocks land on one target."""
        out: Vector = {}
        for t, coords in vec.items():
            res = self.leg_apply(side, pos, k, t, coords)
            if res is not None:
                out[res[0]] = res[1]
        return out

    def act(self, side: str, s: Sequence[int], vec: Vector) -> Vector:
        """X^(s) of ``side`` applied to ``vec``: a new vector, ``vec`` is not
        written to."""
        out = _compose(side, _monomial(self.system, side, s), vec, self._step)
        return {t: list(c) for t, c in vec.items()} if out is vec else out

    def monomial_coords(self, s: Sequence[int]) -> Optional[List[int]]:
        """The coordinates of F^s v in its block, None when F^s kills v: a new
        list each call.

        F^s v is a weight vector, so it lies in the single block at the
        depth of s.
        """
        hit = self._tail(_monomial(self.system, "F", s))
        return None if hit is None else list(hit[1])

    def _tail(self, s: Coords) -> Optional[Tuple[Coords, Coords]]:
        """F^s v as (block, coords), None when it dies, kept in ``_tails``.

        With j the first nonzero position of s and r the rest of s, F^s v is
        F_j^(s_j) F^r v (the last root acts first), so a miss is one
        single-factor ``act`` on the tail F^r v, itself looked up here: the
        monomials of a sweep share their tails.
        """
        hit = self._tails.get(s, _UNBUILT)
        if hit is _UNBUILT:
            j = next(i for i, v in enumerate(s) if v)
            hit = self._tail((0,) * (j + 1) + s[j + 1:])
            if hit is not None:
                vec = self.act("F", s[:j + 1] + (0,) * (len(s) - j - 1),
                               {hit[0]: hit[1]})
                hit = next(((t, tuple(c)) for t, c in vec.items()), None)
            self._tails[s] = hit
        return hit

    def vector_weight(self, vec: Vector) -> Optional[Weight]:
        """The common weight of a homogeneous vector, None for 0 or mixed."""
        seen: Optional[Weight] = None
        for t, coords in vec.items():
            if not any(coords):
                continue
            w = self.weights[t]
            if seen is None:
                seen = w
            elif seen != w:
                return None
        return seen


class DualModuleP:
    """Functionals on a Weyl module, i.e. the induced module H0(lam).

    The underlying module is V(lam*), lam the star of its highest weight. A
    functional is stored blockwise in the basis dual to the lattice basis; a
    generator acts through the antipode, sigma(X^(k)) = (-1)^k X^(k), which
    transposes matrices and reverses the block flow.
    """

    def __init__(self, module: WeylModuleP):
        self.module = module
        self.system = module.system
        self.p = module.p
        self.reduce = module.reduce
        self.dims: Dict[Coords, int] = module.dims
        self.box: Coords = module.box
        self._legs: Dict[Tuple[str, int, int], LegTable] = {}
        self._last_monomial: Tuple[Optional[Tuple[str, Coords]], LegTable] = (None, {})

    def functional_weight(self, xi: Vector) -> Optional[Weight]:
        """Minus the weight of a homogeneous functional's blocks (None for 0 or mixed)."""
        w = self.module.vector_weight(xi)
        return None if w is None else tuple(-v for v in w)

    def divided(self, side: str, pos: int, k: int,
                t: Coords) -> Optional[Tuple[Coords, Matrix]]:
        """sigma(X_beta^(k)) on functionals of block t: the block "upstream"
        of t, whose module matrix M lands in t, and (-1)^k M^T; None when no
        block feeds t."""
        src = self.module._blocks.get(_shift(self.system, side, pos, t, -k))
        hit = None if src is None else self.module.leg_matrix(side, pos, k, src)
        if hit is None:
            return None
        par = -1 if k % 2 else 1
        return src, [[self.reduce(par * v) for v in col] for col in zip(*hit[1])]

    # the module's own table, kernel (M.coords) and action: divided is the difference
    leg_matrix = WeylModuleP.leg_matrix
    leg_apply = WeylModuleP.leg_apply
    _step = WeylModuleP._step
    act = WeylModuleP.act

    def pair(self, xi: Vector, vec: Vector) -> int:
        """Evaluate the functional: the pairing eta on H0 x V(lam*)."""
        total = 0
        for t, row in xi.items():
            col = vec.get(t)
            if col is None:
                continue
            total += sum(a * b for a, b in zip(row, col))
        return self.reduce(total)


def _tidy(acc: TensorVector, p: Optional[int]) -> TensorVector:
    """Reduce the entries into [0, p) and drop the all-zero blocks."""
    if p is not None:
        acc = {key: [[v % p for v in row] for row in block] for key, block in acc.items()}
    return {key: block for key, block in acc.items() if any(map(any, block))}


def _matrix_step(leg, side: str, pos: int, k: int, acc):
    """One factor on a (block, matrix) pair: the factor's ``leg_matrix`` on
    that block times the matrix so far (None: the identity)."""
    hit = leg.leg_matrix(side, pos, k, acc[0])
    if hit is None:
        return None
    return hit[0], hit[1] if acc[1] is None else mat_mul(hit[1], acc[1])


def _monomial_matrix(leg, side: str, s: Coords, table: LegTable,
                     t: Coords) -> Optional[Tuple[Coords, Matrix]]:
    """The whole monomial on block t of ``leg``: its target block and one
    matrix, the factors' ``leg_matrix`` composed last root first and reduced
    once; None when the block dies. Kept in ``table``, the monomial's."""
    hit = table.get(t, _UNBUILT)
    if hit is _UNBUILT:
        hit = _compose(side, s, (t, None), partial(_matrix_step, leg))
        if hit is not None:
            tgt, mat = hit
            if leg.p is not None:
                mat = [[v % leg.p for v in row] for row in mat]
            hit = (tgt, mat) if any(map(any, mat)) else None
        table[t] = hit
    return hit


def tensor_leg_act(mods: Tuple, idx: int, side: str, s: Sequence[int],
                   tvec: TensorVector) -> TensorVector:
    """Act with a monomial on one tensor leg only: X^s (x) 1 for ``idx`` 0,
    1 (x) X^s for ``idx`` 1 (no coproduct). Each block of the leg takes one
    product with the monomial's composed matrix on it; every block moves by
    the same shift, so no two land on one target.

    Only the monomial last asked for keeps its composed matrices, on the
    leg itself: a sweep asks for one monomial across many vectors in a row.
    """
    if idx not in (0, 1):
        raise ValueError("a tensor has legs 0 and 1")
    leg = mods[idx]
    s = _monomial(leg.system, side, s)
    if not any(s):
        return tvec
    last, table = leg._last_monomial
    if last != (side, s):
        table = {}
        leg._last_monomial = ((side, s), table)
    out: TensorVector = {}
    for (ta, tb), block in tvec.items():
        hit = _monomial_matrix(leg, side, s, table, tb if idx else ta)
        if hit is None:
            continue
        tgt, mat = hit
        if idx:
            out[(ta, tgt)] = [[sum(map(mul, row, m)) for m in mat] for row in block]
        else:
            out[(tgt, tb)] = mat_mul(mat, block)
    return _tidy(out, leg.p)


def tensor_act(mods: Tuple, side: str, t: Sequence[int],
               tvec: TensorVector) -> TensorVector:
    """Act on a tensor vector through the divided-power coproduct.

    ``mods`` is a pair of WeylModuleP or DualModuleP legs (mixed pairs
    allowed). Delta is an algebra map, so Delta(X^t) = sum_{a+b=t} X^a (x) X^b
    over the componentwise splits of t: X^b on leg 1, then X^a on leg 0, each
    through ``tensor_leg_act``, and the sum reduced once.
    """
    t = _monomial(mods[0].system, side, t)
    # X_beta^(k) moves a block by k*beta, so it is zero on a leg once k*beta
    # leaves the leg's box of block depths: those splits are skipped
    caps = [[min(d // c for d, c in zip(leg.box, beta) if c)
             for beta in leg.system.positive_roots] for leg in mods]
    acc: TensorVector = {}
    for b in product(*(range(max(0, k - cap_a), min(k, cap_b) + 1)
                       for k, cap_a, cap_b in zip(t, *caps))):
        a = tuple(k - j for k, j in zip(t, b))
        term = tensor_leg_act(mods, 0, side, a, tensor_leg_act(mods, 1, side, b, tvec))
        for key, block in term.items():
            prev = acc.get(key)
            acc[key] = block if prev is None else [
                [x + y for x, y in zip(r, s)] for r, s in zip(prev, block)]
    return _tidy(acc, mods[0].p)


def tensor_of(vecs: Tuple[Vector, Vector], reduce=None) -> TensorVector:
    """The tensor of two single-module vectors: one outer-product block per
    pair of blocks, all-zero blocks dropped."""
    va, vb = vecs
    out: TensorVector = {}
    for ta, ca in va.items():
        for tb, cb in vb.items():
            block = [[x * y for y in cb] for x in ca]
            if reduce is not None:
                block = [[reduce(v) for v in row] for row in block]
            if any(map(any, block)):
                out[(ta, tb)] = block
    return out
