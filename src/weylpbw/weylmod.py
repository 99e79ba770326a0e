"""Weyl modules and induced modules in positive characteristic.

``WeylModuleP`` reduces an admissible lattice mod a prime (or keeps it over Z
when ``p is None``), with divided-power generator matrices built lazily by
exact integer division and only then reduced. ``DualModuleP`` carries the
functionals on such a module under the antipode-twisted action, which is how
induced modules enter: H0(lam) is the dual of the Weyl module with highest
weight lam*. Tensor actions go through the divided-power coproduct
Delta X^(n) = sum X^(i) (x) X^(j), leg by leg.

Every action, on a module, a dual or a tensor, is one composition loop,
``_compose``: it walks the root positions from last to first and hands each
nonzero factor X_beta^(k) to a step. The steps differ only in what one factor
does: a blockwise step for modules and duals, a one-leg step and a coproduct
step for tensors. A leg of a tensor is anything offering ``system``,
``reduce``, ``dims`` and ``leg_apply``; both module classes do. The two
``leg_apply`` kernels stay separate: the module's applies a matrix, the
dual's applies its transpose with the sign (-1)^k and the block flow
reversed, and a shared kernel would have to branch on which of them it
serves.

Module vectors are sparse maps {block key -> dense coordinate list}; tensor
vectors are sparse maps {(block, block) -> {(row, row) -> scalar}}. Scalars
are ints, reduced to [0, p) whenever the module carries a prime.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .charzero import DIM_CAP_DEFAULT, AdmissibleLattice
from .rootsys import InvariantError, RootSystem

Coords = Tuple[int, ...]
Weight = Tuple[int, ...]
Vector = Dict[Coords, List[int]]
TensorVector = Dict[Tuple[Coords, Coords], Dict[Tuple[int, int], int]]


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


@dataclass(frozen=True)
class HyperMonomial:
    """An ordered product of divided powers, one exponent per positive root.

    ``side`` is "E" (raising) or "F" (lowering); the product runs over the
    fixed root order with the last root's factor applied first.
    """

    side: str
    exponents: Tuple[int, ...]

    def __post_init__(self):
        if self.side not in ("E", "F"):
            raise ValueError("side must be 'E' or 'F'")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be natural numbers")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def f_zero(n_pos: int, p: int) -> HyperMonomial:
    """The lowering monomial with every exponent p - 1."""
    return HyperMonomial("F", tuple(p - 1 for _ in range(n_pos)))


def _compose(leg, mono: HyperMonomial, vec, step: Callable):
    """Apply ``mono`` to ``vec`` one root factor at a time, last root first.

    ``step(side, pos, k, vec)`` applies the single factor X_beta^(k) of root
    position ``pos``; zero exponents are skipped, and the walk stops as soon
    as the vector dies.
    """
    n_pos = leg.system.n_pos
    if len(mono.exponents) != n_pos:
        raise ValueError("monomial length does not match the root count")
    for pos in range(n_pos - 1, -1, -1):
        k = mono.exponents[pos]
        if k == 0:
            continue
        vec = step(mono.side, pos, k, vec)
        if not vec:
            break
    return vec


def _block_step(leg, side: str, pos: int, k: int, vec: Vector) -> Vector:
    """One factor on a blockwise vector, block by block through ``leg_apply``."""
    out: Vector = {}
    for t, coords in vec.items():
        res = leg.leg_apply(side, pos, k, t, coords)
        if res is None:
            continue
        tgt, new = res
        acc = out.get(tgt)
        if acc is None:
            out[tgt] = new
        else:
            for r, v in enumerate(new):
                acc[r] = leg.reduce(acc[r] + v)
    return {t: c for t, c in out.items() if any(c)}


class WeylModuleP:
    """A Weyl module over F_p (or its integral form when p is None)."""

    def __init__(self, lattice: AdmissibleLattice, p: Optional[int]):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.lattice = lattice
        self.p = p
        self.system: RootSystem = lattice.system
        self.highest_weight: Weight = lattice.highest_weight
        self.block_order: List[Coords] = list(lattice.block_order)
        self.dims: Dict[Coords, int] = dict(lattice.dims)
        self.weights: Dict[Coords, Weight] = dict(lattice.weights)
        self.dim: int = lattice.dim
        self._div_int: Dict[Tuple[str, int, int], Dict[Coords, List[List[int]]]] = {}
        self._div_red: Dict[Tuple[str, int, int], Dict[Coords, List[List[int]]]] = {}

    @classmethod
    def build(cls, system, highest_weight: Weight, p: Optional[int],
              dim_cap: int = DIM_CAP_DEFAULT) -> "WeylModuleP":
        return cls(AdmissibleLattice.build(system, highest_weight, dim_cap), p)

    # -- scalars ---------------------------------------------------------------

    def reduce(self, v: int) -> int:
        return v % self.p if self.p is not None else v

    def zero_block(self) -> Coords:
        return tuple(0 for _ in range(self.system.rank))

    def highest_vector(self) -> Vector:
        return {self.zero_block(): [1]}

    # -- divided powers --------------------------------------------------------

    def _first_power(self, side: str, pos: int) -> Dict[Coords, List[List[int]]]:
        table = self.lattice.e_gen if side == "E" else self.lattice.f_gen
        return {t: mat for (p_, t), mat in table.items() if p_ == pos}

    def _divided_int(self, side: str, pos: int, k: int) -> Dict[Coords, List[List[int]]]:
        """Integer matrices of X_beta^(k), block by block (before reduction)."""
        key = (side, pos, k)
        hit = self._div_int.get(key)
        if hit is not None:
            return hit
        if k == 0:
            out = {t: [[int(r == c) for c in range(d)] for r in range(d)]
                   for t, d in self.dims.items() if d}
        elif k == 1:
            out = self._first_power(side, pos)
        else:
            beta = self.system.positive_roots[pos]
            sign = -1 if side == "E" else 1
            step = self._first_power(side, pos)
            prev = self._divided_int(side, pos, k - 1)
            out = {}
            for t, mat in prev.items():
                mid = tuple(v + sign * (k - 1) * c for v, c in zip(t, beta))
                top = step.get(mid)
                if top is None:
                    continue
                prod = [[sum(top[r][m] * mat[m][c] for m in range(len(mat)))
                         for c in range(len(mat[0]))] for r in range(len(top))]
                if any(v % k for row in prod for v in row):
                    raise InvariantError(
                        f"divided power {side}^({k}) of root #{pos} is not"
                        f" integral on block {t}")
                ok = [[v // k for v in row] for row in prod]
                if any(any(row) for row in ok):
                    out[t] = ok
        self._div_int[key] = out
        return out

    def divided(self, side: str, pos: int, k: int) -> Dict[Coords, List[List[int]]]:
        """Matrices of X_beta^(k) with entries reduced into the module's ring."""
        if self.p is None:
            return self._divided_int(side, pos, k)
        key = (side, pos, k)
        hit = self._div_red.get(key)
        if hit is None:
            hit = {
                t: [[v % self.p for v in row] for row in mat]
                for t, mat in self._divided_int(side, pos, k).items()
            }
            self._div_red[key] = hit
        return hit

    # -- vector plumbing ---------------------------------------------------------

    def leg_apply(self, side: str, pos: int, k: int,
                  t: Coords, coords: Sequence[int]) -> Optional[Tuple[Coords, List[int]]]:
        """Apply one divided power to a single-block vector; None when it dies."""
        if k == 0:
            return t, list(coords)
        mat = self.divided(side, pos, k).get(t)
        if mat is None:
            return None
        beta = self.system.positive_roots[pos]
        sign = -1 if side == "E" else 1
        tgt = tuple(v + sign * k * c for v, c in zip(t, beta))
        out = [self.reduce(sum(row[c] * coords[c] for c in range(len(coords))))
               for row in mat]
        if not any(out):
            return None
        return tgt, out

    def act(self, mono: HyperMonomial, vec: Vector) -> Vector:
        return _compose(self, mono, {t: list(c) for t, c in vec.items()},
                        partial(_block_step, self))

    def monomial_coords(self, s: Sequence[int]) -> Optional[List[int]]:
        """The coordinates of F^s v in its block, None when F^s kills v.

        F^s v is a weight vector, so it lies in the single block at the
        depth of s.
        """
        vec = self.act(HyperMonomial("F", s), self.highest_vector())
        return next(iter(vec.values()), None)

    def is_zero(self, vec: Vector) -> bool:
        return all(not any(c) for c in vec.values())

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

    The underlying module is V(lam*), so ``induced_weight`` is the star of its
    highest weight. A functional is stored blockwise in the basis dual to the
    lattice basis; a generator acts through the antipode, sigma(X^(k)) =
    (-1)^k X^(k), which transposes matrices and reverses the block flow.
    """

    def __init__(self, module: WeylModuleP):
        self.module = module
        self.system = module.system
        self.p = module.p
        self.dims: Dict[Coords, int] = module.dims
        self.induced_weight: Weight = module.system.star(module.highest_weight)

    def reduce(self, v: int) -> int:
        return self.module.reduce(v)

    def functional_weight(self, t: Coords) -> Weight:
        return tuple(-w for w in self.module.weights[tuple(t)])

    def leg_apply(self, side: str, pos: int, k: int,
                  t: Coords, coords: Sequence[int]) -> Optional[Tuple[Coords, List[int]]]:
        if k == 0:
            return t, list(coords)
        beta = self.system.positive_roots[pos]
        sign = -1 if side == "E" else 1
        # the functional supported on block t feeds the block "upstream" of it
        tgt = tuple(v - sign * k * c for v, c in zip(t, beta))
        if tgt not in self.dims:
            return None
        mat = self.module.divided(side, pos, k).get(tgt)
        if mat is None:
            return None
        par = -1 if k % 2 else 1
        out = [self.reduce(par * sum(mat[r][c] * coords[r] for r in range(len(coords))))
               for c in range(len(mat[0]))]
        if not any(out):
            return None
        return tgt, out

    def act(self, mono: HyperMonomial, xi: Vector) -> Vector:
        return _compose(self, mono, {t: list(c) for t, c in xi.items()},
                        partial(_block_step, self))

    def pair(self, xi: Vector, vec: Vector) -> int:
        """Evaluate the functional: the pairing eta on H0 x V(lam*)."""
        total = 0
        for t, row in xi.items():
            col = vec.get(t)
            if col is None:
                continue
            total += sum(a * b for a, b in zip(row, col))
        return self.reduce(total)


def _tensor_leg_apply(legs, idx: int, side: str, pos: int, k: int,
                      tvec: TensorVector) -> TensorVector:
    """Apply X^(k) on one tensor leg of a sparse tensor vector."""
    if k == 0:
        return tvec
    leg, reduce = legs[idx], legs[0].reduce
    out: TensorVector = {}
    for (ta, tb), entries in tvec.items():
        t_here = ta if idx == 0 else tb
        dim_here = leg.dims[t_here]
        # group the sparse entries into columns along the acted leg
        cols: Dict[int, List[int]] = {}
        for (ra, rb), val in entries.items():
            other = rb if idx == 0 else ra
            mine = ra if idx == 0 else rb
            cols.setdefault(other, [0] * dim_here)[mine] = val
        for other, coords in cols.items():
            res = leg.leg_apply(side, pos, k, t_here, coords)
            if res is None:
                continue
            tgt, new_coords = res
            key = (tgt, tb) if idx == 0 else (ta, tgt)
            slot = out.setdefault(key, {})
            for mine, val in enumerate(new_coords):
                if not val:
                    continue
                ij = (mine, other) if idx == 0 else (other, mine)
                slot[ij] = reduce(slot.get(ij, 0) + val)
    return {k_: {ij: v for ij, v in e.items() if v} for k_, e in out.items()
            if any(e.values())}


def _coproduct_step(legs, side: str, pos: int, k: int,
                    tvec: TensorVector) -> TensorVector:
    """One factor through the coproduct: sum_{i+j=k} X^(i) (x) X^(j)."""
    reduce = legs[0].reduce
    acc: TensorVector = {}
    for i in range(k + 1):
        term = _tensor_leg_apply(legs, 1, side, pos, k - i, tvec)
        term = _tensor_leg_apply(legs, 0, side, pos, i, term)
        for key, entries in term.items():
            slot = acc.setdefault(key, {})
            for ij, v in entries.items():
                slot[ij] = reduce(slot.get(ij, 0) + v)
    return {k_: {ij: v for ij, v in e.items() if v} for k_, e in acc.items()
            if any(e.values())}


def tensor_act(mods: Tuple, mono: HyperMonomial, tvec: TensorVector) -> TensorVector:
    """Act on a tensor vector through the divided-power coproduct.

    ``mods`` is a pair whose legs are WeylModuleP or DualModuleP instances
    (mixed pairs allowed); the coproduct of each root factor splits as
    sum_{i+j=k} X^(i) (x) X^(j) and the root factors compose right to left.
    """
    return _compose(mods[0], mono, tvec, partial(_coproduct_step, mods))


def tensor_leg_act(mods: Tuple, idx: int, mono: HyperMonomial,
                   tvec: TensorVector) -> TensorVector:
    """Act with a monomial on one tensor leg only: X^s (x) 1 for ``idx`` 0,
    1 (x) X^s for ``idx`` 1 (no coproduct)."""
    if idx not in (0, 1):
        raise ValueError("a tensor has legs 0 and 1")
    return _compose(mods[0], mono, tvec, partial(_tensor_leg_apply, mods, idx))


def tensor_of(vecs: Tuple[Vector, Vector], reduce=None) -> TensorVector:
    """The tensor of two single-module vectors as a sparse tensor vector."""
    va, vb = vecs
    out: TensorVector = {}
    for ta, ca in va.items():
        for tb, cb in vb.items():
            entries = {}
            for ra, x in enumerate(ca):
                if not x:
                    continue
                for rb, y in enumerate(cb):
                    if not y:
                        continue
                    v = x * y
                    if reduce is not None:
                        v = reduce(v)
                    if v:
                        entries[(ra, rb)] = v
            if entries:
                out[(ta, tb)] = entries
    return out
