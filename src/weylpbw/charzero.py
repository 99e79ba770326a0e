"""Characteristic-zero highest-weight modules and their minimal integral forms.

Two layers live here. ``HWModuleQ`` realises the irreducible module V(lam)
over Q one weight block at a time: each block carries an exact Gram matrix of
the contravariant form, and new blocks are spanned by applying simple lowering
operators to the block one step up, with linear relations detected through the
Gram matrix alone (no ambient module is ever materialised). Every root
operator, raising or lowering, comes from one routine: simple roots are read
off that construction, and each other root beta = alpha_i + rest from the
Chevalley commutator of X_i and X_rest, on the E side and the F side alike.
``AdmissibleLattice`` then extracts the minimal integral form: the Z-span of
all divided-power lowering monomials applied to the highest vector. Its output
is pure integer data — block dimensions, block weights, and integer matrices
for every root raising/lowering operator in lattice coordinates — which is
what the modular layer consumes.

Everything is exact (Fraction / int); nothing here depends on a prime. The
hot paths keep Fraction work to a minimum: matrix-vector products walk only
the nonzero entries, the Gram product Gram(mid) @ E_i u is computed once per
candidate column, block ranks come from fraction-free elimination
(``linalg.rank_dense``), and operators are rewritten in lattice coordinates
by integer forward substitution against the block's Hermite basis, which is
square, upper triangular and has a positive diagonal. A failed invariant
raises ``InvariantError``, which ``python -O`` does not strip.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import ScaledLattice, rank_dense, solve_dense
from .rootsys import InvariantError, ResourceCapError, RootSystem, build_root_system

Coords = Tuple[int, ...]
Weight = Tuple[int, ...]
Matrix = List[List[Fraction]]

DIM_CAP_DEFAULT = 200_000


def _zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def _mat_vec(mat: Sequence[Sequence], vec: Sequence) -> List[Fraction]:
    """mat @ vec over the nonzero entries of vec; entries are always Fraction."""
    nz = [(c, v) for c, v in enumerate(vec) if v]
    out = []
    for row in mat:
        acc = Fraction(0)
        for c, v in nz:
            x = row[c]
            if x:
                acc += x * v
        out.append(acc)
    return out


def _add_product(out: Matrix, a: Matrix, b: Matrix, coef: Fraction) -> None:
    """out += coef * (a @ b); nothing when a factor is absent ([])."""
    if not a or not b:
        return
    for arow, orow in zip(a, out):
        for k, v in enumerate(arow):
            if not v:
                continue
            w = v * coef
            for c, x in enumerate(b[k]):
                if x:
                    orow[c] += w * x


def _root_splits(system: RootSystem) -> Dict[int, Tuple[int, int, int]]:
    """beta = alpha_i + rest for every non-simple positive root #pos.

    Maps pos to (position of alpha_i, position of rest, N(alpha_i, rest)),
    with i the first simple root whose removal leaves a root.
    """
    splits = {}
    for pos, beta in enumerate(system.positive_roots):
        if sum(beta) == 1:
            continue
        for i in range(system.rank):
            rest = tuple(v - (k == i) for k, v in enumerate(beta))
            if beta[i] and system.is_positive_root(rest):
                break
        alpha = tuple(int(k == i) for k in range(system.rank))
        n_const = system.structure_constant(alpha, rest)
        if n_const == 0:
            raise InvariantError(f"zero structure constant for root {beta}")
        splits[pos] = (system.pos_index[alpha], system.pos_index[rest], n_const)
    return splits


@dataclass
class _Block:
    key: Coords
    weight: Weight
    dim: int
    candidates: List[Tuple[int, int]]          # (simple index i, basis index in block key - e_i)
    gram: Matrix                               # Gram of the chosen basis, dim x dim
    expand: Matrix                             # dim x n_candidates: candidate -> basis coords
    emat: List[Optional[Matrix]]               # per simple i: matrix of E_i into block key - e_i


class HWModuleQ:
    """The irreducible module with a given dominant highest weight, over Q.

    Blocks are indexed by the root coordinates of lam - mu ("depth"). Basis
    vectors of a block are chosen among the candidates F_i u (u running over
    the basis one step up), picked by Gram-matrix pivoting, so every basis
    vector is by construction a lowering monomial applied to the highest
    vector. All operator matrices are expressed in these block bases, and
    ``f_root``/``e_root`` are the two sides of one commutator routine with one
    cache keyed by (side, block, root).
    """

    def __init__(self, system, highest_weight: Weight, dim_cap: int = DIM_CAP_DEFAULT):
        self.system: RootSystem = build_root_system(system)
        lam = tuple(int(v) for v in highest_weight)
        if len(lam) != self.system.rank:
            raise ValueError("highest weight length does not match the rank")
        if not self.system.is_dominant(lam):
            raise ValueError(f"highest weight {lam} is not dominant")
        self.highest_weight = lam
        self.dim = self.system.weyl_dimension(lam)
        if self.dim > dim_cap:
            raise ResourceCapError(
                f"module dimension {self.dim} exceeds the cap {dim_cap}"
            )
        self.box: Coords = self.system.depth_vector(lam)
        self.blocks: Dict[Coords, _Block] = {}
        self._splits = _root_splits(self.system)
        self._roots: Dict[Tuple[str, Coords, int], Matrix] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _block_weight(self, t: Coords) -> Weight:
        shift = self.system.root_weight_coords(t)
        return tuple(l - s for l, s in zip(self.highest_weight, shift))

    def _build(self) -> None:
        rank = self.system.rank
        total = 0
        points = itertools.product(*(range(b + 1) for b in self.box))
        for t in sorted(points, key=lambda t: (sum(t), t)):
            if sum(t) == 0:
                blk = _Block(t, self.highest_weight, 1, [], [[Fraction(1)]],
                             [], [None] * rank)
                blk.emat = [[] for _ in range(rank)]  # E_i kills the highest vector
                self.blocks[t] = blk
                total += 1
                continue
            blk = self._build_block(t)
            if blk.dim:
                self.blocks[t] = blk
                total += blk.dim
        if total != self.dim:
            raise InvariantError(
                f"constructed dimension {total} != Weyl dimension {self.dim}"
            )

    def _up(self, t: Coords, i: int) -> Optional[_Block]:
        if t[i] == 0:
            return None
        key = tuple(v - (1 if k == i else 0) for k, v in enumerate(t))
        return self.blocks.get(key)

    def _build_block(self, t: Coords) -> _Block:
        rank = self.system.rank
        weight = self._block_weight(t)
        cands: List[Tuple[int, int]] = []
        for i in range(rank):
            src = self._up(t, i)
            if src is not None:
                cands.extend((i, b) for b in range(src.dim))

        # Gram matrix of all candidates, via the one- and two-step-up blocks.
        n = len(cands)
        gram = _zeros(n, n)
        for col, (j, bp) in enumerate(cands):
            up_j = self._up(t, j)
            # gm_by_root[i] = Gram(mid) @ E_i u_{bp}, where E_i maps u_{bp} in
            # block t - e_j to mid = t - e_j - e_i; it depends on (col, i) only.
            gm_by_root: Dict[int, List[Fraction]] = {}
            for i in {c[0] for c in cands}:
                if up_j.key[i] == 0:
                    continue
                mat = up_j.emat[i]
                if mat is None or not mat:
                    continue
                w = [mat[r][bp] for r in range(len(mat))]
                if not any(w):
                    continue
                mid = self.blocks.get(tuple(
                    v - (1 if k == i else 0) - (1 if k == j else 0)
                    for k, v in enumerate(t)
                ))
                if mid is not None and mid.dim:
                    gm_by_root[i] = _mat_vec(mid.gram, w)
            for row, (i, b) in enumerate(cands):
                if row > col:
                    break  # symmetric: fill upper triangle, mirror below
                up_i = self._up(t, i)
                val = Fraction(0)
                gm = gm_by_root.get(i)
                if gm is not None:
                    vb = up_i.emat[j]
                    if vb:
                        for r, g in enumerate(gm):
                            if g:
                                x = vb[r][b]
                                if x:
                                    val += x * g
                if i == j:
                    h = up_i.weight[i]
                    val += h * up_i.gram[b][bp]
                gram[row][col] = val
                gram[col][row] = val

        dim, pivots = rank_dense(gram)
        if dim == 0:
            return _Block(t, weight, 0, cands, [], [], [[] for _ in range(rank)])

        sel = [[gram[r][c] for c in pivots] for r in pivots]
        # expand[:, c] = coordinates of candidate c in the pivot basis; the
        # j-th pivot candidate is the j-th basis vector, so only the other
        # candidates need a solve
        unit = {c: j for j, c in enumerate(pivots)}
        others = [c for c in range(n) if c not in unit]
        solved = dict(zip(others, solve_dense(sel, [[gram[r][c] for r in pivots]
                                                     for c in others])))
        expand = [[solved[c][r] if c in solved else Fraction(int(unit[c] == r))
                   for c in range(n)] for r in range(dim)]
        basis_gram = [[gram[pivots[r]][pivots[c]] for c in range(dim)] for r in range(dim)]

        blk = _Block(t, weight, dim, cands, basis_gram, expand, [None] * rank)
        blk.emat = [self._emat_for(blk, j, pivots) for j in range(rank)]
        return blk

    def _emat_for(self, blk: _Block, j: int, pivots: List[int]) -> Matrix:
        """Matrix of E_j on the new block, into block key - e_j."""
        t = blk.key
        if t[j] == 0:
            return []
        tgt_key = tuple(v - (1 if k == j else 0) for k, v in enumerate(t))
        tgt = self.blocks.get(tgt_key)
        if tgt is None or tgt.dim == 0:
            return []
        out = _zeros(tgt.dim, blk.dim)
        cand_pos = {key: idx for idx, key in enumerate(tgt.candidates)}
        for col, ci in enumerate(pivots):
            i, b = blk.candidates[ci]
            src = self._up(t, i)  # u_b lives here
            # term 1: F_i (E_j u_b), re-expanded in the target block basis
            if src.key[j] > 0 and src.emat[j]:
                w = [src.emat[j][r][b] for r in range(len(src.emat[j]))]
                for a, wa in enumerate(w):
                    if wa == 0:
                        continue
                    idx = cand_pos.get((i, a))
                    if idx is None:
                        continue
                    for r in range(tgt.dim):
                        out[r][col] += wa * tgt.expand[r][idx]
            # term 2: the Cartan correction when the same string is retraced
            if i == j:
                h = src.weight[i]
                if h:
                    out[b][col] += h  # i == j, so tgt is src and b < tgt.dim
        return out

    # -- public accessors -----------------------------------------------------

    def gram(self, t: Coords) -> Matrix:
        return self.blocks[tuple(t)].gram

    def f_root(self, t: Coords, pos: int) -> Matrix:
        """Matrix of the lowering operator for positive root #pos on block t."""
        return self._root("F", tuple(t), pos)

    def e_root(self, t: Coords, pos: int) -> Matrix:
        """Matrix of the raising operator for positive root #pos on block t."""
        return self._root("E", tuple(t), pos)

    def _root(self, side: str, t: Coords, pos: int) -> Matrix:
        """X_beta on block t, into block t + beta ("F") or t - beta ("E").

        [] when either block is absent. F_i is read off the target block's
        candidate expansion and E_i is the stored ``emat``; a non-simple root
        comes from the Chevalley relations [E_i, E_rest] = N(alpha_i, rest)
        E_beta and [F_i, F_rest] = -N(alpha_i, rest) F_beta.
        """
        key = (side, t, pos)
        hit = self._roots.get(key)
        if hit is not None:
            return hit
        sign = 1 if side == "F" else -1
        roots = self.system.positive_roots

        def moved(c: int) -> Coords:
            return tuple(v + sign * d for v, d in zip(t, roots[c]))

        src, tgt = self.blocks.get(t), self.blocks.get(moved(pos))
        if src is None or tgt is None:
            mat = []
        elif pos in self._splits:
            ipos, rpos, n_const = self._splits[pos]
            public = self.f_root if side == "F" else self.e_root
            scale = Fraction(-sign, n_const)
            mat = _zeros(tgt.dim, src.dim)
            # X_i X_rest - X_rest X_i; a term whose middle block is absent
            # has both factors absent and adds nothing
            _add_product(mat, self._root(side, moved(rpos), ipos), public(t, rpos), scale)
            _add_product(mat, public(moved(ipos), rpos), self._root(side, t, ipos), -scale)
        elif side == "F":
            first = tgt.candidates.index((roots[pos].index(1), 0))
            mat = [row[first:first + src.dim] for row in tgt.expand]
        else:
            mat = src.emat[roots[pos].index(1)]
        self._roots[key] = mat
        return mat


class AdmissibleLattice:
    """Minimal integral form of V(lam): integer operator matrices per block.

    The lattice in each weight block is generated by every ordered divided
    lowering monomial applied to the highest vector; bases are canonical
    (Hermite form), so the integer data below is reproducible bit for bit
    across runs and platforms.
    """

    def __init__(self, system, highest_weight: Weight, *,
                 block_order: Sequence[Coords],
                 weights: Dict[Coords, Weight],
                 dims: Dict[Coords, int],
                 e_gen: Dict[Tuple[int, Coords], List[List[int]]],
                 f_gen: Dict[Tuple[int, Coords], List[List[int]]]):
        self.system: RootSystem = build_root_system(system)
        self.highest_weight = tuple(highest_weight)
        self.block_order = [tuple(t) for t in block_order]
        self.weights = weights
        self.dims = dims
        self.e_gen = e_gen
        self.f_gen = f_gen
        self.dim = sum(dims.values())

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, system, highest_weight: Weight,
              dim_cap: int = DIM_CAP_DEFAULT) -> "AdmissibleLattice":
        module = HWModuleQ(system, highest_weight, dim_cap)
        sysm = module.system
        lattices: Dict[Coords, ScaledLattice] = {
            t: ScaledLattice(blk.dim) for t, blk in module.blocks.items()
        }
        zero_t = tuple(0 for _ in range(sysm.rank))

        def descend(pos: int, t: Coords, vec: List[Fraction]) -> None:
            if pos < 0:
                return
            descend(pos - 1, t, vec)
            beta = sysm.positive_roots[pos]
            cur_t, cur = t, vec
            step = 0
            while True:
                step += 1
                mat = module.f_root(cur_t, pos)
                if not mat:
                    break
                cur = [v / step for v in _mat_vec(mat, cur)]
                cur_t = tuple(v + d for v, d in zip(cur_t, beta))
                if not any(cur):
                    break
                lattices[cur_t].insert(cur)
                descend(pos - 1, cur_t, cur)

        lattices[zero_t].insert([Fraction(1)])
        descend(sysm.n_pos - 1, zero_t, [Fraction(1)])

        dens: Dict[Coords, int] = {}
        rows: Dict[Coords, List[Tuple[int, ...]]] = {}
        for t, blk in module.blocks.items():
            den, basis = lattices[t].finalize()
            if len(basis) != blk.dim:
                raise InvariantError(
                    f"lattice rank {len(basis)} != block dimension {blk.dim} at {t}"
                )
            dens[t] = den
            rows[t] = basis

        def to_lattice(src: Coords, tgt: Coords, mat: Matrix) -> List[List[int]]:
            """Rewrite a Q-basis operator block in lattice coordinates."""
            sdim, tdim = module.blocks[src].dim, module.blocks[tgt].dim
            # rows[tgt] is the HNF basis of a full-rank lattice: square, upper
            # triangular, positive diagonal. Solving basis^T @ x = image is a
            # forward substitution, and x is integral iff every step divides.
            basis = rows[tgt]
            scale = Fraction(dens[tgt], dens[src])
            out: List[List[int]] = [[0] * sdim for _ in range(tdim)]
            for a in range(sdim):
                image = _mat_vec(mat, rows[src][a])
                x: List[int] = []
                for r in range(tdim):
                    v = image[r] * scale
                    acc = v.numerator - sum(basis[k][r] * x[k] for k in range(r) if x[k])
                    q, rem = divmod(acc, basis[r][r])
                    if rem or v.denominator != 1:
                        raise InvariantError(
                            f"operator matrix not integral on the lattice at {src}"
                        )
                    x.append(q)
                    out[r][a] = q
            return out

        e_gen: Dict[Tuple[int, Coords], List[List[int]]] = {}
        f_gen: Dict[Tuple[int, Coords], List[List[int]]] = {}
        sides = ((f_gen, 1, module.f_root), (e_gen, -1, module.e_root))
        for t in module.blocks:
            for pos, beta in enumerate(sysm.positive_roots):
                for gen, sign, operator in sides:
                    tgt = tuple(v + sign * d for v, d in zip(t, beta))
                    if tgt in module.blocks:
                        gen[(pos, t)] = to_lattice(t, tgt, operator(t, pos))

        weights = {t: blk.weight for t, blk in module.blocks.items()}
        dims = {t: blk.dim for t, blk in module.blocks.items()}
        return cls(sysm, highest_weight, block_order=list(module.blocks),
                   weights=weights, dims=dims, e_gen=e_gen, f_gen=f_gen)

    # -- serialization ----------------------------------------------------------

    def to_payload(self) -> dict:
        def tkey(t: Coords) -> str:
            return ",".join(str(v) for v in t)

        return {
            "cartan": [list(r) for r in self.system.cartan.matrix],
            "highest_weight": list(self.highest_weight),
            "blocks": [
                {
                    "t": list(t),
                    "weight": list(self.weights[t]),
                    "dim": self.dims[t],
                }
                for t in self.block_order
            ],
            "e": {f"{pos}|{tkey(t)}": mat for (pos, t), mat in sorted(self.e_gen.items())},
            "f": {f"{pos}|{tkey(t)}": mat for (pos, t), mat in sorted(self.f_gen.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AdmissibleLattice":
        system = build_root_system([tuple(r) for r in payload["cartan"]])

        def parse(label: str) -> Tuple[int, Coords]:
            pos_s, t_s = label.split("|")
            return int(pos_s), tuple(int(v) for v in t_s.split(","))

        block_order = [tuple(b["t"]) for b in payload["blocks"]]
        weights = {tuple(b["t"]): tuple(b["weight"]) for b in payload["blocks"]}
        dims = {tuple(b["t"]): int(b["dim"]) for b in payload["blocks"]}
        e_gen = {parse(k): [[int(v) for v in row] for row in m]
                 for k, m in payload["e"].items()}
        f_gen = {parse(k): [[int(v) for v in row] for row in m]
                 for k, m in payload["f"].items()}
        return cls(system, tuple(payload["highest_weight"]),
                   block_order=block_order, weights=weights, dims=dims,
                   e_gen=e_gen, f_gen=f_gen)
