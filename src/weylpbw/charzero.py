"""Characteristic-zero highest-weight modules and their minimal integral forms.

Two layers live here. ``HWModuleQ`` realises the irreducible module V(lam)
over Q one weight block at a time: each block carries an exact Gram matrix of
the contravariant form, and new blocks are spanned by applying simple lowering
operators to the block one step up, with linear relations detected through the
Gram matrix alone (no ambient module is ever materialised). ``AdmissibleLattice``
then extracts the minimal integral form: the Z-span of all divided-power
lowering monomials applied to the highest vector. Its output is pure integer
data — block dimensions, block weights, and integer matrices for every root
raising/lowering operator in lattice coordinates — which is what the modular
layer consumes.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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


def _mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    if not a or not b:
        return _zeros(len(a), len(b[0]) if b else 0)
    n, k, m = len(a), len(b), len(b[0])
    out = _zeros(n, m)
    for r in range(n):
        ar = a[r]
        orow = out[r]
        for t in range(k):
            v = ar[t]
            if not v:
                continue
            brow = b[t]
            for c in range(m):
                if brow[c]:
                    orow[c] += v * brow[c]
    return out


def _mat_axpy(a: Matrix, b: Matrix, scale: Fraction) -> Matrix:
    """a - b, then multiplied by scale (shapes must agree)."""
    return [[(a[r][c] - b[r][c]) * scale for c in range(len(a[0]))] for r in range(len(a))] if a else []


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
    vector. All operator matrices are expressed in these block bases.
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
        self._f_root_cache: Dict[Tuple[Coords, int], Matrix] = {}
        self._e_root_cache: Dict[Tuple[Coords, int], Matrix] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _block_weight(self, t: Coords) -> Weight:
        shift = self.system.root_weight_coords(t)
        return tuple(l - s for l, s in zip(self.highest_weight, shift))

    def _box_points(self) -> Iterator[Coords]:
        def rec(prefix: List[int], pos: int) -> Iterator[Coords]:
            if pos == len(self.box):
                yield tuple(prefix)
                return
            for v in range(self.box[pos] + 1):
                prefix.append(v)
                yield from rec(prefix, pos + 1)
                prefix.pop()

        pts = list(rec([], 0))
        pts.sort(key=lambda t: (sum(t), t))
        return iter(pts)

    def _build(self) -> None:
        rank = self.system.rank
        total = 0
        for t in self._box_points():
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

    def block_dim(self, t: Coords) -> int:
        blk = self.blocks.get(tuple(t))
        return blk.dim if blk else 0

    def gram(self, t: Coords) -> Matrix:
        return self.blocks[tuple(t)].gram

    def e_simple(self, t: Coords, i: int) -> Matrix:
        """Matrix of E_{alpha_i}: block t -> block t - e_i (rows x cols sized)."""
        blk = self.blocks.get(tuple(t))
        if blk is None:
            return []
        mat = blk.emat[i]
        return mat if mat else []

    def f_simple(self, t: Coords, i: int) -> Matrix:
        """Matrix of F_{alpha_i}: block t -> block t + e_i."""
        t = tuple(t)
        blk = self.blocks.get(t)
        if blk is None or blk.dim == 0:
            return []
        tgt_key = tuple(v + (1 if k == i else 0) for k, v in enumerate(t))
        tgt = self.blocks.get(tgt_key)
        if tgt is None or tgt.dim == 0:
            return []
        cand_pos = {key: idx for idx, key in enumerate(tgt.candidates)}
        out = _zeros(tgt.dim, blk.dim)
        for b in range(blk.dim):
            idx = cand_pos.get((i, b))
            if idx is None:
                continue
            for r in range(tgt.dim):
                out[r][b] = tgt.expand[r][idx]
        return out

    def _shift(self, t: Coords, c: Coords, sign: int) -> Coords:
        return tuple(v + sign * d for v, d in zip(t, c))

    def f_root(self, t: Coords, pos: int) -> Matrix:
        """Matrix of the lowering operator for positive root #pos on block t."""
        t = tuple(t)
        key = (t, pos)
        hit = self._f_root_cache.get(key)
        if hit is not None:
            return hit
        beta = self.system.positive_roots[pos]
        src = self.blocks.get(t)
        tgt = self.blocks.get(self._shift(t, beta, +1))
        if src is None or tgt is None or src.dim == 0 or tgt.dim == 0:
            self._f_root_cache[key] = []
            return []
        if sum(beta) == 1:
            mat = self.f_simple(t, beta.index(1))
        else:
            i = next(k for k in range(self.system.rank)
                     if beta[k] > 0 and self.system.is_positive_root(
                         tuple(v - (1 if m == k else 0) for m, v in enumerate(beta))))
            rest = tuple(v - (1 if m == i else 0) for m, v in enumerate(beta))
            rpos = self.system.pos_index[rest]
            alpha = tuple(1 if m == i else 0 for m in range(self.system.rank))
            n_const = self.system.structure_constant(alpha, rest)
            if n_const == 0:
                raise InvariantError(f"zero structure constant for root {beta}")
            t_rest = self._shift(t, rest, +1)
            t_alpha = self._shift(t, alpha, +1)
            a = self._mul_shaped(self.f_simple(t_rest, i), self.f_root(t, rpos),
                                 tgt.dim, self.block_dim(t_rest), src.dim)
            b = self._mul_shaped(self.f_root(t_alpha, rpos), self.f_simple(t, i),
                                 tgt.dim, self.block_dim(t_alpha), src.dim)
            mat = _mat_axpy(a, b, Fraction(-1, n_const))
        mat = self._pad(mat, tgt.dim, src.dim)
        self._f_root_cache[key] = mat
        return mat

    def e_root(self, t: Coords, pos: int) -> Matrix:
        """Matrix of the raising operator for positive root #pos on block t."""
        t = tuple(t)
        key = (t, pos)
        hit = self._e_root_cache.get(key)
        if hit is not None:
            return hit
        beta = self.system.positive_roots[pos]
        src = self.blocks.get(t)
        tgt = self.blocks.get(self._shift(t, beta, -1))
        if src is None or tgt is None or src.dim == 0 or tgt.dim == 0:
            self._e_root_cache[key] = []
            return []
        if sum(beta) == 1:
            mat = self.e_simple(t, beta.index(1))
        else:
            i = next(k for k in range(self.system.rank)
                     if beta[k] > 0 and self.system.is_positive_root(
                         tuple(v - (1 if m == k else 0) for m, v in enumerate(beta))))
            rest = tuple(v - (1 if m == i else 0) for m, v in enumerate(beta))
            rpos = self.system.pos_index[rest]
            alpha = tuple(1 if m == i else 0 for m in range(self.system.rank))
            n_const = self.system.structure_constant(alpha, rest)
            if n_const == 0:
                raise InvariantError(f"zero structure constant for root {beta}")
            t_rest = self._shift(t, rest, -1)
            t_alpha = self._shift(t, alpha, -1)
            a = self._mul_shaped(self.e_simple(t_rest, i), self.e_root(t, rpos),
                                 tgt.dim, self.block_dim(t_rest), src.dim)
            b = self._mul_shaped(self.e_root(t_alpha, rpos), self.e_simple(t, i),
                                 tgt.dim, self.block_dim(t_alpha), src.dim)
            mat = _mat_axpy(a, b, Fraction(1, n_const))
        mat = self._pad(mat, tgt.dim, src.dim)
        self._e_root_cache[key] = mat
        return mat

    @staticmethod
    def _pad(mat: Matrix, nrows: int, ncols: int) -> Matrix:
        if mat:
            return mat
        return _zeros(nrows, ncols)

    def _mul_shaped(self, a: Matrix, b: Matrix, nrows: int, ninner: int,
                    ncols: int) -> Matrix:
        if nrows == 0 or ninner == 0 or ncols == 0:
            return _zeros(nrows, ncols)
        return _mat_mul(self._pad(a, nrows, ninner), self._pad(b, ninner, ncols))


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

        def insert(t: Coords, vec: List[Fraction]) -> None:
            lattices[t].insert(vec)

        npos = sysm.n_pos
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
                nxt_t = tuple(v + d for v, d in zip(cur_t, beta))
                if not mat or module.blocks.get(nxt_t) is None:
                    break
                cur = [v / step for v in _mat_vec(mat, cur)]
                cur_t = nxt_t
                if not any(cur):
                    break
                insert(cur_t, cur)
                descend(pos - 1, cur_t, cur)

        insert(zero_t, [Fraction(1)])
        descend(npos - 1, zero_t, [Fraction(1)])

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
            if not mat:
                return [[0] * sdim for _ in range(tdim)]
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
        for t, blk in module.blocks.items():
            if blk.dim == 0:
                continue
            for pos in range(npos):
                beta = sysm.positive_roots[pos]
                down = tuple(v + d for v, d in zip(t, beta))
                if module.blocks.get(down) is not None:
                    f_gen[(pos, t)] = to_lattice(t, down, module.f_root(t, pos))
                up = tuple(v - d for v, d in zip(t, beta))
                if module.blocks.get(up) is not None:
                    e_gen[(pos, t)] = to_lattice(t, up, module.e_root(t, pos))

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
