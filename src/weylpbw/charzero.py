"""Characteristic-zero highest-weight modules and their minimal integral forms.

Two layers live here. ``HWModuleQ`` realises the irreducible module V(lam)
over Q one weight block at a time: each block carries the Gram matrix of the
contravariant form, and new blocks are spanned by applying simple lowering
operators to the block one step up, with linear relations detected through the
Gram matrix alone (no ambient module is ever materialised); it yields the
simple-root operators E_i and F_i. ``AdmissibleLattice`` then extracts the
minimal integral form U_Z^- v. U_Z^- is generated by the simple-root divided
powers F_i^(k) (Kostant, "Groups over Z"), so block by block L_t is the sum of
F_i^(k) L_{t - k alpha_i}. The simple E_i and F_i are rewritten in lattice
coordinates, and each other root beta = alpha + rest, split along its
extraspecial pair, follows over Z from the Chevalley commutator of X_alpha
and X_rest, divided exactly by the structure constant. The output is pure
integer data for the modular layer: block dimensions and integer matrices, in
lattice coordinates, for the root operators; the rest follows from the depths.

Everything is exact integer arithmetic; nothing here depends on a prime.
Every basis vector is an integer lowering monomial applied to the highest
vector, so every Gram matrix is integral (Jantzen, II.8). Only a block's
inverse Gram is rational, and it is kept as an integer pair (d, X) with
G X = d I from one fraction-free Gauss-Jordan pass; each simple operator
comes out as an integer matrix over one denominator. Generators are pushed
as integer rows over one denominator each, and operators reach lattice
coordinates by integer forward substitution against the block's Hermite
basis (square, upper triangular, positive diagonal). A failed invariant
raises ``InvariantError``, which ``python -O`` does not strip.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from operator import add, mul, sub
from typing import Dict, List, Optional, Tuple

from .linalg import ScaledLattice, inverse_pair, mat_mul, rank_dense
from .rootsys import InvariantError, ResourceCapError, RootSystem, build_root_system

Coords = Tuple[int, ...]
Weight = Tuple[int, ...]
IntMatrix = List[List[int]]

DIM_CAP_DEFAULT = 200_000


def _root_splits(system: RootSystem) -> Dict[int, Tuple[int, int, int]]:
    """beta = alpha + rest for every non-simple positive root #pos, split
    along its extraspecial pair (alpha, rest). Maps pos to (position of
    alpha, position of rest, N(alpha, rest))."""
    splits = {}
    for pos, beta in enumerate(system.positive_roots):
        if sum(beta) == 1:
            continue
        alpha, rest = system.extraspecial_pair(beta)
        n_const = system.structure_constant(alpha, rest)
        if n_const == 0:
            raise InvariantError(f"zero structure constant for root {beta}")
        splits[pos] = (system.pos_index[alpha], system.pos_index[rest], n_const)
    return splits


def _block_weight(system: RootSystem, highest_weight: Weight, t: Coords) -> Weight:
    """The weight lam - sum t_i alpha_i of block t, in weight coordinates."""
    return tuple(map(sub, highest_weight, system.root_weight_coords(t)))


def _edges(system: RootSystem, blocks, sign: int) -> Dict[Tuple[int, Coords], Coords]:
    """(pos, t) -> t + sign beta_pos for every root #pos and block t whose
    target is a block: the F_beta (sign 1) or E_beta (sign -1) matrices a
    lattice on ``blocks`` holds."""
    steps = [tuple(sign * c for c in beta) for beta in system.positive_roots]
    # the display sizes each target at once; tuple(map(...)) would resize it
    return {(pos, t): tgt for pos, step in enumerate(steps) for t in blocks
            if (tgt := (*map(add, t, step),)) in blocks}


@dataclass
class _Block:
    key: Coords
    weight: Weight
    dim: int
    candidates: List[Tuple[int, int]]  # (simple index i, basis index in block key - e_i)
    gram: IntMatrix                    # G: Gram of the chosen basis, dim x dim
    den: int                           # d > 0 ...
    adj: IntMatrix                     # ... and X with G X = d I, so G^-1 = X / d
    # per simple j, [] when block key - e_j is absent:
    pairing: List[IntMatrix]           # P[j][a][b] = <u_a of key - e_j, E_j u_b>
    lower: List[IntMatrix]             # X_{key - e_j} P[j]: E_j into key - e_j, times its d


class HWModuleQ:
    """The irreducible module with a given dominant highest weight, over Q.

    Blocks are indexed by the root coordinates of lam - mu ("depth"). Basis
    vectors of a block are chosen among the candidates F_i u (u running over
    the basis one step up), picked by Gram-matrix pivoting, so every basis
    vector is an integer lowering monomial applied to the highest vector and
    every Gram entry is an integer. A block stores its Gram G, the integer
    pair (d, X) with G X = d I in place of G^-1, and its pairings with the
    blocks one step up; ``f_root``/``e_root`` give the simple-root operators
    in these block bases as (integer matrix, denominator). The other roots
    are derived over Z by ``AdmissibleLattice``.
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
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        rank = self.system.rank
        total = 0
        points = itertools.product(*(range(b + 1) for b in self.box))
        for t in sorted(points, key=lambda t: (sum(t), t)):
            if sum(t) == 0:
                self.blocks[t] = _Block(t, self.highest_weight, 1, [], [[1]], 1, [[1]],
                                        [[] for _ in range(rank)], [[] for _ in range(rank)])
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
        weight = _block_weight(self.system, self.highest_weight, t)
        ups = [self._up(t, i) for i in range(rank)]
        cands: List[Tuple[int, int]] = []
        first: Dict[int, int] = {}     # i -> index of candidate (i, 0)
        for i, up in enumerate(ups):
            if up is not None:
                first[i] = len(cands)
                cands.extend((i, b) for b in range(up.dim))

        # <F_i u_b, F_j u_c> = <E_j u_b, E_i u_c> + [i == j] h_i <u_b, u_c>, with
        # u_b in block t - e_i, u_c in block t - e_j and h_i the pairing of the
        # weight of t - e_i with alpha_i. Both E-images lie in mid = t - e_i - e_j;
        # the first term is P_{t-e_i}[j]^T X_mid P_{t-e_j}[i] / d_mid, read off
        # as (column b of P_{t-e_i}[j]) . (column c of lower[i] of t - e_j).
        n = len(cands)
        gram = [[0] * n for _ in range(n)]
        for i, up_i in enumerate(ups):
            if up_i is None:
                continue
            for j in range(i, rank):
                up_j = ups[j]
                if up_j is None:
                    continue
                block = [[0] * up_j.dim for _ in range(up_i.dim)]
                mid = self._up(up_i.key, j)
                if mid is not None:
                    rights = list(zip(*up_j.lower[i]))
                    for out, left in zip(block, zip(*up_i.pairing[j])):
                        for c, right in enumerate(rights):
                            out[c], rem = divmod(sum(map(mul, left, right)), mid.den)
                            if rem:
                                raise InvariantError(
                                    f"candidate Gram entry at block {t} is not integral"
                                )
                if i == j:
                    h = up_i.weight[i]
                    for out, g_row in zip(block, up_i.gram):
                        for c, g in enumerate(g_row):
                            out[c] += h * g
                for b, out in enumerate(block):
                    row = first[i] + b
                    for c, val in enumerate(out):
                        gram[row][first[j] + c] = gram[first[j] + c][row] = val

        dim, pivots = rank_dense(gram)
        if dim == 0:
            return _Block(t, weight, 0, cands, [], 1, [], [], [])
        basis_gram = [[gram[r][c] for c in pivots] for r in pivots]
        try:
            den, adj = inverse_pair(basis_gram)
        except ValueError:
            raise InvariantError(f"chosen basis Gram at block {t} is singular") from None
        # <u_a of t - e_j, E_j u_b> = <F_j u_a, u_b>: candidate (j, a) against pivot b
        pairing = [[[gram[first[j] + a][c] for c in pivots] for a in range(up.dim)]
                   if up is not None else [] for j, up in enumerate(ups)]
        lower = [mat_mul(up.adj, pairing[j]) if up is not None else []
                 for j, up in enumerate(ups)]
        return _Block(t, weight, dim, cands, basis_gram, den, adj, pairing, lower)

    # -- public accessors -----------------------------------------------------

    def gram(self, t: Coords) -> IntMatrix:
        return self.blocks[tuple(t)].gram

    def f_root(self, t: Coords, pos: int) -> Tuple[IntMatrix, int]:
        """F_i on block t into block t + alpha_i, for the simple root #pos, as
        (ints, den) with matrix ints / den; ([], 1) when either block is absent."""
        i = self._simple(pos)
        src = self.blocks.get(tuple(t))
        tgt = self.blocks.get(tuple(v + (k == i) for k, v in enumerate(t)))
        if src is None or tgt is None:
            return [], 1
        # G_tgt y = (<u_c, F_i u_a>)_c = row a of P_tgt[i], so y = X_tgt P_tgt[i]^T / d_tgt
        return mat_mul(tgt.adj, list(zip(*tgt.pairing[i]))), tgt.den

    def e_root(self, t: Coords, pos: int) -> Tuple[IntMatrix, int]:
        """E_i on block t into block t - alpha_i, for the simple root #pos, as
        (ints, den) with matrix ints / den; ([], 1) when either block is absent."""
        i = self._simple(pos)
        src = self.blocks.get(tuple(t))
        tgt = None if src is None else self._up(src.key, i)
        if tgt is None:
            return [], 1
        return src.lower[i], tgt.den

    def _simple(self, pos: int) -> int:
        beta = self.system.positive_roots[pos]
        if sum(beta) != 1:
            raise ValueError(f"root #{pos} {beta} is not simple")
        return beta.index(1)


class AdmissibleLattice:
    """Minimal integral form of V(lam): integer operator matrices per block.

    The lattice is U_Z^- v, the Z-span of every ordered divided lowering
    monomial applied to the highest vector; ``build`` generates it from the
    simple-root divided powers alone and derives the non-simple root
    operators over Z by exact commutators. Bases are canonical (Hermite
    form), so the integer data below is reproducible bit for bit across runs
    and platforms. Blocks run in ``dims`` order, by depth. Block weights
    are derived from the depths; there is a matrix for each pair of ``_edges``.
    """

    def __init__(self, system, highest_weight: Weight, *,
                 dims: Dict[Coords, int],
                 e_gen: Dict[Tuple[int, Coords], List[List[int]]],
                 f_gen: Dict[Tuple[int, Coords], List[List[int]]]):
        self.system: RootSystem = build_root_system(system)
        self.highest_weight = tuple(highest_weight)
        self.weights = {t: _block_weight(self.system, self.highest_weight, t) for t in dims}
        self.dims, self.e_gen, self.f_gen = dims, e_gen, f_gen
        self.dim = sum(dims.values())

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, system, highest_weight: Weight,
              dim_cap: int = DIM_CAP_DEFAULT) -> "AdmissibleLattice":
        module = HWModuleQ(system, highest_weight, dim_cap)
        sysm, blocks = module.system, module.blocks
        roots = sysm.positive_roots
        simple = range(sysm.n_pos - sysm.rank, sysm.n_pos)
        f_edges, e_edges = _edges(sysm, blocks, 1), _edges(sysm, blocks, -1)

        @functools.cache
        def simple_op(side: str, t: Coords, pos: int) -> Tuple[List[List[int]], int]:
            """The simple X_i on block t in the Q-basis, as (integers, denominator)."""
            return (module.f_root if side == "F" else module.e_root)(t, pos)

        # L_t = sum over i, k of F_i^(k) L_{t - k alpha_i}. Blocks come by
        # depth, so L_t is complete when reached; its basis is then pushed
        # down every simple string as integer rows over one denominator each,
        # with F_i^(k) = F_i F_i^(k-1) / k.
        lattices = {t: ScaledLattice(blk.dim) for t, blk in blocks.items()}
        lattices[tuple(0 for _ in range(sysm.rank))].insert([1])
        dens: Dict[Coords, int] = {}
        rows: Dict[Coords, List[Tuple[int, ...]]] = {}
        for t, blk in blocks.items():
            den, basis = lattices.pop(t).finalize()
            if len(basis) != blk.dim:
                raise InvariantError(
                    f"lattice rank {len(basis)} != block dimension {blk.dim} at {t}"
                )
            dens[t], rows[t] = den, basis
            for pos in simple:
                cur_t, cur, k = t, [(row, den) for row in basis], 1
                while cur and (pos, cur_t) in f_edges:
                    ints, op_den = simple_op("F", cur_t, pos)
                    cur_t, nxt = f_edges[(pos, cur_t)], []
                    for vec, vec_den in cur:
                        image = [sum(map(mul, r, vec)) for r in ints]
                        if any(image):
                            new_den = vec_den * op_den * k
                            g = gcd(new_den, *image)
                            nxt.append(([v // g for v in image], new_den // g))
                            lattices[cur_t].insert(*nxt[-1])
                    cur, k = nxt, k + 1

        def to_lattice(src: Coords, tgt: Coords,
                       op: Tuple[List[List[int]], int]) -> List[List[int]]:
            """Rewrite a Q-basis operator (integers, denominator) in lattice coordinates."""
            ints, den = op
            # rows[tgt] is the HNF basis of a full-rank lattice: square, upper
            # triangular, positive diagonal. Solving basis^T @ x = image is a
            # forward substitution, and x is integral iff every step divides.
            basis, div = rows[tgt], dens[src] * den
            out: List[List[int]] = [[0] * len(rows[src]) for _ in basis]
            for a, row in enumerate(rows[src]):
                x: List[int] = []
                for r, ir in enumerate(ints):
                    acc, rem = divmod(sum(map(mul, ir, row)) * dens[tgt], div)
                    if not rem:
                        acc -= sum(basis[k][r] * x[k] for k in range(r) if x[k])
                        acc, rem = divmod(acc, basis[r][r])
                    if rem:
                        raise InvariantError(
                            f"operator matrix not integral on the lattice at {src}"
                        )
                    x.append(acc)
                    out[r][a] = acc
            return out

        e_gen: Dict[Tuple[int, Coords], List[List[int]]] = {}
        f_gen: Dict[Tuple[int, Coords], List[List[int]]] = {}
        sides = (("F", f_gen, f_edges, 1), ("E", e_gen, e_edges, -1))
        for t in blocks:
            for pos in simple:
                for side, gen, edges, _ in sides:
                    tgt = edges.get((pos, t))
                    if tgt is not None:
                        gen[(pos, t)] = to_lattice(t, tgt, simple_op(side, t, pos))

        # The module, its operator memo and the Hermite bases are done with;
        # freeing them here lowers the peak memory of the build.
        dims = {t: blk.dim for t, blk in blocks.items()}
        del module, blocks, rows, dens
        simple_op.cache_clear()

        # Every other root, lowest first, from the Chevalley relations
        # [E_alpha, E_rest] = N E_beta and [F_alpha, F_rest] = -N F_beta, over Z.
        splits = _root_splits(sysm)
        for pos in sorted(splits, key=lambda c: sum(roots[c])):
            apos, rpos, n_const = splits[pos]
            for side, gen, edges, sign in sides:
                for t in dims:
                    tgt = edges.get((pos, t))
                    if tgt is None:
                        continue
                    acc = [[0] * dims[t] for _ in range(dims[tgt])]
                    # X_beta = -sign (X_alpha X_rest - X_rest X_alpha) / N; a
                    # term has both factors exactly when its middle block is a block
                    for c, mid_a, mid_b in ((-sign, apos, rpos), (sign, rpos, apos)):
                        mid = edges.get((mid_b, t))
                        if mid is None:
                            continue
                        prod = mat_mul(gen[(mid_a, mid)], gen[(mid_b, t)])
                        for out_row, prod_row in zip(acc, prod):
                            for j, v in enumerate(prod_row):
                                out_row[j] += c * v
                    for out_row in acc:
                        for j, v in enumerate(out_row):
                            out_row[j], rem = divmod(v, n_const)
                            if rem:
                                raise InvariantError(
                                    f"{side} commutator for root {roots[pos]} at block "
                                    f"{t} is not divisible by N = {n_const}"
                                )
                    gen[(pos, t)] = acc

        return cls(sysm, highest_weight, dims=dims, e_gen=e_gen, f_gen=f_gen)

    # -- serialization ----------------------------------------------------------

    def to_payload(self) -> dict:
        tkey = {t: ",".join(map(str, t)) for t in self.dims}
        return {
            "cartan": [list(r) for r in self.system.cartan.matrix],
            "highest_weight": list(self.highest_weight),
            "blocks": [{"t": list(t), "weight": list(self.weights[t]), "dim": dim}
                       for t, dim in self.dims.items()],
            "e": {f"{pos}|{tkey[t]}": mat for (pos, t), mat in sorted(self.e_gen.items())},
            "f": {f"{pos}|{tkey[t]}": mat for (pos, t), mat in sorted(self.f_gen.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict,
                     system: Optional[RootSystem] = None) -> "AdmissibleLattice":
        """The lattice a payload records. ``system`` is a root system the
        caller already holds for it: it is used when its Cartan matrix is
        the payload's (ValueError otherwise), and no root system is built.
        Anything but what ``build`` stores raises (ValueError; KeyError for a
        label not stored): distinct blocks of JSON integers, rank long, each
        with its depth's weight, and an integer e/f matrix of shape (target
        dim x source dim) for each pair of ``_edges`` and for no other."""
        cartan = tuple(tuple(r) for r in payload["cartan"])
        if system is None:
            system = build_root_system(cartan)
        elif system.cartan.matrix != cartan:
            raise ValueError("the payload is for another Cartan matrix")

        blocks, highest = payload["blocks"], payload["highest_weight"]
        dims = {tuple(b["t"]): b["dim"] for b in blocks}
        stored = [b["weight"] for b in blocks]
        ints = itertools.chain(highest, dims.values(), *dims, *stored)
        if (len(dims) != len(blocks) or not set(map(type, ints)) <= {int}
                or min(dims.values()) < 1 or {len(highest), *map(len, dims)} != {system.rank}):
            raise ValueError("the stored blocks are not distinct blocks of positive integers")
        labels = {t: ",".join(map(str, t)) for t in dims}

        def generators(table: dict, edges: dict) -> Dict[Tuple[int, Coords], IntMatrix]:
            """The stored matrix of each edge, as decoded (KeyError: none stored)."""
            if len(table) != len(edges):
                raise ValueError("the stored matrices are not one per operator of the module")
            out = {}
            for key, tgt in edges.items():
                pos, src = key
                out[key] = mat = table[f"{pos}|{labels[src]}"]
                if len(mat) != dims[tgt] or set(map(len, mat)) != {dims[src]}:
                    raise ValueError(f"a stored matrix at block {src} does not fit the module")
            return out

        e_gen = generators(payload["e"], _edges(system, dims, -1))
        f_gen = generators(payload["f"], _edges(system, dims, 1))
        rows = itertools.chain.from_iterable(itertools.chain(e_gen.values(), f_gen.values()))
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            raise ValueError("a stored matrix entry is not an integer")
        lattice = cls(system, tuple(highest), dims=dims, e_gen=e_gen, f_gen=f_gen)
        if stored != list(map(list, lattice.weights.values())):
            raise ValueError("a stored block weight is not the weight of its depth")
        return lattice
