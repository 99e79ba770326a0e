"""The induced PBW filtration on tensor products of Weyl modules.

For the highest-weight vectors v in V(lam) and w in V(mu), level n of the
induced filtration is

    VV_n = span{ (F^s (x) 1) . Delta(F^t) . (v (x) w) : deg s <= n },

with t running over all lowering monomials (truncated by the weight depth of
the tensor module, beyond which every monomial acts as zero). Spanning sets
use lowering monomials only — the cyclic vector is highest-weight — and the
raising/lowering stability of the levels is then *checked*, not presupposed.

No coproduct orbit is formed. The divided-power coproduct is an algebra
map, so (F^s (x) 1) . Delta(F^t) . (v (x) w) is the sum of the outer
products F^s F^a.v (x) F^b.w over a + b = t. Each leg lists its nonzero
F^a.v once, block by block inside the box (clipped to the weight group in a
restricted run): the a of a block come from ``pbw.monomials_with_depth``
and their vectors from ``WeylModuleP.monomial_coords``, which shares their
tails. For each leg monomial F^s, the sweep applies F^s to each block of
the first leg's list as one composed matrix (``weylmod._monomial_matrix``
and ``linalg.mat_mul``), and builds the vectors of all its t at once as
packed lanes (``linalg.Lanes``): with the entries of F^s F^a.v spread one
every dim_b lanes, one integer product with the encoded F^b.w is their
outer product, laid out row-major. The lanes are as wide as an exact bound
on the entries needs; signed entries (over Q) stay apart because decoding
biases every lane by half its range, and over GF(p) it reduces them mod p.
Each nonzero vector is decoded once into the dense row its weight's row
space takes, and only one that raises the rank becomes a {(block, block):
block} tensor vector; the kept vectors store each block as a tuple of row
tuples, and each equal key, row and block once.

Every spanning vector is a weight vector, so ranks are swept one total
weight at a time with exact elimination (no probabilistic shortcuts); over
GF(p) each row is packed into one int (``linalg.RowSpaceGF``). A
vector the sweep keeps adds one pivot to its weight's row space, and pivots
keep their insertion order, so every level VV_n is spanned, weight by
weight, by a prefix of those pivots: membership in any level is one
reduction against that prefix, with no second sweep.

The module also verifies the structural facts used downstream: the two
product orders span the same levels, the comparison map from the
single-factor filtration is filtration-preserving (with its graded kernel
measured, since it is not injective in general), and the norm-form identity
(F0 (x) 1) . Delta(F0) = F0 (x) F0 holds on the cyclic vector. Their F^s.v
(x) w, w the second leg's highest vector, are one block each from the first
leg's ``_leg_orbit``, and F0.v, F0.w come from ``monomial_coords``.

Everything here takes built legs, a pair (V(lam), V(mu)) of Weyl modules
over one root system and one characteristic (a square passes one module
twice); the root system, the prime and the highest weights are read from
them.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from operator import add, le, sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import input_hash
from .charzero import DIM_CAP_DEFAULT
from .linalg import Lanes, mat_mul, pivot_prefix, row_space
from .pbw import monomials_of_degree, monomials_with_depth, pbw_filtration
from .rootsys import ResourceCapError
from .weylmod import (LegTable, TensorVector, WeylModuleP, _monomial_matrix, f_zero,
                      tensor_act, tensor_leg_act, tensor_of)

Weight = Tuple[int, ...]


def _total_depth(tvec: TensorVector) -> Optional[Weight]:
    """The common total weight depth of a tensor vector's blocks (all of
    them nonzero), or None for the zero vector. Raises on an inhomogeneous
    vector."""
    group: Optional[Weight] = None
    for ta, tb in tvec:
        here = tuple(a + b for a, b in zip(ta, tb))
        if group is None:
            group = here
        elif group != here:
            raise ValueError("tensor vector is not weight-homogeneous")
    return group


def _common_field(legs: Tuple[WeylModuleP, WeylModuleP]):
    """The root system and characteristic both legs share; ValueError if
    they differ."""
    a, b = legs
    if a.system.cartan.matrix != b.system.cartan.matrix or a.p != b.p:
        raise ValueError("the two legs differ in root system or characteristic")
    return a.system, a.p


def _leg_orbit(m: WeylModuleP,
               room: Weight) -> Dict[Weight, List[Tuple[Tuple[int, ...], List[int]]]]:
    """The nonzero F^a.v, v the highest vector of ``m``, for every a whose
    depth fits ``room``: block -> [(a, coordinates)], F^a.v lying in the
    block at the depth of a. Each block lists its a by
    ``monomials_with_depth`` and takes each F^a.v from ``monomial_coords``.
    """
    out: Dict[Weight, List[Tuple[Tuple[int, ...], List[int]]]] = {}
    for block in m.dims:
        if all(map(le, block, room)):
            for a in monomials_with_depth(m.system, block):
                coords = m.monomial_coords(a)
                if coords is not None:
                    out.setdefault(block, []).append((a, coords))
    return out


def _leg_vectors_by_degree(a: WeylModuleP) -> List[List[TensorVector]]:
    """The nonzero F^s.v (x) w, w the other leg's highest vector, by the
    degree of s: each one dim_a x 1 block, read from ``_leg_orbit``."""
    top = (0,) * a.system.rank
    out: List[List[TensorVector]] = [[] for _ in range(sum(a.box) + 1)]
    for block, vecs in _leg_orbit(a, a.box).items():
        for s, coords in vecs:
            out[sum(s)].append({(block, top): [[c] for c in coords]})
    return out


class _WeightSpan:
    """Row spaces of weight-homogeneous tensor vectors, one per total weight.

    A vector becomes one dense row of its weight's space: each block pair
    gets a column offset the first time it is seen, and its dim_a x dim_b
    block is laid out row-major from there. Ranks and memberships do not
    depend on the order in which block pairs arrive. A vector is given as a
    tensor vector, or as the pair (weight, {block pair: row-major entries})
    the filtration's sweep decodes.
    """

    def __init__(self, p: Optional[int]):
        self.p = p
        self._spaces: Dict[Weight, object] = {}
        self._offsets: Dict[Weight, Dict[tuple, int]] = {}
        self._widths: Dict[Weight, int] = {}

    def _row(self, vec) -> Tuple[Optional[Weight], List[int]]:
        """The weight of a nonzero vector and its dense row; (None, []) for
        the zero tensor vector."""
        if isinstance(vec, tuple):
            group, flats = vec
        else:
            group = _total_depth(vec)
            if group is None:
                return None, []
            flats = {key: [v for vals in block for v in vals] for key, block in vec.items()}
        offsets = self._offsets.setdefault(group, {})
        for key, flat in flats.items():
            if key not in offsets:
                offsets[key] = self._widths.get(group, 0)
                self._widths[group] = offsets[key] + len(flat)
        row = [0] * self._widths[group]
        for key, flat in flats.items():
            row[offsets[key]:offsets[key] + len(flat)] = flat
        return group, row

    def insert(self, vec) -> bool:
        group, row = self._row(vec)
        if group is None:
            return False
        space = self._spaces.get(group)
        if space is None:
            space = self._spaces[group] = row_space(self.p)
        return space.insert(row)

    def contains(self, tvec: TensorVector, k: int) -> bool:
        """Membership of a nonzero weight vector in the span of the first k
        vectors that raised the rank of its weight's space."""
        group, row = self._row(tvec)
        space = self._spaces.get(group)
        if space is None:
            return False
        return pivot_prefix(space, k).contains(row)

    @property
    def rank(self) -> int:
        return sum(space.rank for space in self._spaces.values())


@dataclass
class InducedFiltrationTable:
    """Level dimensions of the induced filtration on V(lam) (x) V(mu)."""
    lam: Weight
    mu: Weight
    p: Optional[int]
    level_dims: List[int]
    graded_dims: List[int]
    tensor_dim: int
    weight_group: Optional[Weight]
    input_hash: str

    @property
    def top_dim(self) -> int:
        return self.level_dims[-1] if self.level_dims else 0

    def to_payload(self) -> dict:
        return {
            "highest_weights": [list(self.lam), list(self.mu)],
            "p": self.p,
            "levels": [{"n": i, "dim": d} for i, d in enumerate(self.level_dims)],
            "graded": list(self.graded_dims),
            "tensor_dim": self.tensor_dim,
            "weight_group": None if self.weight_group is None else list(self.weight_group),
            "input_hash": self.input_hash,
        }


class InducedFiltration:
    """The filtration computation on the tensor product of two built legs
    V(lam), V(mu): spanning sweep and kept vectors.

    The sweep covers ``groups``, a map from each swept weight group (a total
    weight, given as the root-coordinate depth below lam + mu) to its width:
    every group of V(lam) (x) V(mu), or only ``weight_group`` when one is
    given. Restricting to one group is exact because the spanning vectors
    are weight vectors; it makes single-vector membership tests cheap on
    modules whose full tensor square would be expensive. ``dim_cap`` bounds
    ``cap``, the sum of the swept widths: the tensor dimension in a full run,
    the group's width in a restricted one.
    """

    def __init__(self, mods: Tuple[WeylModuleP, WeylModuleP],
                 up_to: Optional[int] = None, dim_cap: int = DIM_CAP_DEFAULT,
                 weight_group: Optional[Sequence[int]] = None):
        a, b = self.mods = tuple(mods)
        system, p = _common_field(self.mods)
        self.system, self.p = system, p
        self.lam: Weight = a.highest_weight
        self.mu: Weight = b.highest_weight
        self.weight_group = None if weight_group is None else tuple(weight_group)
        if self.weight_group is not None and len(self.weight_group) != system.rank:
            raise ValueError(f"weight group {self.weight_group} has "
                             f"{len(self.weight_group)} coordinates, not the rank {system.rank}")
        self.tensor_dim = a.dim * b.dim
        # the weight groups swept, each with its width: every group of the
        # tensor product, or the one asked for; the sweep stops once the
        # cap, the dimension swept, is spanned
        w = self.weight_group
        self.groups: Dict[Weight, int] = {}
        if w is None:
            for ta, da in a.dims.items():
                for tb, db in b.dims.items():
                    g = tuple(map(add, ta, tb))
                    self.groups[g] = self.groups.get(g, 0) + da * db
        else:
            self.groups[w] = sum(d * b.dims.get(tuple(x - y for x, y in zip(w, ta)), 0)
                                 for ta, d in a.dims.items())
        self.cap = sum(self.groups.values())
        if self.cap > dim_cap:
            raise ResourceCapError(
                f"the dimension swept, {self.cap}, exceeds the cap {dim_cap}")
        self.s_box = a.box
        self.t_box = tuple(map(add, a.box, b.box))   # lam - w0(lam) is linear in lam
        self.s_max = sum(self.s_box)
        self.requested = self.s_max if up_to is None else up_to
        # each leg's nonzero F^a.v inside the componentwise max of the swept
        # groups (t_box in a full run), listed once; a square shares one list
        room = tuple(map(max, zip(*self.groups)))
        self._left = _leg_orbit(a, room)
        self._right = self._left if b is a else _leg_orbit(b, room)
        # an entry of a spanning vector sums one product per a of one block
        self._terms = max(map(len, self._left.values()), default=0)
        self._right_top = max((abs(v) for ys in self._right.values() for _, y in ys
                               for v in y), default=0)
        self._encoded: Dict[int, Tuple[Lanes, Dict[Weight, list]]] = {}
        # one object per distinct key, row and block the kept vectors hold
        self._shared: Dict[tuple, tuple] = {}
        self.span = _WeightSpan(p)
        self.kept: List[Tuple[int, TensorVector]] = []
        # the degrees of the kept vectors, one ascending list per total weight
        self._kept_degrees: Dict[Weight, List[int]] = {}
        self.level_dims: List[int] = []
        self._sweep(min(self.requested, self.s_max))

    def _moved(self, s: Tuple[int, ...], da: Weight,
               table: LegTable) -> Optional[Tuple[Weight, list]]:
        """F^s applied to the F^a.v of block da of the first leg: the block
        they land in and [(a, F^s F^a.v)], through F^s's one composed matrix
        on da (kept in ``table``, the monomial's); None when F^s kills da."""
        a = self.mods[0]
        xs = self._left[da]
        if not any(s):
            return da, xs
        hit = _monomial_matrix(a, "F", s, table, da)
        if hit is None:
            return None
        ta, mat = hit
        prods = mat_mul([x for _, x in xs], list(zip(*mat)))
        return ta, [(e, list(map(a.reduce, row))) for (e, _), row in zip(xs, prods)]

    def _lanes(self, bound: int) -> Tuple[Lanes, Dict[Weight, list]]:
        """The narrowest lanes that hold every entry up to ``bound``, and the
        second leg's F^b.w encoded in them: block -> [(b, encoded F^b.w)]."""
        lanes = Lanes.signed(bound)
        hit = self._encoded.get(lanes.nbytes)
        if hit is None:
            hit = self._encoded[lanes.nbytes] = (lanes, {
                db: [(e, lanes.encode(y)) for e, y in ys] for db, ys in self._right.items()})
        return hit

    def _spanning(self, n: int) -> Iterator[Tuple[Weight, Dict[tuple, List[int]]]]:
        """The nonzero spanning vectors (F^s (x) 1) . Delta(F^t) . (v (x) w)
        with deg s = n and depth(s) + depth(t) a swept group, in sweep order:
        s by s, and for each s by degree and then lexicographically in t.
        Each comes as (its group, {block pair: row-major entries}), summed
        over the splits a + b = t as packed lanes (see the module
        docstring). An entry sums at most ``_terms`` products, one per a of
        its block, which bounds the lane width.
        """
        (a, b), p = self.mods, self.p
        depth = self.system.monomial_depth
        for s in monomials_of_degree(self.system, self.s_box, n):
            ds = depth(s)
            table: LegTable = {}
            moved: Dict[Weight, Optional[Tuple[Weight, list]]] = {}
            # the block pairs (da, db) that F^s carries into a swept group
            pairs = []
            for g in self.groups:
                dt = tuple(map(sub, g, ds))
                for da in self._left:
                    db = tuple(map(sub, dt, da))
                    if db in self._right:
                        if da not in moved:
                            moved[da] = self._moved(s, da, table)
                        if moved[da] is not None:
                            pairs.append((g, da, db))
            if not pairs:
                continue
            top = max(abs(v) for hit in moved.values() if hit is not None
                      for _, x in hit[1] for v in x)
            lanes, right = self._lanes(self._terms * top * self._right_top)
            rows: Dict[Tuple[int, ...], Tuple[Weight, Dict[tuple, int]]] = {}
            for g, da, db in pairs:
                ta, xs = moved[da]
                key = (ta, db)
                step = b.dims[db] * lanes.bits
                ys = right[db]
                for ea, x in xs:
                    spread = sum(v << (i * step) for i, v in enumerate(x) if v)
                    if spread:
                        for eb, y in ys:
                            accs = rows.setdefault(tuple(map(add, ea, eb)), (g, {}))[1]
                            accs[key] = accs.get(key, 0) + spread * y
            for t in sorted(rows, key=lambda t: (sum(t), t)):
                g, accs = rows[t]
                flats = {}
                for key, acc in accs.items():
                    flat = lanes.decode(acc, a.dims[key[0]] * b.dims[key[1]], p)
                    if any(flat):
                        flats[key] = flat
                if flats:
                    yield g, flats

    def _stored(self, flats: Dict[tuple, List[int]]) -> TensorVector:
        """A kept vector as the filtration stores it: {block pair: block},
        each block a tuple of row tuples, with every key, row and block equal
        to one stored before replaced by that one, so that repeats cost no
        memory."""
        share = self._shared.setdefault
        dims = self.mods[1].dims
        out = {}
        for key, flat in flats.items():
            block = tuple([share(row, row) for row in zip(*[iter(flat)] * dims[key[1]])])
            out[share(key, key)] = share(block, block)
        return out

    def _sweep(self, top: int) -> None:
        for n in range(top + 1):
            if len(self.kept) < self.cap:
                for g, flats in self._spanning(n):
                    if self.span.insert((g, flats)):
                        self.kept.append((n, self._stored(flats)))
                        self._kept_degrees.setdefault(g, []).append(n)
                        if len(self.kept) == self.cap:
                            break
            self.level_dims.append(self.span.rank)

    def kept_by_level(self) -> List[List[TensorVector]]:
        """The kept vectors grouped by degree, one list per swept level: the
        vectors of levels 0..n together are a basis of VV_n."""
        levels: List[List[TensorVector]] = [[] for _ in self.level_dims]
        for n, vec in self.kept:
            levels[n].append(vec)
        return levels

    def _check_swept(self, n: int) -> None:
        """ValueError for a level above the swept ones, unless the sweep
        stopped at s_max or filled its space, so that no later level grows."""
        if (n >= len(self.level_dims) and self.requested < self.s_max
                and len(self.kept) < self.cap):
            raise ValueError(f"level {n} lies above the levels swept "
                             f"(up to {len(self.level_dims) - 1})")

    def level(self, n: int) -> int:
        self._check_swept(n)
        if n < 0:
            return 0
        if n < len(self.level_dims):
            return self.level_dims[n]
        return self.span.rank

    def contains_at(self, tvec: TensorVector, n: int) -> bool:
        """Membership of a weight-homogeneous vector in VV_n, for any n.

        Each kept vector added one pivot to its weight's row space, and the
        sweep keeps vectors in degree order, so VV_n in weight g is spanned
        by the first k pivots of g's space, k the number of kept vectors of
        weight g and degree <= n. One reduction against that prefix decides
        membership; below level 0 the prefix is empty, and above the swept
        levels it is the whole space, which is VV_n only if the sweep
        stopped at s_max or filled its space (ValueError otherwise). A
        vector of a group that was not swept is refused (ValueError): a
        restricted filtration answers for its own weight group only, and a
        full one for the groups of V(lam) (x) V(mu).
        """
        self._check_swept(n)
        group = _total_depth(tvec)
        if group is None:
            return True
        if group not in self.groups:
            swept = ("the groups of V(lam) (x) V(mu)" if self.weight_group is None
                     else f"this filtration's weight group {self.weight_group}")
            raise ValueError(f"a vector of weight group {group} lies outside {swept}")
        k = bisect_right(self._kept_degrees.get(group, []), n)
        return self.span.contains(tvec, k)

    def table(self) -> InducedFiltrationTable:
        levels = [self.level(n) for n in range(self.requested + 1)]
        graded = [b - a for a, b in zip([0] + levels, levels)]
        return InducedFiltrationTable(
            self.lam, self.mu, self.p, levels, graded, self.tensor_dim,
            self.weight_group,
            input_hash(self.system, weights=[list(self.lam), list(self.mu)], p=self.p))


def vv_level_contains(mods: Tuple[WeylModuleP, WeylModuleP], tvec: TensorVector,
                      level: int) -> bool:
    """Whether a weight-homogeneous tensor vector lies in VV_level, computed
    on that vector's weight space only."""
    group = _total_depth(tvec)
    if group is None:
        return True
    filt = InducedFiltration(mods, up_to=level, weight_group=group)
    return filt.contains_at(tvec, level)


# --------------------------------------------------------------------------
# structural checks
# --------------------------------------------------------------------------

@dataclass
class ProductOrderReport:
    """Per-level comparison of span{(F^s (x) 1) . Delta(F^t) . vv} against
    span{Delta(F^t) . (F^s (x) 1) . vv}."""
    lam: Weight
    mu: Weight
    p: Optional[int]
    smash_dims: List[int]
    reversed_dims: List[int]
    union_dims: List[int]

    @property
    def equal(self) -> bool:
        return self.smash_dims == self.reversed_dims == self.union_dims


def product_order_equality(mods: Tuple[WeylModuleP, WeylModuleP]) -> ProductOrderReport:
    """Check that applying the leg monomial before or after the coproduct
    monomial spans the same filtration level, degree by degree."""
    filt = InducedFiltration(mods)
    p = filt.p
    bases = _leg_vectors_by_degree(filt.mods[0])
    depths = product(*(range(k + 1) for k in filt.t_box))
    monos = {depth: monomials_with_depth(filt.system, depth) for depth in depths}
    span_rev = _WeightSpan(p)
    span_union = _WeightSpan(p)
    smash_dims: List[int] = []
    reversed_dims: List[int] = []
    union_dims: List[int] = []
    for n, kept in enumerate(filt.kept_by_level()):
        # the smash-order vectors were kept by the main sweep; feed them in
        for vec in kept:
            span_union.insert(vec)
        for base in bases[n]:
            [(block, _)] = base   # Delta(F^t) kills it unless block + depth(t) fits t_box
            for depth, group in monos.items():
                if all(map(le, map(add, block, depth), filt.t_box)):
                    for t in group:
                        vec = tensor_act(filt.mods, "F", t, base)
                        if vec and span_rev.insert(vec):
                            span_union.insert(vec)
        smash_dims.append(filt.level_dims[n])
        reversed_dims.append(span_rev.rank)
        union_dims.append(span_union.rank)
    return ProductOrderReport(filt.lam, filt.mu, p, smash_dims, reversed_dims,
                              union_dims)


@dataclass
class ComparisonReport:
    """The filtration-preserving map V(lam) -> V(lam) (x) v_mu, graded."""
    lam: Weight
    mu: Weight
    p: Optional[int]
    inclusion_ok: bool
    module_graded_dims: List[int]
    image_dims: List[int]
    kernel_dims: List[int]

    @property
    def injective(self) -> bool:
        return self.inclusion_ok and not any(self.kernel_dims)


def comparison_map_check(mods: Tuple[WeylModuleP, WeylModuleP]) -> ComparisonReport:
    """Verify V_n(lam) (x) v_mu lies in VV_n at every level and measure the
    kernel of the induced map on graded pieces, degree by degree."""
    filt = InducedFiltration(mods)
    p = filt.p
    table = pbw_filtration(filt.mods[0], filt.s_max)
    bases = _leg_vectors_by_degree(filt.mods[0])
    sweep = _WeightSpan(p)
    inclusion_ok = True
    image_dims: List[int] = []
    kernel_dims: List[int] = []
    for n, kept in enumerate(filt.kept_by_level()):
        # entering this iteration the sweep holds exactly VV_{n-1}
        new = sum(map(sweep.insert, bases[n]))
        for vec in kept:
            sweep.insert(vec)
        if sweep.rank != filt.level_dims[n]:
            # a comparison vector escaped VV_n: the inclusion fails
            inclusion_ok = False
        grn = table.graded_dims[n] if n < len(table.graded_dims) else 0
        image_dims.append(new)
        kernel_dims.append(grn - new)
    return ComparisonReport(filt.lam, filt.mu, p, inclusion_ok,
                            list(table.graded_dims), image_dims, kernel_dims)


def dual_filtration_dims(star_mods: Tuple[WeylModuleP, WeylModuleP], n: int) -> int:
    """Level n of the filtration dual to the induced one on V(lam) (x) V(mu):
    functionals on V(lam*) (x) V(mu*) (the legs ``star_mods``) vanishing on
    VV_{n-1}(lam*, mu*)."""
    if n <= 0:
        return star_mods[0].dim * star_mods[1].dim
    filt = InducedFiltration(star_mods, up_to=n - 1)
    return filt.tensor_dim - filt.level(n - 1)


@dataclass
class StabilityReport:
    """Whether each filtration level is stable under the comonomial action
    of every divided power Delta(E^(k)), Delta(F^(k)) up to a cap."""
    lam: Weight
    mu: Weight
    p: Optional[int]
    k_cap: int
    checked_levels: int
    violations: List[Tuple[int, str, int, int]]  # (level, side, root pos, k)

    @property
    def stable(self) -> bool:
        return not self.violations


def delta_stability_check(mods: Tuple[WeylModuleP, WeylModuleP],
                          k_cap: int = 2) -> StabilityReport:
    """Apply Delta(X^(k)) to a basis of each level, up to the top level
    s_max, and test membership; a violation is recorded rather than raised,
    so reports stay comparable."""
    filt = InducedFiltration(mods)
    n_pos = filt.system.n_pos
    # the exponents of each single factor X_beta^(k), built once
    factors = [(side, pos, k, tuple(k if i == pos else 0 for i in range(n_pos)))
               for side in ("F", "E") for pos in range(n_pos) for k in range(1, k_cap + 1)]
    violations: List[Tuple[int, str, int, int]] = []
    basis: List[TensorVector] = []
    for n, kept in enumerate(filt.kept_by_level()):
        basis.extend(kept)
        for w in basis:
            for side, pos, k, s in factors:
                u = tensor_act(filt.mods, side, s, w)
                if u and not filt.contains_at(u, n):
                    violations.append((n, side, pos, k))
    return StabilityReport(filt.lam, filt.mu, filt.p, k_cap, filt.s_max, violations)


@dataclass
class NormFormReport:
    """The norm-form identity on the cyclic vector and its filtration
    consequence: F0.v (x) F0.w lands in level (p-1)N."""
    lam: Weight
    mu: Weight
    p: int
    identity_ok: bool
    vector_nonzero: bool
    membership_level: int
    membership_ok: Optional[bool]  # None when the vector is zero

    @property
    def ok(self) -> bool:
        return self.identity_ok and (self.membership_ok is not False)


def norm_form_identity_check(legs: Tuple[WeylModuleP, WeylModuleP]) -> NormFormReport:
    """Check (F0 (x) 1) . Delta(F0) . (v (x) w) = F0.v (x) F0.w and, when the
    right side is nonzero, its membership in VV_{(p-1)N}."""
    a, b = legs
    system, p = _common_field(legs)
    if p is None:
        raise ValueError("the norm form lives in positive characteristic")
    f0 = f_zero(system.n_pos, p)
    start = tensor_of((a.highest_vector(), b.highest_vector()), reduce=a.reduce)
    lhs = tensor_leg_act(legs, 0, "F", f0, tensor_act(legs, "F", f0, start))
    depth = system.monomial_depth(f0)
    fvs = tuple({} if c is None else {depth: c}
                for c in (leg.monomial_coords(f0) for leg in legs))
    rhs = tensor_of(fvs, reduce=a.reduce)
    identity_ok = lhs == rhs
    level = (p - 1) * system.n_pos
    nonzero = bool(rhs)
    membership: Optional[bool] = None
    if nonzero:
        membership = vv_level_contains(legs, rhs, level)
    return NormFormReport(a.highest_weight, b.highest_weight, p, identity_ok,
                          nonzero, level, membership)
