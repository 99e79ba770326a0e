"""The induced PBW filtration on tensor products of Weyl modules.

For the highest-weight vectors v in V(lam) and w in V(mu), level n of the
induced filtration is

    VV_n = span{ (F^s (x) 1) . Delta(F^t) . (v (x) w) : deg s <= n },

with t running over all lowering monomials (truncated by the weight depth of
the tensor module, beyond which every monomial acts as zero). Spanning sets
use lowering monomials only — the cyclic vector is highest-weight — and the
raising/lowering stability of the levels is then *checked*, not presupposed.

The coproduct orbit Delta(F^t).(v (x) w) is computed once per filtration,
from module vectors: the divided-power coproduct is an algebra map, so
Delta(F^t).(v (x) w) is the sum of the outer products F^a.v (x) F^b.w over
a + b = t. Each leg lists its nonzero F^a.v once, block by block inside
the box (clipped to the weight group in a restricted run): the a of a block
come from ``pbw.monomials_with_depth`` and their vectors from
``WeylModuleP.monomial_coords``, which shares their tails. The orbit is
formed one total depth at a time and listed by degree and lexicographically
in t. A leg monomial F^s acts on a spanning vector as one composed matrix
per block (``weylmod.tensor_leg_act``). The orbit and the kept vectors store each
block as a tuple of row tuples, and each equal key, row and block once.

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
from operator import add, le
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import input_hash
from .charzero import DIM_CAP_DEFAULT
from .linalg import mat_mul, pivot_prefix, row_space
from .pbw import monomials_of_degree, monomials_with_depth, pbw_filtration
from .rootsys import ResourceCapError
from .weylmod import (HyperMonomial, TensorVector, WeylModuleP, _tidy, f_zero,
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
    depend on the order in which block pairs arrive.
    """

    def __init__(self, p: Optional[int]):
        self.p = p
        self._spaces: Dict[Weight, object] = {}
        self._offsets: Dict[Weight, Dict[tuple, int]] = {}
        self._widths: Dict[Weight, int] = {}

    def _flatten(self, group: Weight, tvec: TensorVector) -> List[int]:
        offsets = self._offsets.setdefault(group, {})
        for key, block in tvec.items():
            if key not in offsets:
                offsets[key] = self._widths.get(group, 0)
                self._widths[group] = offsets[key] + len(block) * len(block[0])
        row = [0] * self._widths[group]
        for key, block in tvec.items():
            flat = [v for vals in block for v in vals]
            row[offsets[key]:offsets[key] + len(flat)] = flat
        return row

    def insert(self, tvec: TensorVector) -> bool:
        group = _total_depth(tvec)
        if group is None:
            return False
        space = self._spaces.get(group)
        if space is None:
            space = self._spaces[group] = row_space(self.p)
        return space.insert(self._flatten(group, tvec))

    def contains(self, tvec: TensorVector, k: int) -> bool:
        """Membership of a nonzero weight vector in the span of the first k
        vectors that raised the rank of its weight's space."""
        group = _total_depth(tvec)
        space = self._spaces.get(group)
        if space is None:
            return False
        return pivot_prefix(space, k).contains(self._flatten(group, tvec))

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
        # one object per distinct key, row and block the filtration stores
        self._shared: Dict[tuple, tuple] = {}
        self._tpairs = self._delta_orbit()
        self.span = _WeightSpan(p)
        self.kept: List[Tuple[int, TensorVector]] = []
        # the degrees of the kept vectors, one ascending list per total weight
        self._kept_degrees: Dict[Weight, List[int]] = {}
        self.level_dims: List[int] = []
        self._sweep(min(self.requested, self.s_max))

    def _delta_orbit(self) -> List[Tuple[Weight, TensorVector]]:
        """The nonzero Delta(F^t).(v (x) w), with their depths, for every t
        whose depth fits the componentwise max of the swept groups,
        by degree and then lexicographically in t.

        The coproduct is an algebra map, so Delta(F^t).(v (x) w) is the sum
        of F^a.v (x) F^b.w over a + b = t: one outer product of module
        vectors per split. The F^a.v and F^b.w inside the box are listed once
        per leg (a square shares one list), grouped by block, and the orbit
        is formed one depth at a time: each pair of blocks (da, db) whose
        depths sum to it adds its outer products to the t they sum to, and
        block (da, db) of t is X^T Y, with the rows of X the F^a.v and the
        rows of Y the F^b.w of its splits (``weylmod._tidy`` drops it if zero).
        """
        # the componentwise max of the swept groups: t_box in a full run
        room = tuple(map(max, zip(*self.groups)))
        a, b = self.mods
        left = _leg_orbit(a, room)
        right = left if b is a else _leg_orbit(b, room)
        # the pairs of blocks (da, db) of each depth da + db that fits the box
        pairs: Dict[Weight, List[Tuple[Weight, Weight]]] = {}
        for da in left:
            for db in right:
                dt = tuple(map(add, da, db))
                if all(map(le, dt, room)):
                    pairs.setdefault(dt, []).append((da, db))
        p = self.p
        found = []
        for dt, keys in pairs.items():
            # one depth at a time: t -> (da, db) -> the F^a.v and the F^b.w
            # of the splits of t there
            splits: Dict[Tuple[int, ...], Dict[tuple, Tuple[list, list]]] = {}
            for key in keys:
                ys = right[key[1]]
                for ea, x in left[key[0]]:
                    for eb, y in ys:
                        by_block = splits.setdefault(tuple(map(add, ea, eb)), {})
                        pair = by_block.get(key)
                        if pair is None:
                            pair = by_block[key] = ([], [])
                        pair[0].append(x)
                        pair[1].append(y)
            for t, by_block in splits.items():
                vec = _tidy({key: mat_mul(list(zip(*xs)), ys)
                             for key, (xs, ys) in by_block.items()}, p)
                if vec:
                    found.append((t, dt, self._stored(vec)))
        found.sort(key=lambda item: (sum(item[0]), item[0]))
        return [(dt, vec) for _, dt, vec in found]

    def _stored(self, tvec: TensorVector) -> TensorVector:
        """``tvec`` as the filtration stores it: each block a tuple of row
        tuples, with every key, row and block equal to one stored before
        replaced by that one, so that repeats cost no memory."""
        share = self._shared.setdefault
        out = {}
        for key, block in tvec.items():
            block = tuple([share(row, row) for row in map(tuple, block)])
            out[share(key, key)] = share(block, block)
        return out

    def _spanning(self, n: int) -> Iterator[TensorVector]:
        """The spanning vectors (F^s (x) 1) . Delta(F^t) . (v (x) w) with
        deg s = n and depth(s) + depth(t) a swept group, in sweep order: for
        each s, the orbit entries whose depth F^s carries into a swept group
        (any other pair gives the zero vector or an unswept group)."""
        for s in monomials_of_degree(self.system, self.s_box, n):
            mono = HyperMonomial("F", s)
            ds = self.system.monomial_depth(s)
            # the orbit depths that F^s carries into a swept group
            wanted = {tuple(x - y for x, y in zip(g, ds)) for g in self.groups}
            for dt, base in self._tpairs:
                if dt in wanted:
                    vec = tensor_leg_act(self.mods, 0, mono, base)
                    if vec:
                        yield vec

    def _sweep(self, top: int) -> None:
        for n in range(top + 1):
            if len(self.kept) < self.cap:
                for vec in self._spanning(n):
                    if self.span.insert(vec):
                        self.kept.append((n, self._stored(vec)))
                        self._kept_degrees.setdefault(_total_depth(vec), []).append(n)
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
    monos = {depth: [HyperMonomial("F", t) for t in monomials_with_depth(filt.system, depth)]
             for depth in depths}
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
                    for mono in group:
                        vec = tensor_act(filt.mods, mono, base)
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
    # the single factors X_beta^(k), each built once
    factors = [((side, pos, k), HyperMonomial(side, tuple(k if i == pos else 0
                                                          for i in range(n_pos))))
               for side in ("F", "E") for pos in range(n_pos) for k in range(1, k_cap + 1)]
    violations: List[Tuple[int, str, int, int]] = []
    basis: List[TensorVector] = []
    for n, kept in enumerate(filt.kept_by_level()):
        basis.extend(kept)
        for w in basis:
            for label, mono in factors:
                u = tensor_act(filt.mods, mono, w)
                if u and not filt.contains_at(u, n):
                    violations.append((n, *label))
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
    lhs = tensor_leg_act(legs, 0, f0, tensor_act(legs, f0, start))
    depth = system.monomial_depth(f0.exponents)
    fvs = tuple({} if c is None else {depth: c}
                for c in (leg.monomial_coords(f0.exponents) for leg in legs))
    rhs = tensor_of(fvs, reduce=a.reduce)
    identity_ok = lhs == rhs
    level = (p - 1) * system.n_pos
    nonzero = bool(rhs)
    membership: Optional[bool] = None
    if nonzero:
        membership = vv_level_contains(legs, rhs, level)
    return NormFormReport(a.highest_weight, b.highest_weight, p, identity_ok,
                          nonzero, level, membership)
