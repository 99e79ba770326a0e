"""The induced filtration on tensor products and its structural properties."""

import gc
import hashlib
import operator
import random
import tracemalloc
import weakref

import pytest
from builders import g2_fundamentals, legs, v_gamma

from weylpbw import (
    InducedFiltration,
    ResourceCapError,
    WeylModuleP,
    build_root_system,
    check_condition2,
    comparison_map_check,
    delta_stability_check,
    dual_filtration_dims,
    g2_verify,
    gamma_weight,
    norm_form_identity_check,
    product_order_equality,
    stable_dumps,
    tensor_of,
    vv_level_contains,
)
from weylpbw import linalg, tensorfilt, weylmod
from weylpbw.pbw import monomials_of_degree
from weylpbw.weylmod import f_zero, tensor_act, tensor_leg_act


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


def level_table(system, lam, mu, p):
    """The induced filtration's level table on V(lam) (x) V(mu)."""
    return InducedFiltration(legs(system, lam, mu, p)).table()


# --- level dimensions --------------------------------------------------------


def test_level_dims_a1_square(a1):
    for p in (None, 2):
        table = level_table(a1, (1,), (1,), p)
        assert table.level_dims == [3, 4]
        assert table.graded_dims == [3, 1]
        assert table.tensor_dim == 4


def test_level_zero_is_cartan_component(a2):
    """VV_0 is the diagonal orbit of the highest vector: a copy of the top
    factor of V(lam + mu)."""
    for p in (None, 2):
        table = level_table(a2, (1, 0), (0, 1), p)
        assert table.level_dims == [8, 9, 9]
        assert table.graded_dims == [8, 1, 0]
        assert table.level_dims[0] == a2.weyl_dimension((1, 1))


def test_level_dims_a1_deeper(a1):
    table = level_table(a1, (2,), (2,), 2)
    assert table.level_dims == [5, 8, 9]
    assert table.graded_dims == [5, 3, 1]
    assert table.top_dim == 9


def test_filtration_object_padding(a1):
    filt = InducedFiltration(legs(a1, (1,), (1,), None))
    assert filt.level(0) == 3
    assert filt.level(25) == 4            # beyond stabilization: full dim
    assert filt.level(-1) == 0


def test_levels_below_zero_are_empty(a1):
    square = legs(a1, (2,), (2,), 2)
    table = InducedFiltration(square, up_to=-1).table()
    assert table.level_dims == [] and table.graded_dims == []
    assert table.top_dim == 0
    m = square[0]
    tvec = tensor_of((m.highest_vector(), m.highest_vector()), reduce=m.reduce)
    assert not vv_level_contains(square, tvec, -1)
    assert vv_level_contains(square, tvec, 0)


def test_levels_above_a_partial_sweep_raise(a2):
    """A sweep cut at up_to below s_max answers no level above up_to: VV_3
    of V(1,1) (x) V(1,1) at p = 3 is 64, not the 55 of the last level
    swept, and a kept vector of degree 2 lies in VV_2."""
    square = legs(a2, (1, 1), (1, 1), 3)
    full = InducedFiltration(square)
    assert full.level_dims == [27, 55, 64, 64, 64]
    cut = InducedFiltration(square, up_to=1)
    assert cut.level(1) == 55
    with pytest.raises(ValueError, match="above the levels swept"):
        cut.level(3)
    vec = next(vec for n, vec in full.kept if n == 2)
    assert full.contains_at(vec, 2) and not full.contains_at(vec, 1)
    assert not cut.contains_at(vec, 1)
    with pytest.raises(ValueError, match="above the levels swept"):
        cut.contains_at(vec, 2)
    with pytest.raises(ValueError, match="above the levels swept"):
        InducedFiltration(square, up_to=-1).level(0)
    assert InducedFiltration(square, up_to=-1).level(-1) == 0


def test_weight_group_must_have_one_coordinate_per_simple_root(a2):
    with pytest.raises(ValueError, match="not the rank 2"):
        InducedFiltration(legs(a2, (1, 1), (1, 0), 3), weight_group=(2,))


def test_trivial_tensor_concentrates_in_degree_zero(a1):
    table = level_table(a1, (2,), (0,), 3)
    assert table.level_dims[0] == 3
    assert all(g == 0 for g in table.graded_dims[1:])


def test_payload_shape(a1):
    payload = level_table(a1, (1,), (1,), 2).to_payload()
    assert payload["highest_weights"] == [[1], [1]]
    assert payload["p"] == 2
    assert payload["levels"] == [{"n": 0, "dim": 3}, {"n": 1, "dim": 4}]
    assert payload["tensor_dim"] == 4
    assert len(payload["input_hash"]) == 64


def test_dim_cap(a1):
    with pytest.raises(ResourceCapError):
        InducedFiltration(legs(a1, (30,), (30,), None), dim_cap=100)


def test_dim_cap_bounds_the_weight_group_swept(a1):
    """V(30) (x) V(30) has dimension 961, but its weight group 30 is 31
    wide: a restricted run fits a cap of 31, and refuses one of 30."""
    square = legs(a1, (30,), (30,), None)
    filt = InducedFiltration(square, up_to=0, dim_cap=31, weight_group=(30,))
    assert (filt.tensor_dim, filt.cap, filt.level_dims) == (961, 31, [1])
    with pytest.raises(ResourceCapError, match="31"):
        InducedFiltration(square, up_to=0, dim_cap=30, weight_group=(30,))


# --- membership --------------------------------------------------------------


def test_norm_vector_membership(a1):
    """F0.v (x) F0.v lies one level above the cut the splitting criterion
    tests, here on the A1 tensor square at p = 2."""
    p = 2
    m = WeylModuleP.build(a1, (2,), p, 100)
    f0 = f_zero(1, p)
    f0v = m.act("F", f0, m.highest_vector())
    tvec = tensor_of((f0v, f0v), reduce=m.reduce)
    assert vv_level_contains((m, m), tvec, 1)
    assert not vv_level_contains((m, m), tvec, 0)


def test_weight_group_restriction(a1):
    filt = InducedFiltration(legs(a1, (2,), (2,), 2), weight_group=(2,))
    assert filt.level_dims == [1, 2, 3]
    assert filt.level_dims[1] < level_table(a1, (2,), (2,), 2).level_dims[1]


def test_restricted_sweep_stops_once_its_weight_space_is_spanned(a1, monkeypatch):
    """The lowest weight of V(3) (x) V(3) is one-dimensional and spanned at
    level 0, so the later levels insert nothing."""
    calls = []
    insert = tensorfilt._WeightSpan.insert
    monkeypatch.setattr(tensorfilt._WeightSpan, "insert",
                        lambda self, vec: calls.append(1) or insert(self, vec))
    filt = InducedFiltration(legs(a1, (3,), (3,), None), weight_group=(6,))
    assert filt.cap == 1
    assert filt.level_dims == [1, 1, 1, 1]
    assert len(calls) == 1


def test_sweep_cap_is_the_swept_dimension(a1, a2):
    square = legs(a1, (2,), (2,), 2)
    assert InducedFiltration(square, weight_group=(2,)).cap == 3
    assert InducedFiltration(legs(a1, (2,), (1,), None)).cap == 6
    filt = InducedFiltration(legs(a2, (1, 1), (1, 0), 2),
                             weight_group=(1, 1))
    assert filt.cap == filt.level_dims[-1] == 4


def test_kept_by_level_splits_the_kept_basis(a2):
    filt = InducedFiltration(legs(a2, (1, 1), (1, 0), 3))
    levels = filt.kept_by_level()
    assert [len(vecs) for vecs in levels] == filt.table().graded_dims
    assert [v for vecs in levels for v in vecs] == [v for _, v in filt.kept]


# --- membership at every level ----------------------------------------------


def condition2_filtration(label, p):
    """The filtration check_condition2 sweeps: V(gamma) (x) V(gamma) on the
    weight of F0.v (x) F0.v, up to level (p-1)N."""
    system = build_root_system(label)
    m = v_gamma(system, p)
    f0 = f_zero(system.n_pos, p)
    group = tuple(2 * v for v in system.monomial_depth(f0))
    return InducedFiltration((m, m), up_to=(p - 1) * system.n_pos, weight_group=group)


MEMBERSHIP_CASES = {
    "A1-square-gf2": lambda: InducedFiltration(legs(build_root_system("A1"), (2,), (2,), 2)),
    "A2-gf3": lambda: InducedFiltration(legs(build_root_system("A2"), (1, 1), (1, 0), 3)),
    "B2-qq": lambda: InducedFiltration(legs(build_root_system("B2"), (1, 0), (0, 1), None)),
    "A2-square-qq-restricted": lambda: InducedFiltration(
        legs(build_root_system("A2"), (1, 1), (1, 1), None), weight_group=(1, 1)),
    "condition2-A1-p7": lambda: condition2_filtration("A1", 7),
    "condition2-B2-p2": lambda: condition2_filtration("B2", 2),
    "condition2-A2-p3": lambda: condition2_filtration("A2", 3),
}


def per_monomial_spanning_vectors(filt):
    """The nonzero (F^s (x) 1) . Delta(F^t) . (v (x) w), each leg monomial
    and each coproduct monomial acting whole, in the sweep's order: by the
    degree n of s up to the levels swept, s in ``monomials_of_degree`` order,
    and for each s by degree and then lexicographically in t, over the t of
    the unclipped box whose depth lands the vector in a swept group."""
    a, b = filt.mods
    start = tensor_of((a.highest_vector(), b.highest_vector()), reduce=a.reduce)
    depth = filt.system.monomial_depth
    orbit = []
    for d in range(sum(filt.t_box) + 1):
        for t in monomials_of_degree(filt.system, filt.t_box, d):
            vec = tensor_act(filt.mods, "F", t, start)
            if vec:
                orbit.append((depth(t), vec))
    out = []
    for n in range(min(filt.requested, filt.s_max) + 1):
        for s in monomials_of_degree(filt.system, filt.s_box, n):
            ds = depth(s)
            for dt, base in orbit:
                if tuple(map(operator.add, ds, dt)) in filt.groups:
                    vec = tensor_leg_act(filt.mods, 0, "F", s, base)
                    if vec:
                        out.append(vec)
    return out


ORBIT_CASES = {
    **MEMBERSHIP_CASES,
    "A1-square-gf2-restricted": lambda: InducedFiltration(
        legs(build_root_system("A1"), (2,), (2,), 2), weight_group=(2,)),
    "A2-gf3-restricted": lambda: InducedFiltration(
        legs(build_root_system("A2"), (1, 1), (1, 0), 3), weight_group=(2, 1)),
    "B2-gf3-restricted": lambda: InducedFiltration(
        legs(build_root_system("B2"), (1, 1), (1, 0), 3), weight_group=(2, 3)),
    "A2-outside-every-weight": lambda: InducedFiltration(
        legs(build_root_system("A2"), (1, 0), (1, 0), 2), weight_group=(-1, 0)),
    "G2-gf2": lambda: InducedFiltration(g2_fundamentals(2)),
    "C3-gf3-restricted": lambda: InducedFiltration(
        legs(build_root_system("C3"), (1, 1, 0), (1, 0, 0), 3), weight_group=(2, 2, 1)),
}


@pytest.mark.parametrize("make", ORBIT_CASES.values(), ids=ORBIT_CASES.keys())
def test_sweep_inserts_the_per_monomial_spanning_vectors(make, monkeypatch):
    """The rows the sweep builds from the legs' module vectors are, in
    order, the nonzero leg-monomial actions on the whole-monomial coproduct
    orbit of v (x) w, as far as the sweep goes: to the last level, or to the
    vector that fills its space. The box of t, the sum of the legs' boxes,
    is that of V(lam + mu)."""
    inserted = []
    insert = tensorfilt._WeightSpan.insert

    def spy(self, vec):
        inserted.append(vec)
        return insert(self, vec)
    monkeypatch.setattr(tensorfilt._WeightSpan, "insert", spy)
    filt = make()
    monkeypatch.undo()
    total = tuple(x + y for x, y in zip(filt.lam, filt.mu))
    assert filt.t_box == filt.system.depth_vector(total)
    assert filt.s_box == filt.system.depth_vector(filt.lam)
    dims = filt.mods[1].dims
    got = []
    for group, flats in inserted:
        vec = {key: [flat[i:i + dims[key[1]]] for i in range(0, len(flat), dims[key[1]])]
               for key, flat in flats.items()}
        assert tensorfilt._total_depth(vec) == group
        got.append(vec)
    want = per_monomial_spanning_vectors(filt)
    assert got == want[:len(got)]
    assert len(got) == len(want) or len(filt.kept) == filt.cap
    assert got or filt.weight_group == (-1, 0)


def kept_digest(filt):
    """sha256 of a filtration's kept vectors, in sweep order: each as
    [degree, [[[depth_a, depth_b], block], ...]] with its blocks sorted by
    key, through stable_dumps."""
    payload = [[n, [[[list(ta), list(tb)], block] for (ta, tb), block in sorted(vec.items())]]
               for n, vec in filt.kept]
    return hashlib.sha256(stable_dumps(payload).encode("ascii")).hexdigest()


# The kept vectors of the condition-2 filtration. The pinned traced counts
# are ranks, blind to which vectors are kept; this digest moves with the
# order of the spanning loop or the row space.
CONDITION2_KEPT_DIGESTS = {
    ("A2", 3): (276, "194ed54d2dd7ef54f59b77a1fd84ca27729dd010505f6ed079d8dd4050a2ec39"),
    ("B2", 2): (218, "caef40919d7d3299bb7ecc76f982fea2dddd8d2bd0e211cd742f62634425dad0"),
}

# The same for two sweeps condition 2 never runs: a full one over GF(3), and
# one over Q, whose entries are signed integers.
KEPT_DIGESTS = {
    "A2-gf3": (24, "4215928d0c05fd2d2f6b5ca19ec22d113d7cc74136f7f3fcd3fe57947ae3e602"),
    "B2-qq": (20, "425f25a3b216686af15c310c45d2bd72332b99e125d5263689e060b8b89186b9"),
}


@pytest.mark.parametrize("label,p", CONDITION2_KEPT_DIGESTS.keys())
def test_condition2_filtration_keeps_its_vectors(label, p):
    system = build_root_system(label)
    m = WeylModuleP.build(system, gamma_weight(system, p), p)
    f0 = f_zero(system.n_pos, p)
    group = tuple(2 * v for v in system.monomial_depth(f0))
    filt = InducedFiltration((m, m), up_to=(p - 1) * system.n_pos, weight_group=group)
    assert (len(filt.kept), kept_digest(filt)) == CONDITION2_KEPT_DIGESTS[label, p]


@pytest.mark.parametrize("case", KEPT_DIGESTS)
def test_full_and_rational_filtrations_keep_their_vectors(case):
    filt = ORBIT_CASES[case]()
    assert (len(filt.kept), kept_digest(filt)) == KEPT_DIGESTS[case]


def test_check_condition2_makes_no_tensor_leg_products(monkeypatch):
    """The condition-2 sweep builds its vectors from the legs' module
    vectors; it applies no monomial to a tensor vector."""
    calls = []
    leg_act = weylmod.tensor_leg_act

    def spy(*args):
        calls.append(1)
        return leg_act(*args)
    for module in (weylmod, tensorfilt):
        monkeypatch.setattr(module, "tensor_leg_act", spy)
    report = check_condition2(v_gamma(build_root_system("A2"), 3))
    assert report.verdict
    assert not calls


def test_check_condition2_frees_its_filtration_by_refcount(monkeypatch):
    """No reference cycle keeps the filtration alive: with the cyclic
    collector off, it dies as soon as check_condition2 returns."""
    refs = []
    init = InducedFiltration.__init__

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(InducedFiltration, "__init__", tracked)
    m = v_gamma(build_root_system("A1"), 3)
    gc.collect()
    gc.disable()
    try:
        report = check_condition2(m)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
    assert report.witness["group_level_dims"]


def test_condition2_sweep_stays_under_its_memory_bound():
    """check_condition2 on V(gamma) of A2 at p = 3 keeps the traced peak of
    everything it allocates under 3 MB: no coproduct orbit is stored, the
    spanning vectors of one leg monomial at a time are held as packed
    lanes, and the kept vectors store each equal key, row and block once."""
    m = v_gamma(build_root_system("A2"), 3)
    gc.collect()
    tracemalloc.start()
    try:
        report = check_condition2(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict
    assert peak < 3_000_000, peak


def combine(terms, p):
    """The tensor vector sum(c * vec for c, vec in terms), reduced mod p."""
    out = {}
    for c, vec in terms:
        for key, block in vec.items():
            acc = out.setdefault(key, [[0] * len(block[0]) for _ in block])
            for row, vals in zip(acc, block):
                for j, v in enumerate(vals):
                    row[j] += c * v
    if p is not None:
        out = {key: [[v % p for v in row] for row in block] for key, block in out.items()}
    return {key: block for key, block in out.items() if any(map(any, block))}


def membership_probes(filt, rng):
    """For each weight the sweep kept vectors of: a random combination of all
    of them, combinations that need one kept vector, and one tensor basis
    vector; plus the zero vector."""
    by_weight = {}
    for _, vec in filt.kept:
        by_weight.setdefault(tensorfilt._total_depth(vec), []).append(vec)
    scalars = range(-2, 3) if filt.p is None else range(filt.p)
    probes = [{}]
    for vecs in by_weight.values():
        probes.append(combine([(rng.choice(scalars), v) for v in vecs], filt.p))
        for last in rng.sample(range(len(vecs)), min(3, len(vecs))):
            probes.append(combine([(rng.choice(scalars), v) for v in vecs[:last]]
                                  + [(1, vecs[last])], filt.p))
        key, block = rng.choice(sorted(vecs[-1].items()))
        unit = [[0] * len(block[0]) for _ in block]
        unit[rng.randrange(len(block))][rng.randrange(len(block[0]))] = 1
        probes.append({key: unit})
    return probes


@pytest.mark.parametrize("make", MEMBERSHIP_CASES.values(), ids=MEMBERSHIP_CASES.keys())
def test_contains_at_matches_a_fresh_sweep_at_every_level(make):
    """contains_at(v, n) agrees with a fresh span of the kept vectors of
    degree <= n, from below level 0 to above the swept levels; above them a
    partial sweep raises, since its kept vectors need not span VV_n there."""
    filt = make()
    probes = membership_probes(filt, random.Random(11))
    top = len(filt.level_dims) - 1
    # a sweep that reached s_max or filled its space answers every level
    partial = filt.requested < filt.s_max and len(filt.kept) < filt.cap
    outcomes = set()
    for n in range(-1, top + 2):
        if n > top and partial:
            for vec in probes:
                with pytest.raises(ValueError, match="above the levels swept"):
                    filt.contains_at(vec, n)
            continue
        fresh = tensorfilt._WeightSpan(filt.p)
        for d, vec in filt.kept:
            if d <= n:
                fresh.insert(vec)
        for vec in probes:
            # a prefix as long as the whole rank is all of the fresh span
            want = fresh.contains(vec, fresh.rank) if vec else True
            assert filt.contains_at(vec, n) == want, (n, vec)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_a_restricted_filtration_answers_for_its_own_weight_group_only(a2):
    """v (x) v spans VV_0, so the full filtration holds it at level 0; the
    filtration restricted to another weight group has not swept it and
    refuses to answer rather than say no."""
    m = WeylModuleP.build(a2, (1, 1), 3)
    vv = tensor_of((m.highest_vector(), m.highest_vector()), reduce=m.reduce)
    assert InducedFiltration((m, m)).contains_at(vv, 0)
    restricted = InducedFiltration((m, m), weight_group=(1, 1))
    with pytest.raises(ValueError, match=r"\(0, 0\).*\(1, 1\)"):
        restricted.contains_at(vv, 0)


def test_a_full_filtration_refuses_a_vector_outside_its_legs(a2):
    """A vector keyed by block pairs outside the legs' blocks lies in no
    weight group of the tensor product, so the full filtration has not swept
    it and refuses to answer."""
    m = WeylModuleP.build(a2, (1, 0), 3)
    far = tuple(x + 1 for x in m.box)
    with pytest.raises(ValueError, match=r"\(4, 4\)"):
        InducedFiltration((m, m)).contains_at({(far, far): [[1]]}, 0)


def test_contains_at_inserts_nothing(monkeypatch):
    filts = [MEMBERSHIP_CASES[case]() for case in ("A2-gf3", "B2-qq")]

    def no_insert(self, vec):
        raise AssertionError("a membership query must not insert")
    monkeypatch.setattr(linalg.RowSpaceGF, "insert", no_insert)
    monkeypatch.setattr(linalg.RowSpaceQQ, "insert", no_insert)
    for filt in filts:
        probes = membership_probes(filt, random.Random(3))
        for n in range(-1, len(filt.level_dims) + 1):
            for vec in probes:
                filt.contains_at(vec, n)


def test_tensor_square_builds_one_module(a1, lattice_builds):
    m = WeylModuleP.build(a1, (2,), 3)
    filt = InducedFiltration((m, m))
    assert filt.mods[0] is filt.mods[1]
    assert lattice_builds == [(2,)]


@pytest.mark.parametrize("build,check,expected", [
    # V(gamma), gamma = 2(p-1)rho, serves F0.v and both legs of the square
    (lambda: [v_gamma(build_root_system("A1"), 3)], check_condition2, [(4,)]),
    # V(w1) and V(w2), each shared by the steps that read it
    (lambda: g2_fundamentals(11), g2_verify, [(1, 0), (0, 1)]),
    (lambda: [legs(build_root_system("A1"), (2,), (2,), 3)],
     norm_form_identity_check, [(2,)]),
], ids=["condition2", "g2_verify", "norm_form"])
def test_each_check_builds_each_lattice_once(build, check, expected, lattice_builds):
    """The caller builds each module once; a check given them builds none."""
    mods = build()
    assert lattice_builds == expected
    check(*mods)
    assert lattice_builds == expected


def test_membership_builds_no_lattice(a1, lattice_builds):
    m = WeylModuleP.build(a1, (2,), 2, 100)
    f0v = m.act("F", f_zero(1, 2), m.highest_vector())
    assert vv_level_contains((m, m), tensor_of((f0v, f0v), reduce=m.reduce), 1)
    assert lattice_builds == [(2,)]          # the leg built here, nothing more


def test_legs_must_share_system_and_characteristic(a1, a2):
    m = WeylModuleP.build(a1, (2,), 2, 100)
    with pytest.raises(ValueError):
        InducedFiltration((m, WeylModuleP(m.lattice, 3)))
    with pytest.raises(ValueError):
        InducedFiltration((m, WeylModuleP(m.lattice, None)))
    with pytest.raises(ValueError):
        InducedFiltration((m, WeylModuleP.build(a2, (1, 0), 2, 100)))
    with pytest.raises(ValueError):
        norm_form_identity_check((m, WeylModuleP(m.lattice, 3)))


# --- norm-form identity ------------------------------------------------------


@pytest.mark.parametrize("label,lam,p", [
    ("A1", (2,), 2), ("A1", (4,), 3), ("A1", (8,), 5),
    ("A2", (2, 2), 2), ("A2", (4, 4), 3),
])
def test_norm_form_identity(label, lam, p):
    system = build_root_system(label)
    report = norm_form_identity_check(legs(system, lam, lam, p))
    assert report.identity_ok
    assert report.vector_nonzero
    assert report.membership_level == (p - 1) * system.n_pos
    assert report.membership_ok


def test_norm_form_identity_mixed_weights(a1):
    report = norm_form_identity_check(legs(a1, (2,), (4,), 3))
    assert report.identity_ok
    assert report.vector_nonzero
    assert report.membership_ok


def test_norm_form_annihilated_vector(a1):
    # V(1) at p = 3: F^(2) kills the highest vector, so the identity holds
    # trivially and membership is vacuous
    report = norm_form_identity_check(legs(a1, (1,), (1,), 3))
    assert report.identity_ok
    assert not report.vector_nonzero
    assert report.membership_ok is None
    assert report.ok


def test_norm_form_needs_positive_characteristic(a1):
    with pytest.raises(ValueError):
        norm_form_identity_check(legs(a1, (2,), (2,), None))


# --- order independence of the product --------------------------------------


@pytest.mark.parametrize("label,lam,p,expected", [
    ("A1", (1,), 3, [3, 4]),
    ("A1", (2,), 3, [5, 8, 9]),
    ("A2", (1, 0), 2, [6, 9, 9]),
])
def test_product_order_equality(label, lam, p, expected):
    system = build_root_system(label)
    report = product_order_equality(legs(system, lam, lam, p))
    assert report.equal
    assert report.smash_dims == expected
    assert report.reversed_dims == expected
    assert report.union_dims == expected


def test_product_order_equality_acts_only_inside_the_box(a2, monkeypatch):
    """Delta(F^t) kills F^s.v (x) w once depth(s) + depth(t) leaves the
    tensor box, so no such pair reaches ``tensor_act``."""
    mods = legs(a2, (1, 0), (0, 1), 2)
    t_box = tuple(x + y for x, y in zip(mods[0].box, mods[1].box))
    seen = []

    def spy(mods, side, s, vec):
        [((block, _), _)] = vec.items()
        seen.append(tuple(d + t for d, t in zip(block, a2.monomial_depth(s))))
        return tensor_act(mods, side, s, vec)

    monkeypatch.setattr(tensorfilt, "tensor_act", spy)
    report = product_order_equality(mods)
    assert report.equal
    assert seen and all(all(map(operator.le, depth, t_box)) for depth in seen)


# --- the comparison map ------------------------------------------------------


def test_comparison_map_collapses_against_trivial_factor(a1):
    report = comparison_map_check(legs(a1, (2,), (0,), 3))
    assert report.inclusion_ok
    assert report.module_graded_dims == [1, 1, 1]
    assert report.image_dims == [1, 0, 0]
    assert report.kernel_dims == [0, 1, 1]
    assert not report.injective


def test_comparison_map_injective_case(a1):
    report = comparison_map_check(legs(a1, (1,), (1,), 2))
    assert report.inclusion_ok
    assert report.kernel_dims == [0, 0]
    assert report.injective


def test_comparison_map_a2_adjoint(a2):
    report = comparison_map_check(legs(a2, (1, 1), (0, 0), None))
    assert report.inclusion_ok
    assert report.module_graded_dims == [1, 3, 4, 0, 0]
    assert report.image_dims == [1, 0, 0, 0, 0]
    assert report.kernel_dims == [0, 3, 4, 0, 0]


# --- stability under the diagonal action -------------------------------------


@pytest.mark.parametrize("label,lam,mu,p,k_cap", [
    ("A1", (1,), (1,), 2, 4),
    ("A1", (3,), (1,), 2, 4),
    ("A2", (1, 0), (0, 1), 2, 2),
])
def test_delta_stability(label, lam, mu, p, k_cap):
    system = build_root_system(label)
    report = delta_stability_check(legs(system, lam, mu, p), k_cap=k_cap)
    assert report.stable
    assert report.violations == []
    assert report.checked_levels >= 1


# --- the dual filtration -----------------------------------------------------


def test_dual_filtration_dims(a1, a2):
    # V(1)* = V(1) in A1; in A2 the dual of V(1,0) (x) V(0,1) is
    # V(0,1) (x) V(1,0)
    star = legs(a1, (1,), (1,), 2)
    assert [dual_filtration_dims(star, n) for n in range(4)] == [4, 1, 0, 0]
    star = legs(a2, a2.star((1, 0)), a2.star((0, 1)), 2)
    assert [dual_filtration_dims(star, n) for n in range(4)] == [9, 1, 0, 0]
