"""Root systems, Chevalley constants, and weight bookkeeping."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import weylpbw
from weylpbw import CartanMatrixError, InvariantError, ResourceCapError, build_root_system
from weylpbw.rootsys import RANK_CAP, CartanData, RootSystem

G2_ROOTS = ((3, 2), (3, 1), (2, 1), (1, 1), (0, 1), (1, 0))


@pytest.fixture(scope="module")
def g2():
    return build_root_system("G2")


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A2")


def test_g2_positive_roots_fixed_order(g2):
    assert g2.positive_roots == G2_ROOTS
    assert g2.n_pos == 6
    assert [g2.root_name(b) for b in g2.positive_roots] == [
        "11122", "1112", "112", "12", "2", "1"]
    assert [g2.height(b) for b in g2.positive_roots] == [5, 4, 3, 2, 1, 1]


def test_g2_cartan_matrix(g2):
    # alpha1 short: <alpha2, alpha1 v> = -3
    assert g2.cartan.matrix == ((2, -3), (-1, 2))
    assert g2.cartan.label == "G2"


def test_label_and_matrix_agree():
    from_label = build_root_system("G2")
    from_matrix = build_root_system([[2, -3], [-1, 2]])
    assert from_matrix.positive_roots == from_label.positive_roots
    assert from_matrix.cartan.label is None


def test_root_counts_by_type():
    for label, count in [("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4),
                         ("C3", 9), ("D4", 12), ("F4", 24), ("G2", 6)]:
        assert len(build_root_system(label).positive_roots) == count


def test_a2_and_b2_orders(a2):
    assert a2.positive_roots == ((1, 1), (0, 1), (1, 0))
    b2 = build_root_system("B2")
    assert b2.positive_roots == ((1, 2), (1, 1), (0, 1), (1, 0))


def test_bad_cartan_rejected():
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, -2], [-2, 2]])          # affine, not finite type
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, -1], [0, 2]])           # zero pattern asymmetric
    with pytest.raises(CartanMatrixError):
        build_root_system([[2, 1], [1, 2]])            # positive off-diagonal
    with pytest.raises(CartanMatrixError):
        build_root_system([[1]])                       # diagonal must be 2
    for finite_type_fails in ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],   # affine A2
                              [[2, -1], [-4, 2]],                     # affine, rank 2
                              [[2, -2, 0], [-1, 2, -1], [0, -2, 2]]):  # affine, rank 3
        with pytest.raises(CartanMatrixError, match="finite-type"):
            build_root_system(finite_type_fails)
    with pytest.raises(CartanMatrixError):
        build_root_system("E6")                        # label not supported
    with pytest.raises(CartanMatrixError):
        build_root_system("G3")


def test_label_rank_is_read_as_a_number():
    """A zero-padded or lower-case label names the same root system as its
    plain form, under the plain label."""
    for typed, plain in [("A01", "A1"), ("b02", "B2"), ("F04", "F4"), ("G02", "G2")]:
        assert build_root_system(typed) is build_root_system(plain)
        assert CartanData.from_label(typed).label == plain
    for bad in ("E6", "F3", "B1"):
        with pytest.raises(CartanMatrixError):
            build_root_system(bad)
    # rank 0 is no type, rather than an empty matrix that fails an axiom
    for bad in ("A0", "A00"):
        with pytest.raises(CartanMatrixError, match="unsupported type label A0"):
            build_root_system(bad)


def test_symmetrizer_is_minimal_on_each_component():
    # B2 plus a disjoint A1: the A1 component is scaled on its own
    assert build_root_system([[2, -1, 0], [-2, 2, 0], [0, 0, 2]]).d == (2, 1, 1)
    assert build_root_system([[2, 0, 0], [0, 2, -1], [0, -2, 2]]).d == (1, 2, 1)
    assert build_root_system("G2").d == (1, 3)
    assert build_root_system("C3").d == (1, 1, 2)


def test_rank_cap():
    assert build_root_system("A4").rank == RANK_CAP
    with pytest.raises(ResourceCapError, match="rank 5 exceeds cap 4"):
        build_root_system("A5")


def test_g2_structure_constants_pinned(g2):
    # every nonzero N(a, b) on positive pairs, under the extraspecial-pair
    # convention this package fixes
    expected = {
        ((3, 1), (0, 1)): -1,
        ((2, 1), (1, 1)): -3,
        ((2, 1), (1, 0)): -3,
        ((1, 1), (2, 1)): 3,
        ((1, 1), (1, 0)): -2,
        ((0, 1), (3, 1)): 1,
        ((0, 1), (1, 0)): 1,
        ((1, 0), (2, 1)): 3,
        ((1, 0), (1, 1)): 2,
        ((1, 0), (0, 1)): -1,
    }
    seen = {}
    for a in g2.positive_roots:
        for b in g2.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if g2.is_positive_root(s):
                seen[(a, b)] = g2.structure_constant(a, b)
    assert seen == expected


def test_structure_constant_antisymmetry(g2):
    for a in g2.positive_roots:
        for b in g2.positive_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if g2.is_positive_root(s):
                assert g2.structure_constant(a, b) == -g2.structure_constant(b, a)


def test_g2_extraspecial_pairs(g2):
    assert g2.extraspecial_pair((1, 1)) == ((0, 1), (1, 0))
    assert g2.extraspecial_pair((2, 1)) == ((1, 0), (1, 1))
    assert g2.extraspecial_pair((3, 1)) == ((1, 0), (2, 1))
    assert g2.extraspecial_pair((3, 2)) == ((0, 1), (3, 1))


def _bracket_dicts(system, x, y):
    """[x, y] for sparse basis-coefficient dictionaries."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, ck in system.bracket_basis(i, j).items():
                out[k] = out.get(k, 0) + ci * cj * ck
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_jacobi_identity_exhaustive(label):
    system = build_root_system(label)
    dim = system.adjoint_dim
    basis = [{i: 1} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = _bracket_dicts(system, basis[i],
                                     _bracket_dicts(system, basis[j], basis[k]))
                rhs1 = _bracket_dicts(system,
                                      _bracket_dicts(system, basis[i], basis[j]),
                                      basis[k])
                rhs2 = _bracket_dicts(system, basis[j],
                                      _bracket_dicts(system, basis[i], basis[k]))
                total = dict(rhs1)
                for key, v in rhs2.items():
                    total[key] = total.get(key, 0) + v
                total = {key: v for key, v in total.items() if v}
                assert lhs == total, (i, j, k)


def test_weyl_dimension(g2, a2):
    assert g2.weyl_dimension((0, 0)) == 1
    assert g2.weyl_dimension((1, 0)) == 7
    assert g2.weyl_dimension((0, 1)) == 14
    assert g2.weyl_dimension((1, 1)) == 64
    assert g2.weyl_dimension((2, 0)) == 27
    assert g2.weyl_dimension((0, 2)) == 77
    assert g2.weyl_dimension((16, 0)) == 35853
    assert a2.weyl_dimension((1, 1)) == 8
    a1 = build_root_system("A1")
    for n in range(8):
        assert a1.weyl_dimension((n,)) == n + 1


def test_depth_vector_and_monomial_depth(g2):
    # depth_vector is lam - w0(lam) in root coordinates; w0 = -1 for G2,
    # so the box extent is twice the alpha-coordinates of lam
    assert g2.depth_vector((1, 0)) == (4, 2)      # 2 * (2a1 + a2)
    assert g2.depth_vector((0, 1)) == (6, 4)      # 2 * (3a1 + 2a2)
    assert g2.depth_vector((1, 1)) == (10, 6)
    assert g2.monomial_depth((1, 0, 0, 0, 0, 0)) == (3, 2)
    assert g2.monomial_depth((0, 0, 0, 0, 1, 1)) == (1, 1)
    assert g2.root_coords_of((0, 1)) == (Fraction(3), Fraction(2))


def test_pairing_and_dominance(g2):
    # <w_i, alpha_j v> = delta_ij
    assert g2.pairing((1, 0), (1, 0)) == 1
    assert g2.pairing((1, 0), (0, 1)) == 0
    assert g2.pairing((0, 1), (0, 1)) == 1
    assert g2.pairing((3, 1), (1, 0)) == 3        # <3w1 + w2, alpha1 v>
    assert g2.pairing((2, 2), (3, 2)) == 6        # highest long root: coroot (1, 2)
    assert g2.pairing((2, 2), (2, 1)) == 10       # highest short root: coroot (2, 3)
    assert g2.coroot_coords((3, 2)) == (1, 2)
    assert g2.is_dominant((2, 5))
    assert not g2.is_dominant((-1, 0))


def test_star_is_identity_outside_type_a(g2, a2):
    assert a2.star((1, 0)) == (0, 1)
    assert a2.star((2, 1)) == (1, 2)
    assert g2.star((1, 0)) == (1, 0)
    b2 = build_root_system("B2")
    assert b2.star((0, 1)) == (0, 1)
    a1 = build_root_system("A1")
    assert a1.star((3,)) == (3,)


def test_rho_and_fundamental(g2):
    assert g2.rho == (1, 1)


# --- invariants that survive python -O ------------------------------------------


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "F4", "G2"])
def test_simple_roots_come_last(label):
    system = build_root_system(label)
    tail = system.positive_roots[system.n_pos - system.rank:]
    assert sorted(tail) == sorted(tuple(int(i == j) for j in range(system.rank))
                                  for i in range(system.rank))


class AscendingRoots(RootSystem):
    """A root system listing its positive roots lowest first: the simple
    roots then no longer come last."""

    def _descending_height_order(self):
        return tuple(reversed(super()._descending_height_order()))


def test_root_order_check_raises_invariant_error():
    with pytest.raises(InvariantError, match="simple roots"):
        AscendingRoots(CartanData.from_label("A2"))
    with pytest.raises(InvariantError, match="G2 root order"):
        AscendingRoots(CartanData.from_label("G2"))


def _invariant_error_under_optimize(build: str) -> str:
    """Evaluate ``build`` in ``test_rootsys`` under ``python -O``; the
    stdout it prints."""
    here = Path(__file__).resolve().parent
    src = Path(weylpbw.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(here)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("from test_rootsys import *\n"
            "try:\n"
            f"    {build}\n"
            "except InvariantError as exc:\n"
            "    print('InvariantError:', exc)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_root_order_check_survives_optimize_flag():
    """``python -O`` strips asserts; the root-order check must still fire."""
    out = _invariant_error_under_optimize("AscendingRoots(CartanData.from_label('A2'))")
    assert "InvariantError: the last rank positive roots" in out


class CorruptJacobiDivisor(RootSystem):
    """G2 with N(3a1+2a2, -a2) doubled: the divisor of the one Jacobi
    propagation (3a1+2a2 = (a1+a2) + (2a1+a2)), whose true quotient is +-3."""

    def _resolve_constant(self, a, b):
        n = super()._resolve_constant(a, b)
        return 2 * n if (a, b) == ((3, 2), (0, -1)) else n


class CorruptNorm(RootSystem):
    """A2 with the norm of a1+a2 tripled, so a mixed-sign constant through
    it is no longer an integer."""

    def norm(self, b):
        return super().norm(b) * (3 if b == (1, 1) else 1)


def corrupt_mixed_sign_constant():
    return CorruptNorm(CartanData.from_label("A2")).structure_constant((1, 1), (0, -1))


def test_structure_constant_divisions_raise_invariant_error():
    with pytest.raises(InvariantError, match="Jacobi propagation must stay integral"):
        CorruptJacobiDivisor(CartanData.from_label("G2"))
    with pytest.raises(InvariantError, match="mixed-sign constant must be integral"):
        corrupt_mixed_sign_constant()


def test_structure_constant_divisions_survive_optimize_flag():
    out = _invariant_error_under_optimize(
        "CorruptJacobiDivisor(CartanData.from_label('G2'))")
    assert "InvariantError: Jacobi propagation must stay integral" in out
    out = _invariant_error_under_optimize("corrupt_mixed_sign_constant()")
    assert "InvariantError: mixed-sign constant must be integral" in out


def test_root_lookups_reject_non_roots(g2):
    with pytest.raises(InvariantError):
        g2.root_name((2, 2))
    with pytest.raises(InvariantError):
        g2.extraspecial_pair((1, 0))
