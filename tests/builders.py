"""The built modules the tests hand to the library's analysis functions,
which take built ``WeylModuleP`` objects and build nothing themselves."""

from weylpbw import (DIM_CAP_DEFAULT, InducedSections, WeylModuleP,
                     build_root_system, gamma_weight)


def legs(system, lam, mu, p):
    """V(lam) and V(mu) over GF(p); a square shares one module."""
    a = WeylModuleP.build(system, lam, p)
    return (a, a) if mu == lam else (a, WeylModuleP.build(system, mu, p))


def v_gamma(system, p):
    """V(gamma) over GF(p), gamma = 2(p-1)rho."""
    return WeylModuleP.build(system, gamma_weight(system, p), p)


def g2_fundamentals(p):
    """V(w1) and V(w2) of G2 over GF(p)."""
    g2 = build_root_system("G2")
    return WeylModuleP.build(g2, (1, 0), p), WeylModuleP.build(g2, (0, 1), p)


def h0(system, lam, p, dim_cap=DIM_CAP_DEFAULT):
    """H0(lam), read off V(lam*) over GF(p)."""
    return InducedSections(WeylModuleP.build(system, system.star(lam), p, dim_cap))
