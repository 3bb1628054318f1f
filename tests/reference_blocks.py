"""Reference block formulas: the two-field gradient and curvature of
``solver.PairEnergy``, written with both fields as arguments and one branch
per block.  The block objectives must reproduce them bit for bit, so every
product keeps the association used here.  ``pair_mixed`` and
``joint_hessian`` assemble the dense Hessian of ``PairEnergy.joint``, and
``lagrangian_hessian`` adds the two mass constraints of the gamma table.
"""

import numpy as np

from bectension import solver


def plain_block(energy, gradient, curvature, *newton):
    """A ``solver.Block`` of functions of x alone, with no ``_Angle`` to share."""
    return solver.Block(lambda x, _=None: (energy(x), None), lambda x, _=None: gradient(x),
                        lambda x, _=None: curvature(x), *newton)


def pair_gradient(e, v, phi, block):
    h, beta, pot = e.h, e.beta, e.pot
    dphi = np.diff(phi)
    v2 = v * v
    sin_phi = np.sin(phi)
    g = np.zeros_like(v)
    if block == "v":
        flux = e.cell * np.diff(v) / h
        g[:-1] -= flux
        g[1:] += flux
        g -= h * pot * v * (1.0 - v2)
        nv = e.node * v
        dphi2 = dphi * dphi
        g[:-1] += nv[:-1] * dphi2 / (8.0 * h)
        g[1:] += nv[1:] * dphi2 / (8.0 * h)
        g += 0.5 * beta * h * pot * v * v2 * sin_phi * sin_phi
    else:
        nv2 = e.node * v2
        flux = (nv2[:-1] + nv2[1:]) * dphi / (8.0 * h)
        g[:-1] -= flux
        g[1:] += flux
        g += 0.25 * beta * h * pot * v2 * v2 * sin_phi * np.cos(phi)
    return g


def pair_curvature(e, v, phi, block):
    h, beta = e.h, e.beta
    v2 = v * v
    kin = np.zeros(v.size)
    if block == "v":
        a = e.cell / h
        pot = h * e.pot * (3.0 * v2 - 1.0)
        b = np.diff(phi) ** 2 / (8.0 * h)
        pot[:-1] += e.node[:-1] * b
        pot[1:] += e.node[1:] * b
        pot += 1.5 * beta * h * e.pot * v2 * np.sin(phi) ** 2
    else:
        nv2 = e.node * v2
        a = (nv2[:-1] + nv2[1:]) / (8.0 * h)
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        pot = 0.25 * beta * h * e.pot * v2 * v2 * (cos_phi - sin_phi) * (cos_phi + sin_phi)
    kin[:-1] += a
    kin[1:] += a
    return kin, -a, pot


def pair_mixed(e, v, phi):
    """The dense mixed block d2E/dv_i dphi_j of ``solver.PairEnergy``."""
    h, n = e.h, v.size
    dphi = np.diff(phi)
    q = e.node * v / (4.0 * h)
    diag = e.beta * h * e.pot * v ** 3 * np.sin(phi) * np.cos(phi)
    diag[1:] += q[1:] * dphi
    diag[:-1] -= q[:-1] * dphi
    i = np.arange(n - 1)
    m = np.diag(diag)
    m[i, i + 1] = q[:-1] * dphi
    m[i + 1, i] = -q[1:] * dphi
    return m


def joint_hessian(e, v, phi):
    """The dense Hessian in the interleaved order (v_0, phi_0, v_1, phi_1, ...)."""
    n = v.size
    hess = np.zeros((2 * n, 2 * n))
    for k, block in enumerate(("v", "phi")):
        kin, off, pot = pair_curvature(e, v, phi, block)
        hess[k::2, k::2] = np.diag(kin + pot) + np.diag(off, 1) + np.diag(off, -1)
    m = pair_mixed(e, v, phi)
    hess[0::2, 1::2] = m
    hess[1::2, 0::2] = m.T
    return hess


def lagrangian_hessian(e, mass, lam, v, phi):
    """The dense Hessian of E + lam1 c1 + lam2 c2, interleaved as ``joint_hessian``,
    with c1 = sum m v^2 - 1 and c2 = sum m v^2 cos(phi) - target: each
    constraint Hessian couples v_i and phi_i only.
    """
    hess = joint_hessian(e, v, phi)
    i = 2 * np.arange(v.size)
    hess[i, i] += 2.0 * mass * (lam[0] + lam[1] * np.cos(phi))
    hess[i + 1, i + 1] -= lam[1] * mass * v * v * np.cos(phi)
    mixed = -2.0 * lam[1] * mass * v * np.sin(phi)
    hess[i, i + 1] += mixed
    hess[i + 1, i] += mixed
    return hess


def band_to_dense(ab):
    """The symmetric matrix of a band in LAPACK lower storage."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for k in range(ab.shape[0]):
        j = np.arange(n - k)
        dense[j + k, j] = dense[j, j + k] = ab[k, :n - k]
    return dense


def assert_blocks_match(problem, v, phi, energy, gradient, curvature):
    """Each block of ``problem`` at (v, phi) equals the references bit for bit."""
    blocks = {"v": (problem.v_block(phi), v), "phi": (problem.phi_block(v), phi)}
    for name, (block, x) in blocks.items():
        assert block.energy(x)[0] == energy(problem, v, phi)
        np.testing.assert_array_equal(block.gradient(x), gradient(problem, v, phi, name))
        got, want = block.curvature(x), curvature(problem, v, phi, name)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
