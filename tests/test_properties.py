"""Property tests for the invariants the analysis promises.

Each draw is a coupling ratio beta, log-uniform in [1e-2, 1e4], solved on one
fixed coarse grid (L = 100 covers the widest angle transition in the range,
h = 0.05 keeps a solve well under a second).  Checked: sigma inside the
analytic bracket, sigma nondecreasing in beta, phi monotone, and the dip
never below ``dip_floor``; the grid-dependent checks allow one spacing h.
The constrained pair solve of the gamma table, drawn over beta and the mass
split at eps = 0.04, must end at a KKT point of its box.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bectension import analytic, solver
from bectension import gp_validation as gp

COARSE = dict(half_width=100.0, spacing=0.05)
H = 0.05

betas = st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0**e)
PROPERTY_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(beta=betas)
def test_single_solve_invariants(beta):
    result = solver.solve(beta, **COARSE)
    bracket = analytic.sigma_bracket(beta)
    assert bracket.lower - H <= result.sigma <= bracket.upper + H
    assert solver.diagnostics(result.pair).phi_monotone
    assert result.inf_v >= analytic.dip_floor(beta) - H


@PROPERTY_SETTINGS
@given(draws=st.lists(betas, min_size=2, max_size=3, unique=True))
def test_sigma_nondecreasing_in_beta(draws):
    # The discrete energy of a fixed pair grows with beta, so the discrete
    # minimum does too; the slack is the energy accuracy of a solve stopped
    # at the default projected-gradient tolerance.
    sigmas = [solver.solve(beta, **COARSE).sigma for beta in sorted(draws)]
    assert np.all(np.diff(sigmas) >= -1e-8)


@functools.cache
def eta_004():
    return gp.solve_ground_state(0.04)


@PROPERTY_SETTINGS
@given(beta=betas, alpha1=st.floats(min_value=0.3, max_value=0.7))
@example(beta=1e-2, alpha1=0.3)
@example(beta=1e4, alpha1=0.7)
def test_constrained_pair_is_a_kkt_point(beta, alpha1):
    # sigma only scales the reported limit; the constraints do not see it
    row = gp.minimize_weighted_pair(0.04, beta, alpha1=alpha1, sigma=1.0, eta=eta_004())
    assert row.mass_res_1 <= 1e-6 and row.mass_res_2 <= 1e-6
    # the multipliers from the rows off every bound, where grad L = 0 must hold
    grid = row.eta.grid
    frozen = np.abs(grid.nodes) > gp.TF_LAMBDA + 0.35
    frozen[[0, -1]] = True
    fixed = solver._interleave(frozen, frozen)
    x = solver._interleave(row.v, row.phi)
    hi = np.tile([np.inf, np.pi], grid.n_points)
    mass = grid.spacing * grid.trapezoid_weights() * row.eta.values ** 2
    g = gp._weighted_energy(row.eta, 0.04, beta, scale=0.04).joint().gradient(x)
    a = gp._MassConstraints(mass, (1.0, 2.0 * alpha1 - 1.0)).gradients(x)
    g[fixed], a[fixed] = 0.0, 0.0
    inner = ~fixed & (x > 0.0) & (x < hi)
    lam = np.linalg.lstsq(a[inner], -g[inner], rcond=None)[0]
    assert np.abs(solver._projected(x, g + a @ lam, 0.0, hi)).max() <= 1e-6
