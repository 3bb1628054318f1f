"""Property tests for the invariants the analysis promises.

Each draw is a coupling ratio beta, log-uniform in [1e-2, 1e4], solved on one
fixed coarse grid (L = 100 covers the widest angle transition in the range,
h = 0.05 keeps a solve well under a second).  Checked: sigma inside the
analytic bracket, sigma nondecreasing in beta, phi monotone, and the dip
never below ``dip_floor``; the grid-dependent checks allow one spacing h.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bectension import analytic, solver

COARSE = solver.SolverConfig(half_width=100.0, spacing=0.05)
H = 0.05

betas = st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0**e)
PROPERTY_SETTINGS = settings(max_examples=6, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(beta=betas)
def test_single_solve_invariants(beta):
    result = solver.solve(beta, COARSE)
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
    sigmas = [solver.solve(beta, COARSE).sigma for beta in sorted(draws)]
    assert np.all(np.diff(sigmas) >= -1e-8)
