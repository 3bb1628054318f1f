"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; the
solves are shared through a session cache so the suite stays fast.
"""

import math

import numpy as np
import pytest

from bectension import analytic, asymptotics, gp_validation, solver, tf_geometry

SQRT2 = math.sqrt(2.0)

BRACKET_BETAS = [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3]
LARGE_BETAS = [1e2, 1e3, 1e4, 1e5]
SMALL_BETAS = [1e-4, 1e-3, 1e-2]


def verdict(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_01_strong_coupling_endpoint():
    value = analytic.transition_cost(0.0)
    target = 2.0 * SQRT2 / 3.0
    err = abs(value - target)
    verdict(1, "strong-coupling endpoint", err <= 1e-12,
            f"transition_cost(0)={value:.15f}, |err|={err:.2e}")


def test_02_bracket_consistency(solve_cache):
    worst = 0.0
    ok = True
    for beta in BRACKET_BETAS:
        res = solve_cache(beta)
        br = analytic.sigma_bracket(beta)
        ok &= br.lower - 1e-2 <= res.sigma <= br.upper + 1e-2
        worst = max(worst, br.lower - res.sigma, res.sigma - br.upper)
    verdict(2, "bracket consistency", ok,
            f"{len(BRACKET_BETAS)} betas, worst overshoot {worst:.2e} (allowed 1e-2)")


def test_03_strong_coupling_rates(solve_cache):
    betas = np.array(LARGE_BETAS)
    gaps = np.array([analytic.SIGMA_INFINITY - solve_cache(b).sigma for b in betas])
    dips = np.array([solve_cache(b).inf_v for b in betas])
    gap_fit = asymptotics.loglog_slope(betas, gaps)
    dip_fit = asymptotics.loglog_slope(betas, dips)
    ok = abs(gap_fit.slope + 0.25) <= 0.05 and abs(dip_fit.slope + 0.25) <= 0.05
    verdict(3, "large-beta rates", ok,
            f"gap slope {gap_fit.slope:+.4f}, dip slope {dip_fit.slope:+.4f}, target -0.25+-0.05")


def test_04_weak_coupling_bound(solve_cache):
    betas = np.array(SMALL_BETAS)
    sigmas = np.array([solve_cache(b).sigma for b in betas])
    ratios = sigmas / np.sqrt(betas)
    fit = asymptotics.loglog_slope(betas, sigmas)
    ok = bool(np.all(ratios <= asymptotics.SMALL_BETA_COEFF))
    verdict(4, "small-beta bound", ok,
            f"max sigma/sqrt(beta)={ratios.max():.4f} <= {asymptotics.SMALL_BETA_COEFF}, "
            f"measured slope {fit.slope:+.4f} (informational)")


def test_05_symmetry_breaking_constants():
    rep1 = tf_geometry.symmetry_breaking_report(tf_geometry.TFModel(1))
    rep3 = tf_geometry.symmetry_breaking_report(tf_geometry.TFModel(3))
    ok = (
        abs(rep1.ratio - 1.65) <= 0.02 and abs(rep1.split_radius - 0.35) <= 0.01
        and abs(rep3.ratio - 1.86) <= 0.02 and abs(rep3.split_radius - 0.64) <= 0.01
        and rep1.broken and rep3.broken
    )
    verdict(5, "symmetry-breaking constants", ok,
            f"n=1: R={rep1.split_radius:.4f}, ratio={rep1.ratio:.4f}; "
            f"n=3: R={rep3.split_radius:.4f}, ratio={rep3.ratio:.4f}")


def test_06_radial_energy_concavity():
    reports = {n: tf_geometry.concavity_report(tf_geometry.TFModel(n)) for n in (1, 2, 3)}
    ok = all(r.passed for r in reports.values())
    detail = ", ".join(
        f"n={n}: d2<={r.max_second_difference:.2e}, f''<={r.max_closed_form:.2e}"
        for n, r in reports.items()
    )
    verdict(6, "radial energy concavity", ok, detail)


@pytest.fixture(scope="module")
def fine_beta1():
    out = {}
    for h in (4e-3, 2e-3, 1e-3):
        out[h] = solver.solve(1.0, solver.SolverConfig(spacing=h))
    return out


def test_07_equipartition_refinement(fine_beta1):
    r4, r2, r1 = (fine_beta1[h].equipartition_l2 for h in (4e-3, 2e-3, 1e-3))
    ratios = (r4 / r2, r2 / r1)
    ok = all(1.5 <= r <= 3.0 for r in ratios)
    verdict(7, "equipartition refinement", ok,
            f"residuals {r4:.3e} -> {r2:.3e} -> {r1:.3e}, ratios {ratios[0]:.3f}, {ratios[1]:.3f}")


def test_08_stationarity_residuals(fine_beta1):
    res = fine_beta1[1e-3]
    ok = res.el_residual_v <= 1e-3 and res.el_residual_phi <= 1e-3
    verdict(8, "stationarity residuals", ok,
            f"amplitude {res.el_residual_v:.2e}, angle {res.el_residual_phi:.2e} (allowed 1e-3)")


def test_09_monotone_angle_and_symmetry(solve_cache):
    from tests.test_solver import moved_wall

    # solve works on the half line, so its pair is symmetric by construction.
    # The symmetry is tested on a full-line refine from an asymmetric start:
    # the wall of solve(1) moved 0.7 off centre, with a 2 % ripple in v.
    betas = BRACKET_BETAS + LARGE_BETAS + SMALL_BETAS
    monotone = all(solver.diagnostics(solve_cache(b).pair).phi_monotone for b in betas)
    res = solve_cache(1.0)
    full, _ = solver.alternating_refine(moved_wall(res, 0.7, 0.02), 1.0)
    gap = abs(solver.discrete_energy(full, 1.0).total - res.sigma)
    d = solver.diagnostics(full)
    sym = max(d.v_symmetric_error, d.phi_antisymmetric_error)
    ok = monotone and gap <= 2e-6 and sym <= 1e-6
    verdict(9, "monotone angle and symmetry", ok,
            f"phi monotone at {len(set(betas))} betas; full-line solve from an off-centre "
            f"rippled start: energy shift {gap:.2e}, symmetry defect {sym:.2e} about its crossing")


def test_10_gradient_oracle():
    from tests.test_solver import random_pair, small_grid

    rng = np.random.default_rng(2024)
    g = small_grid()
    h_fd = 1e-6
    worst = 0.0
    for beta in (0.1, 1.0, 100.0):
        energy = solver.PairEnergy.unit(beta, g)
        for _ in range(5):
            pair = random_pair(g, rng)
            gv, gphi = solver.discrete_gradient(pair, beta)
            scale = max(np.abs(gv).max(), np.abs(gphi).max())
            for i in rng.integers(1, g.n_points - 1, size=20):
                for field, grad in ((pair.v, gv), (pair.phi, gphi)):
                    orig = field[i]
                    field[i] = orig + h_fd
                    ep = energy.terms(pair.v, pair.phi).total
                    field[i] = orig - h_fd
                    em = energy.terms(pair.v, pair.phi).total
                    field[i] = orig
                    worst = max(worst, abs(grad[i] - (ep - em) / (2.0 * h_fd)) / scale)
    verdict(10, "gradient oracle", worst <= 1e-6,
            f"worst relative defect {worst:.2e} over 5 pairs x 3 betas x 20 nodes")


def test_11_sharp_interface_trend(solve_cache):
    sigma = solve_cache(1.0).sigma
    rows = gp_validation.gamma_table([0.04, 0.02, 0.01], 1.0, sigma=sigma)
    gaps = [abs(r.gap) for r in rows]
    rel = gaps[-1] / rows[-1].limit_energy
    ok = gaps[0] > gaps[1] > gaps[2] and rel <= 0.15
    verdict(11, "sharp-interface trend", ok,
            f"gaps {gaps[0]:.5f} > {gaps[1]:.5f} > {gaps[2]:.5f}, final rel {rel:.3%} <= 15%")


def test_12_decomposition_identity():
    eps = 0.05
    base = gp_validation.default_eta_grid(eps)
    exact_zero = None
    residuals = []
    for refine in (1, 2):
        grid = gp_validation.Grid1D(base.half_width, (base.n_points - 1) * refine + 1)
        eta = gp_validation.solve_ground_state(eps, grid=grid)
        n = grid.n_points
        if exact_zero is None:
            exact_zero = gp_validation.decomposition_residual(
                np.ones(n), np.zeros(n), eps, 1.0, eta
            )
        x = grid.nodes
        v = 1.0 + 0.2 * np.sin(1.7 * x) * np.exp(-x * x)
        phi = np.pi * 0.5 * (1.0 + np.tanh(1.3 * x))
        w = grid.trapezoid_weights()
        v = v / math.sqrt(grid.spacing * np.sum(w * eta.values**2 * v * v))
        residuals.append(gp_validation.decomposition_residual(v, phi, eps, 1.0, eta))
    factor = residuals[0] / residuals[1]
    ok = exact_zero == 0.0 and factor >= 1.5
    verdict(12, "decomposition identity", ok,
            f"pure state residual {exact_zero}, refinement factor {factor:.2f} >= 1.5")


def test_13_transition_cost_oracle(transition_cost_oracle):
    worst = 0.0
    for m in (0.0, 0.3, 0.7):
        worst = max(worst, abs(transition_cost_oracle(m) - analytic.transition_cost(m)))
    verdict(13, "transition-cost oracle", worst <= 1e-4,
            f"worst |numeric - closed form| = {worst:.2e} over m in {{0, 0.3, 0.7}}")
