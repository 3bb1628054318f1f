import math

import numpy as np
import pytest
from scipy.integrate import quad

from bectension import analytic, solver
from bectension import gp_validation as gp
from bectension.grid import Grid1D

SIGMA_BETA_ONE = 0.3874873242966853  # frozen default-grid value, see test_solver


@pytest.fixture(scope="module")
def eta_005():
    return gp.solve_ground_state(0.05)


def l2_norm(state):
    w = state.grid.trapezoid_weights()
    return math.sqrt(state.grid.spacing * float(w @ (state.values**2)))


class TestGroundState:
    def test_normalized_and_positive(self, eta_005):
        assert abs(l2_norm(eta_005) - 1.0) <= 1e-10
        assert np.all(eta_005.values[1:-1] > 0.0)
        assert eta_005.values[0] == eta_005.values[-1] == 0.0

    def test_close_to_thomas_fermi_in_the_bulk(self, eta_005):
        x = eta_005.grid.nodes
        tf = np.sqrt(np.maximum(gp.TF_LAMBDA**2 - x * x, 0.0))
        bulk = np.abs(x) <= gp.TF_LAMBDA - 0.2
        assert np.abs(eta_005.values - tf)[bulk].max() <= 0.05

    def test_tail_mass_small(self, eta_005):
        # frozen on the first verified run: measured 0.077 at eps=0.05, and
        # the edge-layer scaling brings it down as eps shrinks
        x = eta_005.grid.nodes
        w = eta_005.grid.trapezoid_weights()
        tail = np.abs(x) >= gp.TF_LAMBDA
        mass = math.sqrt(eta_005.grid.spacing * np.sum((w * eta_005.values**2)[tail]))
        assert mass <= 0.10

    def test_stationarity(self, eta_005):
        g = gp._gp_gradient(eta_005.values, eta_005.grid.nodes, eta_005.eps,
                            eta_005.grid.spacing, eta_005.grid.trapezoid_weights())
        gc = 2.0 * eta_005.grid.spacing * eta_005.grid.trapezoid_weights() * eta_005.values
        gt = g - (g @ gc) / (gc @ gc) * gc
        gt[0] = gt[-1] = 0.0
        assert np.abs(gt).max() <= 1e-9

    def test_failure_carries_last_state(self):
        with pytest.raises(solver.ConvergenceError) as err:
            gp.solve_ground_state(0.05, tol=0.0)
        state = err.value.result
        assert isinstance(state, gp.GroundState)
        assert abs(l2_norm(state) - 1.0) <= 1e-12
        assert state.iterations > 0

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            gp.solve_ground_state(0.0)
        with pytest.raises(ValueError):
            gp.solve_ground_state(1.5)


class TestWeightedPairEnergy:
    def test_pure_phase_zero(self, eta_005):
        n = eta_005.grid.n_points
        e = gp.weighted_pair_energy(np.ones(n), np.zeros(n), 0.05, 1.0, eta_005)
        assert e.total == 0.0

    def test_constant_amplitude_pure_double_well(self, eta_005):
        c = 0.8
        n = eta_005.grid.n_points
        e = gp.weighted_pair_energy(np.full(n, c), np.zeros(n), 0.05, 1.0, eta_005)
        w = eta_005.grid.trapezoid_weights()
        quart = eta_005.grid.spacing * np.sum(w * eta_005.values**4)
        expected = (1.0 - c * c) ** 2 / (4.0 * 0.05**2) * quart
        assert e.kinetic_v == 0.0
        assert e.kinetic_phi == 0.0
        assert e.coupling == 0.0
        assert e.total == pytest.approx(expected, rel=1e-12)

    def test_recovery_pair_reaches_limit(self):
        # rescaling the converged transition profile to width eps around the
        # cloud center reproduces sigma * rho(0)^(3/2) closely
        beta = 1.0
        res = solver.solve(beta)
        eps = 0.02
        eta = gp.solve_ground_state(eps)
        x = eta.grid.nodes
        s = math.sqrt(gp.TF_LAMBDA**2) / eps
        v = np.interp(s * x, res.pair.grid.nodes, res.pair.v)
        phi = np.interp(s * x, res.pair.grid.nodes, res.pair.phi)
        scaled = eps * gp.weighted_pair_energy(v, phi, eps, beta, eta).total
        target = res.sigma * gp.TF_LAMBDA**3
        assert scaled == pytest.approx(target, rel=0.10)

    def test_grid_mismatch(self, eta_005):
        with pytest.raises(ValueError):
            gp.weighted_pair_energy(np.ones(10), np.zeros(10), 0.05, 1.0, eta_005)


class TestWeightedPairDerivatives:
    """Finite-difference oracle for the eta-weighted pair energy at eps = 0.05."""

    EPS = 0.05
    H_FD = 1e-6

    def fields(self, eta):
        x = eta.grid.nodes
        v = 1.0 - 0.5 * np.exp(-((x / (3.0 * self.EPS)) ** 2)) + 0.05 * np.sin(7.0 * x)
        phi = 0.5 * np.pi * (1.0 + np.tanh(x / (3.0 * self.EPS)))
        return {"v": v, "phi": phi}

    def probe_nodes(self, eta):
        """Every other node of the interface layer, where all terms are active."""
        return np.flatnonzero(np.abs(eta.grid.nodes) <= 6.0 * self.EPS)[::2]

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_gradient_matches_central_differences(self, eta_005, beta):
        energy = gp._weighted_energy(eta_005, self.EPS, beta)
        f = self.fields(eta_005)
        assert energy.energy(f["v"], f["phi"]) == gp.weighted_pair_energy(
            f["v"], f["phi"], self.EPS, beta, eta_005).total
        grad = {b: energy.gradient(f["v"], f["phi"], b) for b in f}
        scale = max(np.abs(g).max() for g in grad.values())
        for block, field in f.items():
            for i in self.probe_nodes(eta_005):
                orig = field[i]
                field[i] = orig + self.H_FD
                ep = energy.energy(f["v"], f["phi"])
                field[i] = orig - self.H_FD
                em = energy.energy(f["v"], f["phi"])
                field[i] = orig
                assert abs(grad[block][i] - (ep - em) / (2.0 * self.H_FD)) <= 1e-6 * scale

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_block_model_is_the_block_hessian(self, eta_005, beta):
        # the unshifted model (kin + pot on the diagonal, off beside it) is
        # the exact Hessian of each block, which is tridiagonal
        energy = gp._weighted_energy(eta_005, self.EPS, beta)
        f = self.fields(eta_005)
        for block, field in f.items():
            kin, off, pot, cols = energy.curvature(f["v"], f["phi"], block)
            assert cols == ()
            diag = kin + pot
            scale = max(np.abs(diag).max(), np.abs(off).max())
            for j in self.probe_nodes(eta_005):
                orig = field[j]
                field[j] = orig + self.H_FD
                gp_ = energy.gradient(f["v"], f["phi"], block)
                field[j] = orig - self.H_FD
                gm = energy.gradient(f["v"], f["phi"], block)
                field[j] = orig
                model = np.zeros(field.size)
                model[j - 1:j + 2] = off[j - 1], diag[j], off[j]
                column = (gp_ - gm) / (2.0 * self.H_FD)
                assert np.abs(column - model).max() <= 1e-6 * scale


class TestDecomposition:
    def test_pointwise_amplitude_identity(self, eta_005):
        x = eta_005.grid.nodes
        v = 1.0 + 0.1 * np.sin(2.0 * x)
        phi = np.pi * 0.5 * (1.0 + np.tanh(x))
        u1 = eta_005.values * v * np.cos(0.5 * phi)
        u2 = eta_005.values * v * np.sin(0.5 * phi)
        np.testing.assert_allclose(u1 * u1 + u2 * u2, (eta_005.values * v) ** 2,
                                   rtol=1e-14, atol=1e-300)

    def test_exact_zero_at_pure_state(self, eta_005):
        n = eta_005.grid.n_points
        r = gp.decomposition_residual(np.ones(n), np.zeros(n), 0.05, 1.0, eta_005)
        assert r == 0.0

    def test_refinement_decay(self):
        # mass-normalized smooth pair: residual drops by >= 1.5x per halving
        eps = 0.05
        base = gp.default_eta_grid(eps)
        residuals = []
        for refine in (1, 2):
            grid = Grid1D(base.half_width, (base.n_points - 1) * refine + 1)
            eta = gp.solve_ground_state(eps, grid=grid)
            x = grid.nodes
            v = 1.0 + 0.2 * np.sin(1.7 * x) * np.exp(-x * x)
            phi = np.pi * 0.5 * (1.0 + np.tanh(1.3 * x))
            w = grid.trapezoid_weights()
            v = v / math.sqrt(grid.spacing * np.sum(w * eta.values**2 * v * v))
            residuals.append(gp.decomposition_residual(v, phi, eps, 1.0, eta))
        assert residuals[0] / residuals[1] >= 1.5


class TestInterfaceLocation:
    def test_symmetric_split(self):
        assert gp.interface_location(0.5) == 0.0

    @pytest.mark.parametrize("alpha1", [0.3, 0.62])
    def test_mass_left_of_interface(self, alpha1):
        t0 = gp.interface_location(alpha1)
        lam = gp.TF_LAMBDA
        val, _ = quad(lambda t: lam**2 - t * t, -lam, t0, epsabs=1e-13)
        assert val == pytest.approx(alpha1, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            gp.interface_location(0.0)


class TestConstrainedMinimization:
    def test_centered_interface(self):
        row = gp.minimize_weighted_pair(0.05, 1.0, sigma=SIGMA_BETA_ONE)
        assert row.limit_energy == pytest.approx(SIGMA_BETA_ONE * 0.75, rel=1e-12)
        assert row.mass_res_1 <= 1e-6
        assert row.mass_res_2 <= 1e-6
        assert abs(row.gap) / row.limit_energy <= 0.15
        # the angle jumps 0 -> pi across the center
        mid = row.eta.grid.n_points // 2
        assert row.phi[mid // 2] <= 0.1
        assert row.phi[-mid // 2] >= np.pi - 0.1

    def test_off_center_mass_split(self):
        row = gp.minimize_weighted_pair(0.05, 1.0, alpha1=0.7, sigma=SIGMA_BETA_ONE)
        t0 = gp.interface_location(0.7)
        rho0 = gp.TF_LAMBDA**2 - t0 * t0
        assert row.limit_energy == pytest.approx(SIGMA_BETA_ONE * rho0**1.5, rel=1e-12)
        assert row.mass_res_1 <= 1e-6
        assert row.mass_res_2 <= 1e-6
        assert abs(row.gap) / row.limit_energy <= 0.15

    def test_gamma_table_gaps_shrink(self):
        rows = gp.gamma_table([0.08, 0.04], 1.0, sigma=SIGMA_BETA_ONE)
        gaps = [abs(r.gap) for r in rows]
        assert gaps[1] < gaps[0]
        for r in rows:
            assert r.mass_res_1 <= 1e-6 and r.mass_res_2 <= 1e-6
            # two-sided desk bounds: above the liminf floor, below the
            # single-interface recovery value at this eps
            assert r.scaled_energy >= 0.8 * r.limit_energy
            assert r.scaled_energy <= (1.0 + 0.15) * r.limit_energy
        # sharp-interface structure of the last row: away from the interface
        # and the cloud edge layer, the amplitude is near 1 and the angle
        # sits on the pure phases
        last = rows[-1]
        x = last.eta.grid.nodes
        inner = (np.abs(x) > 10.0 * last.eps) & (np.abs(x) <= gp.TF_LAMBDA - 0.2)
        assert np.abs(last.v - 1.0)[inner].max() <= 0.05
        assert np.minimum(last.phi, np.pi - last.phi)[inner].max() <= 0.1

    def test_minimum_below_recovery_competitor(self):
        # limsup direction at desk scale: the constrained minimum cannot
        # exceed the mass-normalized rescaled-profile competitor
        beta, eps = 1.0, 0.04
        res = solver.solve(beta)
        eta = gp.solve_ground_state(eps)
        x = eta.grid.nodes
        s = gp.TF_LAMBDA / eps
        v = np.interp(s * x, res.pair.grid.nodes, res.pair.v)
        phi = np.interp(s * x, res.pair.grid.nodes, res.pair.phi)
        w = eta.grid.trapezoid_weights()
        v = v / math.sqrt(eta.grid.spacing * np.sum(w * eta.values**2 * v * v))
        recovery = eps * gp.weighted_pair_energy(v, phi, eps, beta, eta).total
        row = gp.minimize_weighted_pair(eps, beta, sigma=res.sigma, eta=eta)
        assert row.scaled_energy <= recovery + 1e-9

    def test_gamma_table_validation(self):
        with pytest.raises(ValueError):
            gp.gamma_table([0.04, 0.08], 1.0, sigma=1.0)  # increasing
        with pytest.raises(ValueError):
            gp.gamma_table([0.2, 0.1], 1.0, sigma=1.0)  # above desk regime

    def test_gamma_table_rejects_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input was validated")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(gp, "solve_ground_state", no_solve)
        with pytest.raises(ValueError, match="empty"):
            gp.gamma_table([], 1.0)
        with pytest.raises(ValueError, match="alpha1"):
            gp.gamma_table([0.04], 1.0, alpha1=1.5)

    def test_csv_rows_schema(self):
        row = gp.GammaRow(eps=0.1, beta=1.0, scaled_energy=2.0, limit_energy=1.0,
                          gap=1.0, mass_res_1=0.0, mass_res_2=0.0)
        out = gp.gamma_csv_rows([row])
        assert list(out[0]) == ["eps", "beta", "scaled_energy", "limit_energy",
                                "gap", "mass_res_1", "mass_res_2"]


@pytest.mark.parametrize("call", [
    lambda: analytic.sigma_bracket(math.inf),
    lambda: analytic.dip_floor(math.inf),
    lambda: analytic.minimize_plateau_objective(math.inf),
    lambda: gp.minimize_weighted_pair(0.05, math.inf, sigma=SIGMA_BETA_ONE),
], ids=["sigma_bracket", "dip_floor", "minimize_plateau_objective", "minimize_weighted_pair"])
def test_non_finite_beta_rejected(call):
    with pytest.raises(ValueError, match="beta"):
        call()
