import math

import numpy as np
import pytest

from bectension import analytic, solver
from bectension.grid import Grid1D, ProfilePair

SQRT2 = math.sqrt(2.0)


def small_grid(half_width=5.0, spacing=0.025):
    return Grid1D.from_spacing(half_width, spacing)


def random_pair(grid, rng):
    """Smooth random feasible pair with pinned boundaries."""
    t = grid.nodes
    width = rng.uniform(0.5, 3.0)
    center = rng.uniform(-1.5, 1.5)
    phi = np.pi / (1.0 + np.exp(-(t - center) / width))
    bump = sum(rng.normal(0.0, 0.05) * np.sin((j + 1) * np.pi * t / grid.half_width)
               for j in range(5))
    phi = np.clip(phi + bump * np.exp(-0.1 * t * t), 0.0, np.pi)
    v = 1.0 - rng.uniform(0.1, 0.6) * np.exp(-((t - center) ** 2) / (2.0 * width**2))
    v = np.clip(v + 0.3 * bump * np.exp(-0.05 * t * t), 0.05, 1.0)
    v[0] = v[-1] = 1.0
    phi[0], phi[-1] = 0.0, np.pi
    return ProfilePair(grid, v, phi)


class TestDiscreteEnergy:
    def test_uniform_pair_has_zero_energy(self):
        g = small_grid()
        pair = ProfilePair(g, np.ones(g.n_points), np.zeros(g.n_points))
        e = solver.discrete_energy(pair, 1.0)
        assert e.total == 0.0
        assert e.kinetic_v == e.double_well == e.kinetic_phi == e.coupling == 0.0

    def test_breakdown_sums_and_signs(self):
        rng = np.random.default_rng(3)
        g = small_grid()
        for _ in range(5):
            pair = random_pair(g, rng)
            e = solver.discrete_energy(pair, 2.0)
            parts = [e.kinetic_v, e.double_well, e.kinetic_phi, e.coupling]
            assert all(p >= 0.0 for p in parts)
            assert e.total == pytest.approx(sum(parts), abs=1e-12)

    def test_quadrature_order_on_test_pair(self):
        # plateau joins sit on nodes of every grid used, so the trapezoid
        # rule keeps its clean second order: error ratio ~4 per halving
        beta, m, T = 1.0, 0.6, 1.0
        exact = analytic.test_pair_energy(m, T, beta)
        errs = []
        for h in [0.02, 0.01, 0.005]:
            g = Grid1D.from_spacing(20.0, h)
            e = solver.discrete_energy(analytic.test_pair_fields(m, T, g), beta).total
            errs.append(abs(e - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.8)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.8)

    def test_single_cell_angle_step(self):
        for h in [0.02, 0.01]:
            g = Grid1D.from_spacing(10.0, h)
            phi = np.where(g.nodes > 0, np.pi, 0.0)
            pair = ProfilePair(g, np.ones(g.n_points), phi)
            e = solver.discrete_energy(pair, 1e-12)
            assert e.total == pytest.approx(np.pi**2 / (8.0 * g.spacing), rel=1e-12)

    def test_length_mismatch(self):
        g = small_grid()
        with pytest.raises(ValueError):
            ProfilePair(g, np.ones(g.n_points - 1), np.zeros(g.n_points))


class TestDiscreteGradient:
    def test_hand_expanded_center_node(self):
        g = small_grid()
        beta = 2.5
        t = g.nodes
        phi = np.pi * (t + g.half_width) / (2.0 * g.half_width)
        pair = ProfilePair(g, np.ones(g.n_points), phi)
        gv, gphi = solver.discrete_gradient(pair, beta)
        k = g.n_points // 2
        h = g.spacing
        slope = np.pi / (2.0 * g.half_width)
        expected = h * (0.25 * slope**2 + 0.5 * beta * np.sin(phi[k]) ** 2)
        assert gv[k] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_matches_central_differences(self, beta):
        # per-entry agreement with an absolute floor at the finite-difference
        # roundoff level (machine eps * energy / step), plus agreement at
        # 1e-6 relative to the gradient scale
        rng = np.random.default_rng(11)
        g = small_grid()
        h_fd = 1e-6
        energy = solver.PairEnergy.unit(beta, g)
        for _ in range(5):
            pair = random_pair(g, rng)
            gv, gphi = solver.discrete_gradient(pair, beta)
            scale = max(np.abs(gv).max(), np.abs(gphi).max())
            nodes = rng.integers(1, g.n_points - 1, size=20)
            for i in nodes:
                for field, grad in ((pair.v, gv), (pair.phi, gphi)):
                    orig = field[i]
                    field[i] = orig + h_fd
                    ep = energy.energy(pair.v, pair.phi)
                    field[i] = orig - h_fd
                    em = energy.energy(pair.v, pair.phi)
                    field[i] = orig
                    fd = (ep - em) / (2.0 * h_fd)
                    assert grad[i] == pytest.approx(fd, rel=1e-6, abs=5e-9)
                    assert abs(grad[i] - fd) <= 1e-6 * scale

    def test_boundary_entries_zero(self):
        rng = np.random.default_rng(5)
        pair = random_pair(small_grid(), rng)
        gv, gphi = solver.discrete_gradient(pair, 1.0)
        assert gv[0] == gv[-1] == 0.0
        assert gphi[0] == gphi[-1] == 0.0

    def test_converged_minimizer_is_stationary(self, beta1_result):
        pair = beta1_result.pair
        gv, gphi = solver.discrete_gradient(pair, 1.0)
        pg = solver._projected_gradient_norm(pair.v, pair.phi, gv, gphi)
        assert pg <= 1e-8


class TestMinimize:
    def test_beta_one_defaults(self, beta1_result):
        br = analytic.sigma_bracket(1.0)
        assert br.lower - 0.01 <= beta1_result.sigma <= br.upper + 0.01
        # frozen regression value from the first verified run
        assert beta1_result.sigma == pytest.approx(0.3874873242966853, abs=1e-9)

    def test_dip_scaling_at_strong_coupling(self):
        result = solver.solve(1e4)
        scale = 1e4 ** -0.25
        assert scale / 3.0 <= result.inf_v <= 3.0 * scale

    def test_dip_floor(self, beta1_result):
        floor = analytic.dip_floor(1.0)
        assert beta1_result.inf_v >= floor - beta1_result.grid.spacing

    def test_translation_gauge(self, beta1_result):
        pair = beta1_result.pair
        v = np.roll(pair.v, 1)
        phi = np.roll(pair.phi, 1)
        v[0], phi[0] = 1.0, 0.0
        v[-1], phi[-1] = 1.0, np.pi
        shifted = ProfilePair(pair.grid, v, phi)
        e0 = solver.discrete_energy(pair, 1.0).total
        e1 = solver.discrete_energy(shifted, 1.0).total
        assert abs(e1 - e0) <= pair.grid.spacing**2

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            solver.solve(0.0)
        with pytest.raises(ValueError):
            solver.solve(-1.0)

    def test_nonconvergence_carries_state(self):
        cfg = solver.SolverConfig(half_width=5.0, spacing=0.05,
                                  max_iterations=3, grad_tol=1e-14)
        with pytest.raises(solver.ConvergenceError) as err:
            solver.solve(1.0, cfg)
        result = err.value.result
        assert result.iterations == 3
        assert result.sigma > 0.0


class TestAlternatingRefine:
    def test_fixed_point(self, beta1_result):
        # polish once so the input is optimal well beyond the default
        # tolerance, then a second pass must be an exact fixed point
        polished, _ = solver.alternating_refine(beta1_result.pair, 1.0, grad_tol=1e-10)
        e0 = solver.discrete_energy(polished, 1.0).total
        again, _ = solver.alternating_refine(polished, 1.0, grad_tol=1e-10)
        e1 = solver.discrete_energy(again, 1.0).total
        assert e1 <= e0 + 1e-15
        assert abs(e1 - e0) <= 1e-12

    def test_strict_decrease_from_test_pair(self):
        beta = 1.0
        g = Grid1D.from_spacing(20.0, 0.02)
        m_bar, _ = analytic.minimize_plateau_objective(beta)
        T = analytic.optimal_plateau_halfwidth(m_bar, beta)
        pair = analytic.test_pair_fields(m_bar, T, g)
        e0 = solver.discrete_energy(pair, beta).total
        refined, steps = solver.alternating_refine(pair, beta, grad_tol=1e-8)
        e1 = solver.discrete_energy(refined, beta).total
        assert steps > 0
        assert e1 < e0

    def test_monotone_across_half_steps(self):
        beta = 1.0
        g = Grid1D.from_spacing(10.0, 0.05)
        rng = np.random.default_rng(9)
        pair = random_pair(g, rng)
        energy = solver.PairEnergy.unit(beta, g)
        fixed = np.zeros(g.n_points, dtype=bool)
        fixed[0] = fixed[-1] = True
        v, phi = pair.v.copy(), pair.phi.copy()
        e_prev = energy.energy(v, phi)
        for _ in range(6):
            phi, _ = solver.projected_newton(
                phi, 0.0, np.pi, fixed, lambda x: energy.energy(v, x),
                lambda x: energy.gradient(v, x, "phi"),
                lambda x: energy.curvature(v, x, "phi"), 1e-12, 5)
            e = energy.energy(v, phi)
            assert e <= e_prev + 1e-15
            e_prev = e
            v, _ = solver.projected_newton(
                v, 0.0, 1.0, fixed, lambda x: energy.energy(x, phi),
                lambda x: energy.gradient(x, phi, "v"),
                lambda x: energy.curvature(x, phi, "v"), 1e-12, 5)
            e = energy.energy(v, phi)
            assert e <= e_prev + 1e-15
            e_prev = e

    def test_refuses_vanishing_amplitude(self):
        g = small_grid()
        v = np.ones(g.n_points)
        v[g.n_points // 2] = 0.0
        phi = np.clip(np.pi * (g.nodes / g.half_width + 1.0) / 2.0, 0.0, np.pi)
        with pytest.raises(ValueError):
            solver.alternating_refine(ProfilePair(g, v, phi), 1.0)

    def test_multistart_energy_agreement(self):
        beta = 1.0
        g = Grid1D.from_spacing(20.0, 0.01)
        rng = np.random.default_rng(42)
        energies = []
        for _ in range(10):
            refined, _ = solver.alternating_refine(random_pair(g, rng), beta, grad_tol=1e-8)
            energies.append(solver.discrete_energy(refined, beta).total)
        assert max(energies) - min(energies) <= 2e-6


class TestNewtonKernel:
    def tridiagonal(self, n, rng):
        off = -rng.uniform(0.5, 1.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        return diag, off, dense

    def test_banded_solve_pins_rows_and_shares_columns(self):
        rng = np.random.default_rng(7)
        n = 12
        diag, off, dense = self.tridiagonal(n, rng)
        fixed = np.zeros(n, dtype=bool)
        fixed[[0, 5, -1]] = True
        b1, b2 = rng.normal(size=n), rng.normal(size=n)
        Z = solver.banded_solve(diag, off, fixed, b1, b2)
        free = ~fixed
        assert Z.shape == (n, 2)
        assert np.all(Z[fixed] == 0.0)
        for k, b in enumerate((b1, b2)):
            expected = np.linalg.solve(dense[np.ix_(free, free)], b[free])
            np.testing.assert_allclose(Z[free, k], expected, rtol=1e-12, atol=1e-14)

    def test_one_step_minimizes_quadratic_with_low_rank_term(self):
        # E = x^T (T + U U^T) x / 2 - b^T x with the minimizer inside the box:
        # the Woodbury-corrected Newton step lands on it at once
        rng = np.random.default_rng(8)
        n = 15
        diag, off, dense = self.tridiagonal(n, rng)
        U = rng.normal(size=(n, 2))
        fixed = np.zeros(n, dtype=bool)
        fixed[0] = fixed[-1] = True
        free = ~fixed
        A = dense + U @ U.T
        x_star = np.zeros(n)  # the pinned entries stay at the start value 0
        x_star[free] = rng.uniform(0.2, 0.8, free.sum())
        b = A @ x_star

        def energy(x):
            return 0.5 * x @ A @ x - b @ x

        def curvature(x):
            return diag, off, np.zeros(n), (U[:, 0], U[:, 1])

        x, steps = solver.projected_newton(
            np.zeros(n), 0.0, 1.0, fixed, energy, lambda x: A @ x - b, curvature,
            1e-12, 3,
        )
        np.testing.assert_allclose(x, x_star, atol=1e-12)
        assert steps == 1


class TestResiduals:
    def test_constant_pair_is_stationary(self):
        g = small_grid()
        pair = ProfilePair(g, np.ones(g.n_points), np.zeros(g.n_points))
        res_v, res_phi = solver.el_residual(pair, 1.0)
        assert res_v == 0.0
        assert res_phi == 0.0
        assert solver.equipartition_residual(pair, 1.0) == 0.0

    def test_tanh_profile_solves_amplitude_equation(self):
        # any shift of tanh(t/sqrt(2)) satisfies -v'' - (1-v^2)v = 0; use the
        # branch starting at 0.5 on the left edge so v stays inside [0, 1]
        residuals = []
        for h in [0.01, 0.005]:
            g = Grid1D.from_spacing(15.0, h)
            v = analytic.tanh_profile(0.5, g.nodes - g.nodes[0])
            pair = ProfilePair(g, np.asarray(v), np.zeros(g.n_points))
            res_v, _ = solver.el_residual(pair, 1.0)
            residuals.append(res_v)
        assert residuals[0] <= 1e-3
        assert residuals[0] / residuals[1] == pytest.approx(4.0, abs=1.0)

    def test_test_pair_violates_equipartition(self):
        # frozen: the plateau test pair at beta=1 sits at ~0.107
        beta = 1.0
        m_bar, _ = analytic.minimize_plateau_objective(beta)
        T = analytic.optimal_plateau_halfwidth(m_bar, beta)
        pair = analytic.test_pair_fields(m_bar, T, solver.default_grid(beta))
        assert solver.equipartition_residual(pair, beta) >= 0.05

    def test_converged_residuals_at_default_grid(self, beta1_result):
        assert beta1_result.el_residual_v <= 1e-3
        assert beta1_result.el_residual_phi <= 1e-3


class TestDiagnosticsAndSymmetry:
    def test_test_pair_is_symmetric_and_monotone(self):
        pair = analytic.test_pair_fields(0.6, 1.0, small_grid())
        d = solver.diagnostics(pair)
        assert d.phi_monotone
        assert d.v_symmetric_error <= 1e-12
        assert d.phi_antisymmetric_error <= 1e-12
        assert d.inf_v == pytest.approx(0.6)
        assert d.argmin_v == pytest.approx(0.0, abs=pair.grid.spacing)

    def test_converged_minimizer_monotone(self, beta1_result):
        assert solver.diagnostics(beta1_result.pair).phi_monotone

    def test_symmetrize_fixed_point(self):
        pair = analytic.test_pair_fields(0.6, 1.0, small_grid())
        out = solver.symmetrize(pair, 1.0)
        np.testing.assert_allclose(out.v, pair.v, atol=1e-14)
        np.testing.assert_allclose(out.phi, pair.phi, atol=1e-14)

    def test_symmetrize_output_is_symmetric(self, beta1_result):
        out = solver.symmetrize(beta1_result.pair, 1.0)
        d = solver.diagnostics(out)
        assert d.v_symmetric_error <= 1e-12
        assert d.phi_antisymmetric_error <= 1e-12

    def test_symmetrize_improves_degraded_half(self, beta1_result):
        pair = ProfilePair(beta1_result.grid, beta1_result.pair.v.copy(),
                           beta1_result.pair.phi.copy())
        right = pair.grid.nodes > 1.0
        pair.v[right] = np.clip(pair.v[right] - 0.2 * np.exp(-(pair.grid.nodes[right] - 3.0) ** 2), 0.0, 1.0)
        pair.v[-1] = 1.0
        e_in = solver.discrete_energy(pair, 1.0).total
        out = solver.symmetrize(pair, 1.0)
        e_out = solver.discrete_energy(out, 1.0).total
        assert e_out < e_in

    def test_symmetrize_energy_near_minimizer(self, beta1_result):
        out = solver.symmetrize(beta1_result.pair, 1.0)
        e = solver.discrete_energy(out, 1.0).total
        assert abs(e - beta1_result.sigma) <= 2e-6

    def test_symmetrize_requires_crossing(self):
        g = small_grid()
        pair = ProfilePair(g, np.ones(g.n_points), np.zeros(g.n_points))
        with pytest.raises(ValueError):
            solver.symmetrize(pair, 1.0)


class TestGridPolicy:
    def test_default_grid_scales(self):
        assert solver.default_grid(1.0).half_width == 20.0
        assert solver.default_grid(1e-2).half_width == pytest.approx(100.0)
        assert solver.default_grid(1e4).spacing <= 1e4 ** -0.25 / 20.0
        for beta in [1.0, 1e4]:
            assert solver.default_grid(beta).n_points % 2 == 1

    def test_grid_overrides(self):
        cfg = solver.SolverConfig(half_width=5.0, n_points=201, grad_tol=1e-6)
        res = solver.solve(1.0, cfg)
        assert res.grid.half_width == 5.0
        assert res.grid.n_points == 201

    def test_conflicting_grid_overrides(self):
        with pytest.raises(ValueError, match="spacing or n_points"):
            solver.SolverConfig(spacing=0.1, n_points=201)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(10.0, 200)  # even node count
        with pytest.raises(ValueError):
            Grid1D(-1.0, 201)
        with pytest.raises(ValueError):
            Grid1D.from_spacing(10.0, -0.1)
        for bad in [math.inf, math.nan]:
            with pytest.raises(ValueError, match="half_width"):
                Grid1D(bad, 201)
            with pytest.raises(ValueError, match="half_width"):
                Grid1D.from_spacing(bad, 0.1)
            with pytest.raises(ValueError, match="max_spacing"):
                Grid1D.from_spacing(10.0, bad)
            with pytest.raises(ValueError, match="grad_tol"):
                solver.SolverConfig(grad_tol=bad)
