import math

import numpy as np
import pytest

from bectension import analytic, solver
from bectension.grid import ProfilePair

SQRT2 = math.sqrt(2.0)


class TestTanhProfile:
    def test_values(self):
        assert analytic.tanh_profile(0.0, 0.0) == 0.0
        assert analytic.tanh_profile(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
        # oracle: tanh(10/sqrt(2)) evaluated directly
        assert analytic.tanh_profile(0.0, 10.0) == pytest.approx(math.tanh(10.0 / SQRT2), abs=1e-15)
        assert abs(analytic.tanh_profile(0.0, 10.0) - 1.0) < 2e-6
        assert analytic.tanh_profile(1.0, -3.0) == 1.0

    def test_range_on_half_line(self):
        # the continuum profile stays strictly below 1; in floats it saturates
        t = np.linspace(0.0, 30.0, 200)
        for m in [0.0, 0.2, 0.9]:
            vals = analytic.tanh_profile(m, t)
            assert vals[0] == pytest.approx(m, abs=1e-14)
            assert np.all(vals >= m - 1e-14) and np.all(vals <= 1.0)
            assert np.all(vals[t <= 15.0] < 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.tanh_profile(-0.1, 0.0)
        with pytest.raises(ValueError):
            analytic.tanh_profile(1.1, 0.0)


class TestTransitionCost:
    def test_endpoints(self):
        assert analytic.transition_cost(1.0) == 0.0
        assert analytic.transition_cost(0.0) == pytest.approx(2.0 * SQRT2 / 3.0, abs=1e-15)

    def test_half(self):
        expected = SQRT2 * (2.0 / 3.0 - 0.5 + 0.125 / 3.0)
        assert analytic.transition_cost(0.5) == pytest.approx(expected, abs=1e-15)

    def test_decreasing(self):
        ms = np.linspace(0.0, 1.0, 50)
        costs = [analytic.transition_cost(m) for m in ms]
        assert np.all(np.diff(costs) < 0.0)

    @pytest.mark.parametrize("m", [0.0, 0.3, 0.7])
    def test_matches_numerical_minimization(self, m, transition_cost_oracle):
        assert abs(transition_cost_oracle(m) - analytic.transition_cost(m)) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic.transition_cost(1.5)


class TestTestPairEnergy:
    def test_full_dip(self):
        # m=1: no amplitude transition, pure angular ramp plus coupling
        for beta in [0.5, 4.0]:
            expected = math.pi**2 / 16.0 + beta / 8.0
            assert analytic.test_pair_energy(1.0, 1.0, beta) == pytest.approx(expected, rel=1e-15)

    def test_no_dip_degenerate_width(self):
        assert analytic.test_pair_energy(0.0, 0.0, 1.0) == pytest.approx(2.0 * SQRT2 / 3.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            analytic.test_pair_energy(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 30.0])
    @pytest.mark.parametrize("m", [0.2, 0.6, 0.95])
    def test_optimized_width_matches_closed_form(self, m, beta):
        T = analytic.optimal_plateau_halfwidth(m, beta)
        closed = analytic.transition_cost(m) + (SQRT2 / 4.0) * m * math.pi * math.sqrt(
            (1.0 - m**2) ** 2 + beta * m**4 / 4.0
        )
        assert analytic.test_pair_energy(m, T, beta) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 30.0])
    @pytest.mark.parametrize("m", [0.2, 0.6, 0.95])
    def test_width_is_stationary(self, m, beta):
        T = analytic.optimal_plateau_halfwidth(m, beta)
        dT = 1e-5 * T
        fd = (
            analytic.test_pair_energy(m, T + dT, beta)
            - analytic.test_pair_energy(m, T - dT, beta)
        ) / (2.0 * dT)
        scale = analytic.test_pair_energy(m, T, beta) / T
        assert abs(fd) <= 1e-8 * scale


class TestPlateauHalfwidth:
    def test_degenerate(self):
        assert analytic.optimal_plateau_halfwidth(0.0, 1.0) == 0.0

    def test_unit_depth(self):
        assert analytic.optimal_plateau_halfwidth(1.0, 4.0) == pytest.approx(
            math.pi / (2.0 * SQRT2), rel=1e-15
        )


class TestPlateauObjective:
    def test_origin(self):
        assert analytic.plateau_objective(0.0, 1.0) == 0.0

    def test_slope_at_origin(self):
        h = 1e-6
        fd = (analytic.plateau_objective(h, 1.0) - analytic.plateau_objective(0.0, 1.0)) / h
        assert fd == pytest.approx(math.pi / 4.0 - 1.0, abs=1e-4)
        assert fd < 0.0

    def test_unit_depth(self):
        assert analytic.plateau_objective(1.0, 4.0) == pytest.approx(
            math.pi / 4.0 - 2.0 / 3.0, rel=1e-14
        )

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0, 10.0, 1e4])
    def test_minimizer_beats_grid_and_is_negative(self, beta):
        m_bar, val = analytic.minimize_plateau_objective(beta)
        assert 0.0 < m_bar < 1.0
        assert -2.0 / 3.0 < val < 0.0
        grid = np.linspace(0.0, 1.0, 10_001)
        grid_vals = [analytic.plateau_objective(m, beta) for m in grid]
        assert val <= min(grid_vals) + 1e-12


class TestCubicRoot:
    @pytest.mark.parametrize("c", [-2.0, -1.5, -0.3, 0.0, 0.7, 1.9, 2.0])
    def test_root_in_unit_interval(self, c):
        x = analytic.cubic_root(c)
        assert -1.0 <= x <= 1.0
        assert abs(3.0 * x - x**3 - c) < 1e-14

    def test_endpoints_and_center_exact(self):
        assert analytic.cubic_root(0.0) == 0.0
        assert analytic.cubic_root(2.0) == pytest.approx(1.0, abs=1e-15)
        assert analytic.cubic_root(-2.0) == pytest.approx(-1.0, abs=1e-15)


class TestDipFloor:
    @pytest.mark.parametrize("beta", [0.01, 1.0, 100.0])
    def test_root_residual(self, beta):
        m = analytic.dip_floor(beta)
        _, target = analytic.minimize_plateau_objective(beta)
        assert 0.0 < m < 1.0
        assert abs(m**3 / 3.0 - m - target) < 1e-10

    def test_decreasing_in_beta(self):
        assert analytic.dip_floor(100.0) < analytic.dip_floor(1.0)

    def test_bounded_away_from_one(self):
        # the plateau objective minimum is strictly negative for every beta
        assert analytic.dip_floor(1e-6) < 1.0 - 1e-9


class TestSigmaBracket:
    def test_beta_one_lower(self):
        a = 1.0 / 3.0 + 1.0 / (2.0 * SQRT2)
        m_c = math.sqrt(1.0 / (3.0 * a))
        expected = SQRT2 * (2.0 / 3.0 - m_c + a * m_c**3)
        br = analytic.sigma_bracket(1.0)
        assert br.lower == pytest.approx(expected, rel=1e-14)
        assert br.lower == pytest.approx(0.286, abs=5e-4)

    def test_lower_is_grid_minimum(self):
        beta = 3.0
        a = 1.0 / 3.0 + math.sqrt(beta) / (2.0 * SQRT2)
        ms = np.linspace(0.0, 1.0, 100_001)
        vals = SQRT2 * (2.0 / 3.0 - ms + a * ms**3)
        assert analytic.sigma_bracket(beta).lower <= vals.min() + 1e-12

    @pytest.mark.parametrize("beta", np.logspace(-4, 5, 10))
    def test_ordering_and_ceiling(self, beta):
        br = analytic.sigma_bracket(beta)
        assert br.lower <= br.upper
        assert br.upper <= 2.0 * SQRT2 / 3.0 + 1e-12

    def test_upper_gap_rate(self):
        betas = np.logspace(2, 6, 9)
        gaps = [2.0 * SQRT2 / 3.0 - analytic.sigma_bracket(b).upper for b in betas]
        fit = np.polyfit(np.log(betas), np.log(gaps), 1)
        assert fit[0] == pytest.approx(-0.25, abs=0.05)


class TestKinkCertificate:
    def test_kink_pair_costs_half_sqrt_beta(self):
        # v = 1, phi = 2 arctan(exp(sqrt(beta) t)) has phi' = sqrt(beta) sin(phi),
        # so its continuum energy is exactly sqrt(beta)/2: it certifies the
        # weak-coupling constant with a factor-2 margin
        from bectension.asymptotics import SMALL_BETA_COEFF

        for beta in [1e-4, 1e-3, 1e-2]:
            g = solver.default_grid(beta)
            phi = 2.0 * np.arctan(np.exp(math.sqrt(beta) * g.nodes))
            phi[0], phi[-1] = 0.0, math.pi
            e = solver.discrete_energy(ProfilePair(g, np.ones(g.n_points), phi), beta).total
            assert e == pytest.approx(0.5 * math.sqrt(beta), rel=1e-3)
            assert e < SMALL_BETA_COEFF * math.sqrt(beta)
