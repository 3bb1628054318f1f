import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bectension import analytic, solver
from bectension.grid import Grid1D, ProfilePair
from tests import reference_blocks as ref

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


def moved_wall(result, shift, ripple):
    """The pair of ``result`` moved by ``shift``, with v rippled by ``ripple`` sin 2t."""
    t = result.grid.nodes
    v = np.clip(np.interp(t - shift, t, result.pair.v) * (1.0 + ripple * np.sin(2.0 * t)),
                0.0, 1.0)
    v[0] = v[-1] = 1.0
    return ProfilePair(result.grid, v, np.interp(t - shift, t, result.pair.phi))


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
                    ep = energy.terms(pair.v, pair.phi).total
                    field[i] = orig - h_fd
                    em = energy.terms(pair.v, pair.phi).total
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


class TestBlockExactness:
    """The block objectives repeat the two-field formulas float for float."""

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_unit_blocks_match_reference(self, beta):
        rng = np.random.default_rng(17)
        g = small_grid()
        energy = solver.PairEnergy.unit(beta, g)
        for _ in range(5):
            pair = random_pair(g, rng)
            ref.assert_blocks_match(energy, pair.v, pair.phi,
                                    lambda e, v, phi: e.terms(v, phi).total,
                                    ref.pair_gradient, ref.pair_curvature)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_block_gradients_are_discrete_gradient(self, beta):
        rng = np.random.default_rng(19)
        g = small_grid()
        energy = solver.PairEnergy.unit(beta, g)
        for _ in range(5):
            pair = random_pair(g, rng)
            gv, gphi = solver.discrete_gradient(pair, beta)
            inner = slice(1, -1)
            np.testing.assert_array_equal(energy.v_block(pair.phi).gradient(pair.v)[inner],
                                          gv[inner])
            np.testing.assert_array_equal(energy.phi_block(pair.v).gradient(pair.phi)[inner],
                                          gphi[inner])


def joint_cases():
    """(energy, x): random pairs with unit and half-line weights, at several beta."""
    rng = np.random.default_rng(23)
    g = small_grid()
    mid = g.n_points // 2
    for beta in (0.1, 1.0, 100.0):
        for _ in range(2):
            pair = random_pair(g, rng)
            yield solver.PairEnergy.unit(beta, g), solver._interleave(pair.v, pair.phi)
            yield (solver.half_line_problem(beta, g)[0],
                   solver._interleave(pair.v[mid:], pair.phi[mid:]))


class TestJointObjective:
    """PairEnergy.joint against the two-field references, and its Newton kernel."""

    def test_energy_and_gradient_are_the_blocks_interleaved(self):
        for energy, x in joint_cases():
            v, phi = x[0::2].copy(), x[1::2].copy()
            joint = energy.joint()
            assert joint.energy(x) == energy.terms(v, phi).total
            g = joint.gradient(x)
            np.testing.assert_array_equal(g[0::2], energy.v_block(phi).gradient(v))
            np.testing.assert_array_equal(g[1::2], energy.phi_block(v).gradient(phi))
            np.testing.assert_array_equal(g[0::2], ref.pair_gradient(energy, v, phi, "v"))
            np.testing.assert_array_equal(g[1::2], ref.pair_gradient(energy, v, phi, "phi"))

    def test_band_is_the_dense_reference_hessian(self):
        for energy, x in joint_cases():
            band = ref.band_to_dense(energy.joint().curvature(x))
            want = ref.joint_hessian(energy, x[0::2].copy(), x[1::2].copy())
            assert np.abs(band - want).max() <= 1e-14 * np.abs(want).max()

    def test_band_matches_central_differences_of_gradient(self):
        step = 1e-6
        rng = np.random.default_rng(29)
        for energy, x in joint_cases():
            joint = energy.joint()
            hess = ref.band_to_dense(joint.curvature(x))
            scale = np.abs(hess).max()
            for j in rng.choice(x.size, size=12, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[j] += step
                xm[j] -= step
                fd = (joint.gradient(xp) - joint.gradient(xm)) / (2.0 * step)
                assert np.abs(fd - hess[:, j]).max() <= 1e-6 * scale

    def test_pinned_rows_decouple(self, beta1_result):
        # near the minimizer the joint model is positive definite, so the
        # step solves the free rows of the dense reference system exactly
        grid = beta1_result.grid
        mid = grid.n_points // 2
        energy, fixed_v, fixed_phi = solver.half_line_problem(1.0, grid)
        fixed = solver._interleave(fixed_v, fixed_phi)
        x = solver._interleave(beta1_result.pair.v[mid:], beta1_result.pair.phi[mid:])
        x[0] -= 1e-3  # move off the minimizer so the step is not tiny
        joint = energy.joint()
        g = np.where(fixed, 0.0, joint.gradient(x))
        d = solver.band_newton(joint.curvature, x, fixed, g)
        assert np.all(d[fixed] == 0.0)
        free = ~fixed
        hess = ref.joint_hessian(energy, x[0::2].copy(), x[1::2].copy())
        want = np.linalg.solve(hess[np.ix_(free, free)], -g[free])
        np.testing.assert_allclose(d[free], want, rtol=1e-8, atol=1e-12 * np.abs(want).max())

    def test_indefinite_state_shifts_and_descends(self):
        # on a v = 0.3 plateau the double well is concave in v and v^2 phi'^2
        # couples the fields: the joint Hessian is indefinite, Cholesky fails,
        # and the tau I shift still gives a descent direction
        g = small_grid(half_width=3.0, spacing=0.05)
        n = g.n_points
        v = np.full(n, 0.3)
        v[[0, -1]] = 1.0
        phi = np.pi * (g.nodes + g.half_width) / (2.0 * g.half_width)
        fixed = np.zeros(n, dtype=bool)
        fixed[[0, -1]] = True
        fixed = solver._interleave(fixed, fixed)
        energy = solver.PairEnergy.unit(1.0, g)
        hess = ref.joint_hessian(energy, v, phi)
        free = ~fixed
        assert np.linalg.eigvalsh(hess[np.ix_(free, free)]).min() < 0.0
        joint = energy.joint()
        x = solver._interleave(v, phi)
        grad = np.where(fixed, 0.0, joint.gradient(x))
        with pytest.raises(np.linalg.LinAlgError):  # the unshifted band fails
            solver.band_solve(joint.curvature(x), fixed, -grad)
        d = solver.band_newton(joint.curvature, x, fixed, grad)
        assert np.isfinite(d).all() and np.all(d[fixed] == 0.0)
        assert grad @ d < 0.0
        hi = solver._interleave(np.ones(n), np.full(n, np.pi))
        _, steps, value, _ = solver.projected_newton(x, 0.0, hi, fixed, joint, 0.0, 1)
        assert steps == 1 and value < joint.energy(x)

    @pytest.mark.parametrize("where", [(0, 6), (1, 7), (2, 4), (3, 8)])
    def test_non_finite_band_raises(self, where):
        n = 16
        fixed = np.zeros(n, dtype=bool)
        fixed[[0, -1]] = True

        def curvature(x):
            ab = np.zeros((4, n), order="F")
            ab[0] = 4.0
            ab[1, :-1] = -1.0
            ab[where] = np.nan
            return ab

        with pytest.raises(ValueError, match="non-finite"):
            solver.band_newton(curvature, np.zeros(n), fixed, np.ones(n))
        block = solver.Block(lambda x: 0.5 * x @ x, lambda x: x - 0.5, curvature,
                             solver.band_newton)
        with pytest.raises(ValueError, match="non-finite"):
            solver.projected_newton(np.zeros(n), 0.0, 1.0, fixed, block, 1e-12, 100)

    def test_non_finite_gradient_raises(self):
        n = 8
        fixed = np.zeros(n, dtype=bool)
        ab = np.zeros((4, n), order="F")
        ab[0] = 2.0
        g = np.ones(n)
        g[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            solver.band_newton(lambda x: ab.copy(order="F"), np.zeros(n), fixed, g)

    def test_energy_never_increases_across_joint_steps(self):
        rng = np.random.default_rng(31)
        g = Grid1D.from_spacing(10.0, 0.05)
        for beta in (0.1, 1.0, 100.0):
            pair = random_pair(g, rng)
            energy = solver.PairEnergy.unit(beta, g)
            joint = energy.joint()
            fixed = np.zeros(g.n_points, dtype=bool)
            fixed[[0, -1]] = True
            fixed = solver._interleave(fixed, fixed)
            hi = solver._interleave(np.ones(g.n_points), np.full(g.n_points, np.pi))
            x = solver._interleave(pair.v, pair.phi)
            e_prev = joint.energy(x)
            for _ in range(8):
                x, _, value, _ = solver.projected_newton(x, 0.0, hi, fixed, joint, 1e-12, 1)
                assert value == energy.terms(x[0::2], x[1::2]).total
                assert value <= e_prev
                e_prev = value


class TestSolvePhases:
    """solve: one block round, then joint Newton; the weak solves end in the round."""

    @pytest.mark.parametrize("beta, half_steps", [(1e-4, 4), (1e-3, 7)])
    def test_weak_solves_are_one_block_round(self, solve_cache, beta, half_steps):
        result = solve_cache(beta)
        grid = result.grid
        mid = grid.n_points // 2
        start = solver.initial_pair(beta, grid)
        v, phi = start.v[mid:].copy(), start.phi[mid:].copy()
        phi[0] = 0.5 * np.pi
        energy, fixed_v, fixed_phi = solver.half_line_problem(beta, grid)
        block_tol = 0.25 * solver.SolverConfig().grad_tol
        phi, s_phi, value, _ = solver.projected_newton(
            phi, 0.0, np.pi, fixed_phi, energy.phi_block(v), block_tol, solver.BLOCK_STEPS)
        v, s_v, _, _ = solver.projected_newton(
            v, 0.0, 1.0, fixed_v, energy.v_block(phi), block_tol, solver.BLOCK_STEPS, value)
        np.testing.assert_array_equal(result.pair.v, np.concatenate([v[:0:-1], v]))
        np.testing.assert_array_equal(result.pair.phi,
                                      np.concatenate([np.pi - phi[:0:-1], phi]))
        assert result.iterations == s_phi + s_v == half_steps
        assert result.joint_steps == 0

    def test_weak_sigma_keeps_the_benchmark_reference(self, solve_cache):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        pinned = json.loads(path.read_text())["weak_profile"]["sigma"]
        assert abs(solve_cache(1e-4).sigma - pinned["values"][0]) <= pinned["tols"][0]

    def test_monotone_across_half_steps(self):
        beta = 1.0
        g = Grid1D.from_spacing(10.0, 0.05)
        rng = np.random.default_rng(9)
        pair = random_pair(g, rng)
        energy = solver.PairEnergy.unit(beta, g)
        fixed = np.zeros(g.n_points, dtype=bool)
        fixed[0] = fixed[-1] = True
        v, phi = pair.v.copy(), pair.phi.copy()
        e_prev = energy.terms(v, phi).total
        for _ in range(6):
            phi, _, value, _ = solver.projected_newton(
                phi, 0.0, np.pi, fixed, energy.phi_block(v), 1e-12, 5)
            e = energy.terms(v, phi).total
            assert value == e
            assert e <= e_prev + 1e-15
            e_prev = e
            v, _, value, _ = solver.projected_newton(
                v, 0.0, 1.0, fixed, energy.v_block(phi), 1e-12, 5)
            e = energy.terms(v, phi).total
            assert value == e
            assert e <= e_prev + 1e-15
            e_prev = e

    def test_unit_solve_ends_in_joint_steps(self, beta1_result):
        assert 0 < beta1_result.joint_steps < beta1_result.iterations

    def test_spent_budget_names_the_block_round(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_HALF_STEPS", 3)
        cfg = solver.SolverConfig(half_width=5.0, spacing=0.05, grad_tol=1e-14)
        with pytest.raises(solver.ConvergenceError, match="block round spent") as err:
            solver.solve(1.0, cfg)
        assert "3 block + 0 joint Newton steps" in str(err.value)
        assert err.value.result.joint_steps == 0

    def test_spent_budget_names_the_joint_phase(self, monkeypatch):
        cfg = solver.SolverConfig(half_width=5.0, spacing=0.05, grad_tol=1e-12)
        full = solver.solve(1.0, cfg)
        block = full.iterations - full.joint_steps
        assert full.joint_steps >= 2
        monkeypatch.setattr(solver, "MAX_HALF_STEPS", block + 1)
        with pytest.raises(solver.ConvergenceError, match="joint Newton phase spent") as err:
            solver.solve(1.0, cfg)
        result = err.value.result
        assert (result.iterations, result.joint_steps) == (block + 1, 1)
        assert f"{block} block + 1 joint Newton steps" in str(err.value)


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

    def test_nonconvergence_carries_state(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_HALF_STEPS", 3)
        cfg = solver.SolverConfig(half_width=5.0, spacing=0.05, grad_tol=1e-14)
        with pytest.raises(solver.ConvergenceError) as err:
            solver.solve(1.0, cfg)
        result = err.value.result
        assert result.iterations == 3
        assert result.sigma > 0.0

    @pytest.mark.parametrize("beta, config", [
        (1.0, solver.SolverConfig(half_width=0.5)),    # sigma 1.049 > upper 0.457
        (1.0, solver.SolverConfig(half_width=1.0)),    # sigma 0.594
        (1e4, solver.SolverConfig(spacing=0.5)),       # sigma 0.940 > upper 0.923
    ])
    def test_sigma_outside_bracket_rejects_grid(self, beta, config):
        with pytest.raises(ValueError, match="bracket") as err:
            solver.solve(beta, config)
        message = str(err.value)
        assert f"beta={beta:g}" in message
        assert "half_width=" in message and "spacing=" in message

    def test_narrow_grid_inside_bracket_passes(self):
        result = solver.solve(1.0, solver.SolverConfig(half_width=2.0))
        br = analytic.sigma_bracket(1.0)
        assert br.lower <= result.sigma <= br.upper


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

    @pytest.mark.parametrize("beta", [1.0, 1e2, 1e5])
    def test_moved_rippled_wall_meets_the_symmetry_bounds(self, solve_cache, beta):
        # acceptance 09's bounds, from a wall moved further and rippled harder
        res = solve_cache(beta)
        full, _ = solver.alternating_refine(moved_wall(res, 1.3, 0.1), beta)
        d = solver.diagnostics(full)
        assert abs(solver.discrete_energy(full, beta).total - res.sigma) <= 2e-6
        assert max(d.v_symmetric_error, d.phi_antisymmetric_error) <= 1e-6
        assert d.phi_monotone

    def test_crossing_and_ends_stay_pinned(self, beta1_result):
        start = moved_wall(beta1_result, 1.3, 0.1)
        crossing = 1 + int(np.argmin(np.abs(start.phi[1:-1] - 0.5 * np.pi)))
        assert start.phi[crossing] != 0.5 * np.pi  # the pin moves it onto pi/2
        full, steps = solver.alternating_refine(start, 1.0)
        assert steps > 0
        assert full.phi[crossing] == 0.5 * np.pi
        assert (full.v[0], full.v[-1]) == (start.v[0], start.v[-1])
        assert (full.phi[0], full.phi[-1]) == (start.phi[0], start.phi[-1])

    def test_acceptance_start_takes_few_steps(self, beta1_result):
        # block rounds crawled along the translation mode: 75 half-steps
        _, steps = solver.alternating_refine(moved_wall(beta1_result, 0.7, 0.02), 1.0)
        assert 0 < steps <= 5

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
    BANDS = (2, 4)  # rows of the lower storage: tridiagonal and half-width 3

    def band(self, rows, n, rng):
        """A random diagonally dominant band in LAPACK lower storage and its matrix."""
        ab = np.zeros((rows, n), order="F")
        ab[0] = 2.5 + rng.uniform(0.0, 1.0, n)
        for k in range(1, rows):
            ab[k, :-k] = -rng.uniform(0.1, 0.3, n - k)
        return ab, ref.band_to_dense(ab)

    def test_banded_solve_pins_rows_and_shares_columns(self):
        rng = np.random.default_rng(7)
        n = 12
        fixed = np.zeros(n, dtype=bool)
        fixed[[0, 5, -1]] = True
        free = ~fixed
        for rows in self.BANDS:
            ab, dense = self.band(rows, n, rng)
            b1, b2 = rng.normal(size=n), rng.normal(size=n)
            inputs = [b1.copy(), b2.copy()]
            Z = solver.band_solve(ab, fixed, b1, b2)
            for before, after in zip(inputs, (b1, b2)):
                np.testing.assert_array_equal(before, after)  # LAPACK works on copies
            assert Z.shape == (n, 2)
            assert np.all(Z[fixed] == 0.0)
            for k, b in enumerate((b1, b2)):
                expected = np.linalg.solve(dense[np.ix_(free, free)], b[free])
                np.testing.assert_allclose(Z[free, k], expected, rtol=1e-12, atol=1e-14)

    def test_dot_is_the_inner_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=20001), rng.normal(size=20001)  # above BLAS's threading size
        value = solver.dot(a, b)
        assert type(value) is float
        assert value == pytest.approx(float(np.sum(a * b)), rel=1e-12, abs=1e-10)

    def test_banded_solve_singular_raises(self):
        # a zero or a negative pivot: the band is not positive definite
        n = 6
        fixed = np.zeros(n, dtype=bool)
        for rows in self.BANDS:
            for pivot in (0.0, -1.0):
                ab = np.zeros((rows, n), order="F")
                ab[0] = 1.0
                ab[0, 3] = pivot
                with pytest.raises(np.linalg.LinAlgError):
                    solver.band_solve(ab, fixed, np.ones(n))

    # An infinite matrix entry is left out: the factorization can give a
    # finite solution, the limit of the system as that entry grows.
    @pytest.mark.parametrize("where, bad", [("diag", np.nan), ("off", np.nan),
                                            ("rhs", np.nan), ("rhs", np.inf)])
    def test_banded_solve_non_finite_raises(self, where, bad):
        rng = np.random.default_rng(3)
        n = 10
        fixed = np.zeros(n, dtype=bool)
        fixed[0] = fixed[-1] = True
        for rows in self.BANDS:
            ab, _ = self.band(rows, n, rng)
            rhs = rng.normal(size=n)
            {"diag": ab[0], "off": ab[-1], "rhs": rhs}[where][4] = bad  # off: the outermost
            with pytest.raises(ValueError, match="non-finite"):
                solver.band_solve(ab, fixed, rhs)

    def test_arc_search_falls_back_to_the_projected_gradient(self):
        # d points uphill: the search steps along -P g instead, so the row
        # resting on its bound with g pushing outwards stays where it is
        target = np.array([0.0, 0.2, 0.9, 0.6])
        x = np.array([0.0, 0.5, 0.5, 0.5])
        fixed = np.array([False, False, False, True])

        def merit(y):
            return 0.5 * float(np.sum((y - target) ** 2))

        g = np.where(fixed, 0.0, x - target)
        g[0] = 1.0  # pushes x[0] below its bound 0
        x_new, value = solver.arc_search(merit, merit(x), x, g.copy(), g, 0.0, 1.0, fixed)
        np.testing.assert_array_equal(x_new, [0.0, 0.2, 0.9, 0.5])
        assert value == merit(x_new) < merit(x)

    def test_nan_curvature_stops_the_solve(self):
        # without the finiteness check a NaN step passes the Armijo test
        # (every comparison with NaN is false) and the loop runs to its budget
        n = 9
        fixed = np.zeros(n, dtype=bool)
        fixed[0] = fixed[-1] = True
        block = solver.Block(lambda x: 0.5 * x @ x, lambda x: x - 0.5,
                             lambda x: (np.ones(n), np.zeros(n - 1), np.full(n, np.nan)))
        with pytest.raises(ValueError):
            solver.projected_newton(np.zeros(n), 0.0, 1.0, fixed, block, 1e-12, 1000)

    def test_equal_energy_step_without_gradient_progress_stalls(self):
        # a flat energy with a gradient no step changes: the first step
        # leaves the energy equal and the gradient where it was, so the loop
        # stops after it instead of running to its budget
        n = 9
        fixed = np.zeros(n, dtype=bool)
        fixed[0] = fixed[-1] = True
        block = solver.Block(lambda x: 1.0, lambda x: np.full(n, -0.5),
                             lambda x: (np.ones(n), np.zeros(n - 1), np.zeros(n)))
        x, steps, value, g = solver.projected_newton(np.zeros(n), 0.0, 1.0, fixed, block,
                                                     1e-12, 1000)
        assert steps == 1 and value == 1.0
        assert (x[1:-1] > 0.0).all() and g is not None

    def test_equal_energy_steps_that_lower_the_gradient_go_on(self):
        # flat energy, gradient x - 1/2: each accepted step leaves the energy
        # equal but moves x and lowers |g|, so the loop runs its budget
        n = 9
        fixed = np.zeros(n, dtype=bool)
        fixed[0] = fixed[-1] = True
        block = solver.Block(lambda x: 1.0, lambda x: x - 0.5,
                             lambda x: (np.ones(n), np.zeros(n - 1), np.zeros(n)))
        _, steps, _, _ = solver.projected_newton(np.zeros(n), 0.0, 1.0, fixed, block,
                                                 1e-12, 5)
        assert steps == 5


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


class TestHalfLine:
    """solve minimizes on [0, L] and reflects the result onto the full grid."""

    def test_reflected_pair_is_exactly_symmetric(self, beta1_result):
        pair = beta1_result.pair
        mid = pair.grid.n_points // 2
        np.testing.assert_array_equal(pair.v, pair.v[::-1])
        np.testing.assert_array_equal(pair.phi[:mid + 1], np.pi - pair.phi[::-1][:mid + 1])
        assert pair.phi[mid] == 0.5 * np.pi

    def test_stop_norm_counts_node_zero_twice(self, beta1_result):
        # The half-line gradient at the mirror node is half the full-line
        # one; with v(0) pushed until node 0 dominates, both drivers' norm must
        # equal the full-line norm of the reflected pair.
        grid = beta1_result.grid
        mid = grid.n_points // 2
        v, phi = beta1_result.pair.v[mid:].copy(), beta1_result.pair.phi[mid:]
        v[0] -= 1e-3
        energy, fixed_v, fixed_phi = solver.half_line_problem(1.0, grid)
        _, _, steps, pg = solver.block_round(energy, v, phi, fixed_v, fixed_phi, math.inf)
        assert steps == 0
        _, _, joint_steps, joint_pg = solver.joint_newton(energy, v, phi, fixed_v, fixed_phi,
                                                          math.inf, 1)
        assert (joint_steps, joint_pg) == (0, pg)
        full = ProfilePair(grid, np.concatenate([v[:0:-1], v]),
                           np.concatenate([np.pi - phi[:0:-1], phi]))
        gv, gphi = solver.discrete_gradient(full, 1.0)
        pgv = np.where(full.v <= 0.0, np.minimum(gv, 0.0),
                       np.where(full.v >= 1.0, np.maximum(gv, 0.0), gv))
        pgphi = np.where(full.phi <= 0.0, np.minimum(gphi, 0.0),
                         np.where(full.phi >= np.pi, np.maximum(gphi, 0.0), gphi))
        full_norm = max(np.abs(pgv).max(), np.abs(pgphi).max())
        assert abs(gv[mid]) == full_norm > 1e-6
        assert pg == pytest.approx(full_norm, rel=1e-15)


class TestBenchmarkContract:
    """What the benchmark harness reads from the solver."""

    def test_alternating_refine_returns_pair_and_steps(self):
        # tracing.COUNTERS reads the Newton step count as the second item
        g = small_grid()
        out = solver.alternating_refine(analytic.test_pair_fields(0.6, 1.0, g), 1.0)
        assert isinstance(out, tuple) and len(out) == 2
        pair, steps = out
        assert isinstance(pair, ProfilePair) and pair.grid == g
        assert isinstance(steps, int) and steps > 0

    def test_traced_functions_exist(self, monkeypatch):
        # a renamed function breaks only the traced (--trace 1) runs
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
        spec.loader.exec_module(tracing)
        for layer, names in tracing.TARGETS.items():
            module = importlib.import_module(f"bectension.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"

    @pytest.mark.parametrize("beta", [1e-4, 1.0, 1e5])
    def test_initial_pair_lives_on_the_full_grid(self, beta):
        # the kernel probe feeds it to discrete_gradient when no solve fits
        grid = solver.default_grid(beta)
        pair = solver.initial_pair(beta, grid)
        assert pair.grid is grid
        assert pair.v.shape == pair.phi.shape == (grid.n_points,)
        assert (pair.phi[0], pair.phi[-1]) == (0.0, np.pi)
        gv, gphi = solver.discrete_gradient(pair, beta)
        assert gv.shape == gphi.shape == (grid.n_points,)


class TestGridPolicy:
    def test_default_grid_scales(self):
        assert solver.default_grid(1.0).half_width == 20.0
        assert solver.default_grid(1e-2).half_width == pytest.approx(100.0)
        assert solver.default_grid(1e4).spacing <= 1e4 ** -0.25 / 20.0
        for beta in [1.0, 1e4]:
            assert solver.default_grid(beta).n_points % 2 == 1

    def test_grid_overrides(self):
        cfg = solver.SolverConfig(half_width=5.0, spacing=0.05, grad_tol=1e-6)
        res = solver.solve(1.0, cfg)
        assert res.grid.half_width == 5.0
        assert res.grid.n_points == 201

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
            with pytest.raises(ValueError, match="^spacing must"):
                Grid1D.from_spacing(10.0, bad)
            with pytest.raises(ValueError, match="grad_tol"):
                solver.SolverConfig(grad_tol=bad)
