import math

import numpy as np
import pytest
from scipy.integrate import quad

from bectension import analytic, solver, tf_geometry
from bectension import gp_validation as gp
from bectension.grid import Grid1D
from tests import reference_blocks as ref

SIGMA_BETA_ONE = 0.3874873242966853  # frozen default-grid value, see test_solver


@pytest.fixture(scope="module")
def eta_005():
    return gp.solve_ground_state(0.05)


@pytest.fixture(scope="module")
def eta_coarse():
    """eps = 0.05 on a coarse grid, small enough for dense reference matrices."""
    return gp.solve_ground_state(0.05, grid=Grid1D.from_spacing(gp.TF_LAMBDA + 2.0, 0.02))


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

    def test_failure_carries_last_state(self, monkeypatch):
        monkeypatch.setattr(gp, "GROUND_TOL", 0.0)
        with pytest.raises(solver.ConvergenceError) as err:
            gp.solve_ground_state(0.05)
        state = err.value.result
        assert isinstance(state, gp.GroundState)
        assert abs(l2_norm(state) - 1.0) <= 1e-12
        assert state.iterations > 0

    def test_indefinite_hessian_raises_with_last_state(self, monkeypatch):
        def indefinite(d, e, b, *overwrite):  # LAPACK's report of a non-positive pivot
            return d, e, b, 1

        monkeypatch.setattr(solver, "dptsv", indefinite)
        with pytest.raises(solver.ConvergenceError, match="not positive definite") as err:
            gp.solve_ground_state(0.05)
        state = err.value.result
        assert isinstance(state, gp.GroundState) and state.iterations == 1
        assert abs(l2_norm(state) - 1.0) <= 1e-12

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
        assert energy.terms(f["v"], f["phi"]).total == gp.weighted_pair_energy(
            f["v"], f["phi"], self.EPS, beta, eta_005).total
        grad = {"v": energy.v_block(f["phi"]).gradient(f["v"]),
                "phi": energy.phi_block(f["v"]).gradient(f["phi"])}
        scale = max(np.abs(g).max() for g in grad.values())
        for block, field in f.items():
            for i in self.probe_nodes(eta_005):
                orig = field[i]
                field[i] = orig + self.H_FD
                ep = energy.terms(f["v"], f["phi"]).total
                field[i] = orig - self.H_FD
                em = energy.terms(f["v"], f["phi"]).total
                field[i] = orig
                assert abs(grad[block][i] - (ep - em) / (2.0 * self.H_FD)) <= 1e-6 * scale

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_block_model_is_the_block_hessian(self, eta_005, beta):
        # the unshifted model (kin + pot on the diagonal, off beside it) is
        # the exact Hessian of each block, which is tridiagonal
        energy = gp._weighted_energy(eta_005, self.EPS, beta)
        f = self.fields(eta_005)
        blocks = {"v": energy.v_block(f["phi"]), "phi": energy.phi_block(f["v"])}
        for name, field in f.items():
            block = blocks[name]
            kin, off, pot = block.curvature(field)
            diag = kin + pot
            scale = max(np.abs(diag).max(), np.abs(off).max())
            for j in self.probe_nodes(eta_005):
                orig = field[j]
                field[j] = orig + self.H_FD
                gp_ = block.gradient(field)
                field[j] = orig - self.H_FD
                gm = block.gradient(field)
                field[j] = orig
                model = np.zeros(field.size)
                model[j - 1:j + 2] = off[j - 1], diag[j], off[j]
                column = (gp_ - gm) / (2.0 * self.H_FD)
                assert np.abs(column - model).max() <= 1e-6 * scale


    def random_fields(self, eta, rng):
        f = self.fields(eta)
        x = eta.grid.nodes
        wiggle = rng.normal(0.0, 0.05) * np.sin(rng.uniform(3.0, 9.0) * x)
        return np.clip(f["v"] + wiggle, 0.0, None), np.clip(f["phi"] + wiggle, 0.0, np.pi)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_blocks_match_reference(self, eta_005, beta):
        energy = gp._weighted_energy(eta_005, self.EPS, beta, scale=self.EPS)
        rng = np.random.default_rng(23)
        for _ in range(3):
            v, phi = self.random_fields(eta_005, rng)
            ref.assert_blocks_match(energy, v, phi, lambda e, v, phi: e.terms(v, phi).total,
                                    ref.pair_gradient, ref.pair_curvature)

    def lagrangian_cases(self, eta, beta):
        """(energy, constraints, x, lam): eps F and the two mass constraints at
        random fields, targets and multipliers."""
        grid = eta.grid
        mass = grid.spacing * grid.trapezoid_weights() * eta.values**2
        energy = gp._weighted_energy(eta, self.EPS, beta, scale=self.EPS)
        rng = np.random.default_rng(29)
        for _ in range(3):
            v, phi = self.random_fields(eta, rng)
            yield (energy, gp._MassConstraints(mass, (1.0, rng.uniform(-0.5, 0.5))),
                   solver._interleave(v, phi), rng.normal(size=2))

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_lagrangian_band_is_the_dense_reference(self, eta_coarse, beta):
        for energy, constraints, x, lam in self.lagrangian_cases(eta_coarse, beta):
            band = constraints.add_hessian(energy.joint().curvature(x), x, lam)
            want = ref.lagrangian_hessian(energy, constraints.mass, lam, x[0::2], x[1::2])
            assert np.abs(ref.band_to_dense(band) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("beta", [0.1, 1.0, 100.0])
    def test_lagrangian_band_matches_central_differences(self, eta_005, beta):
        rng = np.random.default_rng(31)
        for energy, constraints, x, lam in self.lagrangian_cases(eta_005, beta):
            joint = energy.joint()

            def grad(x):
                return joint.gradient(x) + constraints.gradients(x) @ lam

            hess = ref.band_to_dense(constraints.add_hessian(joint.curvature(x), x, lam))
            scale = np.abs(hess).max()
            probes = 2 * self.probe_nodes(eta_005)
            for j in rng.choice(np.concatenate([probes, probes + 1]), size=12, replace=False):
                xp, xm = x.copy(), x.copy()
                xp[j] += self.H_FD
                xm[j] -= self.H_FD
                fd = (grad(xp) - grad(xm)) / (2.0 * self.H_FD)
                assert np.abs(fd - hess[:, j]).max() <= 1e-6 * scale


class TestBorderedNewton:
    """The constrained step on a quadratic: E = x^T H x / 2 - b^T x, A^T x = r."""

    N = 16

    def problem(self):
        # H is banded (half-width 3) and indefinite: row 5 has a negative
        # diagonal.  The first constraint fixes x_5, so the reduced Hessian is
        # a principal submatrix of a diagonally dominant band: positive definite.
        rng = np.random.default_rng(11)
        n = self.N
        hess = np.diag(rng.uniform(4.0, 5.0, n))
        for k in range(1, 4):
            off = rng.uniform(-0.4, 0.4, n - k)
            hess += np.diag(off, k) + np.diag(off, -k)
        hess[5, 5] = -1.0
        a = np.column_stack((np.eye(n)[5], rng.uniform(0.5, 1.5, n)))
        fixed = np.zeros(n, dtype=bool)
        fixed[[0, -1]] = True
        return rng, hess, a, fixed

    def band(self, hess):
        n = self.N
        ab = np.zeros((4, n), order="F")
        for k in range(4):
            ab[k, :n - k] = np.diag(hess, -k)
        return ab

    def minimizer(self, rng, hess, a, fixed):
        """A KKT point (x*, lam*) inside the box and the b, r that make it one."""
        x_star = np.where(fixed, 0.0, rng.uniform(0.2, 0.8, self.N))
        lam_star = rng.normal(size=2)
        b = hess @ x_star + np.where(fixed[:, None], 0.0, a) @ lam_star
        return x_star, lam_star, b, a.T @ x_star

    def test_one_bordered_step_lands_on_the_constrained_minimizer(self):
        rng, hess, a, fixed = self.problem()
        free = ~fixed
        assert np.linalg.eigvalsh(hess[np.ix_(free, free)]).min() < 0.0
        x_star, lam_star, b, r = self.minimizer(rng, hess, a, fixed)
        x = np.where(fixed, 0.0, rng.uniform(0.2, 0.8, self.N))
        lam = rng.normal(size=2)
        grad = np.where(fixed, 0.0, hess @ x - b) + np.where(fixed[:, None], 0.0, a) @ lam
        d, dlam = gp._bordered_step(self.band(hess), fixed, grad, a, a.T @ x - r)
        assert np.all(d[fixed] == 0.0)
        np.testing.assert_allclose(x + d, x_star, atol=1e-12)
        np.testing.assert_allclose(lam + dlam, lam_star, atol=1e-12)

    def quadratic(self, hess, b, a, r):
        objective = ref.plain_block(lambda x: 0.5 * x @ hess @ x - b @ x, lambda x: hess @ x - b,
                                    lambda x: self.band(hess))

        class Linear:
            def values(self, x, angle=None):
                return a.T @ x - r

            def gradients(self, x, angle=None):
                return a.copy()

            def add_hessian(self, ab, x, lam, angle=None):
                return ab

        return objective, Linear()

    def test_loop_takes_the_full_step_and_stops(self):
        rng, hess, a, fixed = self.problem()
        x_star, _, b, r = self.minimizer(rng, hess, a, fixed)
        objective, constraints = self.quadratic(hess, b, a, r)
        x0 = np.where(fixed, 0.0, x_star + rng.uniform(-0.1, 0.1, self.N))
        x, steps, pg, why = gp._constrained_newton(objective, constraints, x0, fixed)
        assert why is None and steps == 1 and pg <= gp.KKT_TOL
        np.testing.assert_allclose(x, x_star, atol=1e-12)

    def test_line_search_stall_is_named(self):
        _, hess, a, fixed = self.problem()
        objective, constraints = self.quadratic(hess, np.ones(self.N), a, np.ones(2))
        x0 = np.where(fixed, 0.0, 0.5)
        # an energy that every move raises without bound: no step length passes
        bump = objective._replace(energy=lambda x, _=None: (np.inf if np.any(x != x0) else 0.0,
                                                            None))
        x, steps, _, why = gp._constrained_newton(bump, constraints, x0, fixed)
        assert why == "the line search stalled" and steps == 1
        np.testing.assert_array_equal(x, x0)


class TestWindow:
    """The Newton system on the free window against the full-grid system with
    the exterior pinned in it."""

    @pytest.fixture(scope="class")
    def etas(self):
        return {eps: gp.solve_ground_state(eps) for eps in (0.04, 0.02)}

    def full_grid_solve(self, eta, eps, beta, alpha1):
        """(steps, gap) of the full-grid solve from the same cold start."""
        x = eta.grid.nodes
        t0 = gp.interface_location(alpha1)
        mass = eta.grid.spacing * eta.grid.trapezoid_weights() * eta.values**2
        m_bar, _ = analytic.minimize_plateau_objective(beta)
        T = analytic.optimal_plateau_halfwidth(m_bar, beta)
        rho0 = tf_geometry.tf_density(t0, gp.TF_MODEL)
        v, phi = analytic.plateau_profiles(m_bar, T, math.sqrt(rho0) * (x - t0) / eps)
        v = v / math.sqrt(float(np.sum(mass * v * v)))
        frozen = np.abs(x) > gp.TF_LAMBDA + 0.35
        frozen[[0, -1]] = True
        pair, steps, _, why = gp._constrained_newton(
            gp._weighted_energy(eta, eps, beta, scale=eps).joint(),
            gp._MassConstraints(mass, (1.0, 2.0 * alpha1 - 1.0)),
            solver._interleave(v, phi), solver._interleave(frozen, frozen))
        assert why is None
        scaled = eps * gp.weighted_pair_energy(pair[0::2], pair[1::2], eps, beta, eta).total
        return steps, scaled - tf_geometry.local_surface_tension(t0, gp.TF_MODEL, 1.0)

    @pytest.mark.parametrize("alpha1", [0.5, 0.7])
    @pytest.mark.parametrize("beta", [1e-2, 1.0, 100.0, 1e4])
    def test_window_solves_the_full_grid_system(self, etas, beta, alpha1):
        for eps, eta in etas.items():
            steps, gap = self.full_grid_solve(eta, eps, beta, alpha1)
            row = gp.minimize_weighted_pair(eps, beta, alpha1=alpha1, sigma=1.0, eta=eta)
            assert row.newton_steps == steps
            assert abs(row.gap - gap) <= 1e-14
            assert row.mass_res_1 <= gp.KKT_TOL and row.mass_res_2 <= gp.KKT_TOL

    def test_only_the_window_is_factored(self, monkeypatch):
        sizes = []
        step = gp._bordered_step
        monkeypatch.setattr(gp, "_bordered_step", lambda ab, *rest: sizes.append(ab.shape[1])
                            or step(ab, *rest))
        row = gp.minimize_weighted_pair(0.01, 1.0, sigma=1.0)
        # 2 517 nodes with |x| <= lam + 0.35 and one frozen node each side,
        # two rows per node, of 5 819 nodes on the grid
        assert row.v.size == 5819 and sizes == [5038] * row.newton_steps


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

    def test_mass_constraints_share_the_iterates_sin_and_cos(self, eta_coarse):
        # the same floats with the _Angle the joint energy returns at x as with a fresh one
        rng = np.random.default_rng(5)
        n = eta_coarse.grid.n_points
        x = solver._interleave(rng.uniform(0.2, 1.0, n), rng.uniform(0.0, np.pi, n))
        _, angle = gp._weighted_energy(eta_coarse, 0.1, 1.0).joint().energy(x)
        constraints = gp._MassConstraints(rng.uniform(0.0, 1e-3, n), np.array([1.0, 0.1]))
        lam = np.array([0.3, -0.7])
        np.testing.assert_array_equal(constraints.values(x, angle), constraints.values(x))
        np.testing.assert_array_equal(constraints.gradients(x, angle), constraints.gradients(x))
        np.testing.assert_array_equal(constraints.add_hessian(np.zeros((4, 2 * n)), x, lam, angle),
                                      constraints.add_hessian(np.zeros((4, 2 * n)), x, lam))

    def test_sin_and_cos_once_per_iterate(self, monkeypatch):
        # elements passed to np.sin and np.cos by the benchmark's gamma table,
        # its unit solve left out: 239 835 when the mass constraints took their
        # own sin and cos of every iterate
        counted = []
        for name in ("sin", "cos"):
            def counting(x, *args, _f=getattr(np, name), **kwargs):
                counted.append(np.size(x))
                return _f(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        rows = gp.gamma_table([0.04, 0.02, 0.01], 1.0, sigma=SIGMA_BETA_ONE)
        monkeypatch.undo()
        assert [r.newton_steps for r in rows] == [3, 4, 4]
        assert sum(counted) <= 90_444

    def test_gamma_rows_are_independent_solves(self):
        # each row is its own cold-start minimization: the same eps gives
        # the same numbers whichever list it sits in
        rows = gp.gamma_table([0.08, 0.04], 1.0, sigma=SIGMA_BETA_ONE)
        for row in rows:
            alone = gp.minimize_weighted_pair(row.eps, 1.0, sigma=SIGMA_BETA_ONE)
            assert row.gap == alone.gap
            assert row.scaled_energy == alone.scaled_energy
            assert row.mass_res_1 == alone.mass_res_1
            assert row.mass_res_2 == alone.mass_res_2

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

    def test_minimize_rejects_alpha1_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the input was validated")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(gp, "solve_ground_state", no_solve)
        with pytest.raises(ValueError, match="alpha1"):
            gp.minimize_weighted_pair(0.05, 1.0, alpha1=1.5)

    def test_unconverged_inner_solve_raises_with_row(self, monkeypatch):
        monkeypatch.setattr(gp, "MAX_STEPS", 1)
        with pytest.raises(solver.ConvergenceError, match="projected gradient") as err:
            gp.minimize_weighted_pair(0.08, 1.0, sigma=SIGMA_BETA_ONE)
        assert "budget of 1 steps is spent" in str(err.value)
        row = err.value.result
        assert isinstance(row, gp.GammaRow)
        assert row.eps == 0.08 and row.v.shape == row.eta.values.shape
        assert row.newton_steps == 1

    def test_singular_newton_system_raises_with_row(self, monkeypatch):
        def singular(kl, ku, lu, b, **kwargs):  # LAPACK's report of a zero pivot
            return lu, np.zeros(b.shape[0], dtype=np.int32), b, 1

        monkeypatch.setattr(gp, "dgbsv", singular)
        with pytest.raises(solver.ConvergenceError, match="singular") as err:
            gp.minimize_weighted_pair(0.08, 1.0, sigma=SIGMA_BETA_ONE)
        row = err.value.result
        assert isinstance(row, gp.GammaRow) and row.newton_steps == 1

    def test_rows_without_curvature_decouple(self):
        # at beta = 1e4, eps = 0.01 a step sets v = 0 on a run of nodes near the
        # cloud edge; the phi rows there lose all curvature, and without
        # pinning them the third factorization is singular
        row = gp.minimize_weighted_pair(0.01, 1e4, sigma=1.0)
        assert row.mass_res_1 <= 1e-6 and row.mass_res_2 <= 1e-6

    def test_saddle_is_left_by_a_diagonal_shift(self):
        # an uneven split at strong coupling: from about the tenth step the
        # unshifted Newton step does not descend on the merit, and -P grad
        # alone does not converge within the budget
        row = gp.minimize_weighted_pair(0.08, 1e4, alpha1=0.3, sigma=1.0)
        assert row.mass_res_1 <= 1e-6 and row.mass_res_2 <= 1e-6
        assert row.newton_steps <= 25

    def test_strong_coupling_at_coarse_eps_converges(self):
        row = gp.minimize_weighted_pair(0.04, 100.0)
        assert row.mass_res_1 <= 1e-6 and row.mass_res_2 <= 1e-6
        assert 0 < row.newton_steps <= 10

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
