"""Desk-scale sharp-interface validation against the full pair energy.

Pipeline: solve the single-component ground state eta at healing length eps
(bordered Newton on the unit L2 sphere), minimize eps times the weighted
pair energy under the two mass constraints (bordered Newton on the joint
band of ``solver.PairEnergy``, one banded LU per step; the frozen exterior
of the cloud is left out of the system), and compare with
the limit value sigma(beta) * rho(t0)^(3/2) at the interface location t0
fixed by the limit constraint.  The gap must shrink as eps decreases.  The
weighted pair energy is ``solver.PairEnergy`` with eta weights: the
transition energy behind sigma is its eta = 1, eps = 1 case, with the same
quadrature.

Everything is one-dimensional with the harmonic trap V(x) = x^2, so the
Thomas-Fermi cloud is (-lam, lam) with lam = (3/4)^(1/3) and the limit
energy is a single closed-form number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import analytic, solver, tf_geometry
from .grid import Grid1D
from .solver import dgbsv

TF_MODEL = tf_geometry.TFModel(1)
TF_LAMBDA = TF_MODEL.lam
GROUND_TOL = 1e-9  # max-norm of the ground state's sphere-tangent gradient at the end


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps


def default_eta_grid(eps: float) -> Grid1D:
    """Domain [-M, M] with M = lam + 2 and spacing eps/10 (layers resolved)."""
    eps = _check_eps(eps)
    return Grid1D.from_spacing(TF_LAMBDA + 2.0, eps / 10.0)


@dataclass
class GroundState:
    """Positive normalized minimizer of the single-component energy."""

    eps: float
    grid: Grid1D
    values: np.ndarray
    energy: float
    iterations: int


def _gp_energy(u, x, eps, h, w) -> float:
    du = np.diff(u)
    pot = x * x
    return 0.5 * (
        solver.dot(du, du) / h
        + h / eps**2 * np.sum(w * pot * u * u)
        + h / (2.0 * eps**2) * np.sum(w * u**4)
    )


def _gp_gradient(u, x, eps, h, w):
    du = np.diff(u)
    g = np.zeros_like(u)
    g[:-1] -= du / h
    g[1:] += du / h
    g += h / eps**2 * w * (x * x) * u
    g += h / eps**2 * w * u**3
    return g


def solve_ground_state(eps: float, grid: Grid1D | None = None) -> GroundState:
    """Minimize the single-component energy on the unit sphere of L2.

    Bordered Newton on the stationarity system g = mu * grad(c), c = 0, from
    the normalized Thomas-Fermi profile: the tridiagonal Hessian of the
    Lagrangian and the constraint gradient share one Cholesky factorization
    (``solver.band_solve``), and the constraint row is eliminated by
    Sherman-Morrison.  Each step is renormalized.  Converged when the
    max-norm of the sphere-tangent gradient falls below ``GROUND_TOL``.  A spent
    budget of 60 steps, or a Hessian that is not positive definite, raises
    ConvergenceError carrying the last normalized state.  Boundary values are
    pinned at zero; interior values of the result are strictly positive.
    """
    eps = _check_eps(eps)
    grid = grid or default_eta_grid(eps)
    x = grid.nodes
    h = grid.spacing
    w = grid.trapezoid_weights()
    n = grid.n_points
    fixed = np.zeros(n, dtype=bool)
    fixed[0] = fixed[-1] = True

    def normalize(a):
        a = np.clip(a, 0.0, None)
        a[0] = a[-1] = 0.0
        nrm = math.sqrt(h * solver.dot(w, a * a))
        return a / nrm

    def stop(why):  # carries the last normalized state
        return solver.ConvergenceError(f"ground state {why}", GroundState(
            eps=eps, grid=grid, values=u, energy=_gp_energy(u, x, eps, h, w), iterations=steps))

    u = normalize(np.sqrt(np.maximum(TF_LAMBDA**2 - x * x, 0.0)) + 0.05)
    steps = 0
    while True:
        g = _gp_gradient(u, x, eps, h, w)
        gc = 2.0 * h * w * u  # gradient of the discrete norm constraint
        mu = solver.dot(g, gc) / solver.dot(gc, gc)
        gt = g - mu * gc
        gt[0] = gt[-1] = 0.0
        if np.abs(gt).max() <= GROUND_TOL:
            break
        if steps == 60:
            raise stop(f"stalled at tangent gradient {np.abs(gt).max():.3e}")
        steps += 1
        c = h * solver.dot(w, u * u) - 1.0
        diag = np.full(n, 2.0 / h) + h / eps**2 * w * (x * x + 3.0 * u * u) - mu * 2.0 * h * w
        ab = np.array([diag, np.full(n, -1.0 / h)])
        try:
            z1, z2 = solver.band_solve(ab, fixed, -(g - mu * gc), gc).T
        except np.linalg.LinAlgError as exc:
            raise stop(f"Newton system failed at step {steps} ({exc})") from None
        dmu = (-c - solver.dot(gc, z1)) / solver.dot(gc, z2)
        u = normalize(u + z1 + dmu * z2)
    # The true state is strictly positive but decays below double precision
    # well before the boundary; floor the underflowed tail at a harmless
    # positive level so the positivity invariant stays checkable.
    floor = 1e-30 * u.max()
    u[1:-1] = np.maximum(u[1:-1], floor)
    u = normalize(u)
    u[1:-1] = np.maximum(u[1:-1], floor)
    energy = _gp_energy(u, x, eps, h, w)
    if not np.all(u[1:-1] > 0.0):
        raise RuntimeError("ground state lost interior positivity")
    return GroundState(eps=eps, grid=grid, values=u, energy=energy, iterations=steps)


# ---------------------------------------------------------------------------
# weighted pair energy
# ---------------------------------------------------------------------------

def _weighted_energy(eta: GroundState, eps: float, beta: float, scale: float = 1.0,
                     window: slice = slice(None)) -> solver.PairEnergy:
    """``scale`` times the weighted pair energy: eta weights on eta's grid,
    or on its nodes ``window`` (the cells between them)."""
    e = eta.values[window]
    e2 = e * e
    w = eta.grid.trapezoid_weights()[window]
    cell = (0.5 * (e[:-1] + e[1:])) ** 2
    return solver.PairEnergy(beta, eta.grid.spacing, scale * cell, scale * e2,
                             scale / eps**2 * w * e2 * e2)


def weighted_pair_energy(v, phi, eps: float, beta: float, eta: GroundState) -> solver.EnergyBreakdown:
    """Pair energy with ground-state weights:

      (1/2) int  eta^2 v'^2 + eta^4 (1-v^2)^2/(2 eps^2)
                 + eta^2 v^2 phi'^2 / 4 + beta eta^4 v^4 sin^2(phi)/(4 eps^2).

    The v-kinetic term weighs each cell by the squared midpoint of eta; the
    phi-kinetic term averages (eta v)^2 over the two nodes of a cell, the
    rule of the transition energy (see ``solver``).  Neither is the discrete
    product rule of the decomposition check, whose kinetic terms carry cross
    terms between neighbouring nodes; that check converges under refinement
    instead of holding exactly.
    """
    eps = _check_eps(eps)
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if v.shape != eta.values.shape or phi.shape != eta.values.shape:
        raise ValueError("fields must live on the ground-state grid")
    return _weighted_energy(eta, eps, beta).terms(v, phi)


def decomposition_residual(v, phi, eps: float, beta: float, eta: GroundState) -> float:
    """Defect of the ground-state energy splitting.

    |E(u1, u2) - F(v, phi) - E(eta)| with u1 = eta v cos(phi/2) and
    u2 = eta v sin(phi/2), all three energies on the same grid and scheme.
    The continuum identity needs eta stationary and the total mass
    constraint; pairs should satisfy sum w eta^2 v^2 h = 1 for the residual
    to vanish under refinement.
    """
    eps = _check_eps(eps)
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    e = eta.values
    x = eta.grid.nodes
    h = eta.grid.spacing
    w = eta.grid.trapezoid_weights()
    u1 = e * v * np.cos(0.5 * phi)
    u2 = e * v * np.sin(0.5 * phi)
    e1 = _gp_energy(u1, x, eps, h, w)
    e2 = _gp_energy(u2, x, eps, h, w)
    cross = (1.0 + beta) / (2.0 * eps**2) * h * np.sum(w * u1 * u1 * u2 * u2)
    f = weighted_pair_energy(v, phi, eps, beta, eta).total
    return abs(e1 + e2 + cross - f - eta.energy)


# ---------------------------------------------------------------------------
# constrained minimization of eps * F
# ---------------------------------------------------------------------------

@dataclass
class GammaRow:
    eps: float
    beta: float
    scaled_energy: float
    limit_energy: float
    gap: float
    mass_res_1: float
    mass_res_2: float
    newton_steps: int = field(repr=False, default=0)  # bordered Newton steps of the solve
    v: np.ndarray = field(repr=False, default=None)
    phi: np.ndarray = field(repr=False, default=None)
    eta: GroundState = field(repr=False, default=None)


def interface_location(alpha1: float) -> float:
    """Jump point t0 of the limit constraint: mass alpha1 sits left of t0."""
    if not 0.0 < alpha1 < 1.0:
        raise ValueError("alpha1 must lie strictly between 0 and 1")
    return tf_geometry._halfline_cut(alpha1, TF_MODEL)


KKT_TOL = 1e-6  # stop: max-norm of the projected grad of the Lagrangian and of c1, c2
MAX_STEPS = 50  # bordered Newton steps of one constrained solve; 2-5 at alpha1 = 1/2


@dataclass(frozen=True)
class _MassConstraints:
    """c_k = sum m v^2 (1, cos(phi))_k - targets_k, m = h w eta^2, on the
    interleaved pair x = (v_0, phi_0, v_1, phi_1, ...): their values, their
    gradients as the columns of an (x.size, 2) array, and lam1 hess(c1) +
    lam2 hess(c2) added to a band in LAPACK lower storage.  Each takes the
    ``solver._Angle`` of x's angles when the caller has it, as the joint
    objective of ``solver.PairEnergy`` does."""

    mass: np.ndarray
    targets: np.ndarray  # (t1, t2)

    def values(self, x, angle=None) -> np.ndarray:
        mv2 = self.mass * x[0::2] ** 2
        angle = angle or solver._Angle(x[1::2])
        return np.array([np.sum(mv2), np.sum(mv2 * angle.cos)]) - self.targets

    def gradients(self, x, angle=None) -> np.ndarray:
        mv, angle = self.mass * x[0::2], angle or solver._Angle(x[1::2])
        grad2 = solver._interleave(2.0 * mv * angle.cos, -mv * x[0::2] * angle.sin)
        return np.column_stack((solver._interleave(2.0 * mv, np.zeros(mv.size)), grad2))

    def add_hessian(self, ab, x, lam, angle=None):
        mv, angle = self.mass * x[0::2], angle or solver._Angle(x[1::2])
        ab[0, 0::2] += 2.0 * self.mass * (lam[0] + lam[1] * angle.cos)
        ab[0, 1::2] -= lam[1] * mv * x[0::2] * angle.cos
        ab[1, 0::2] -= 2.0 * lam[1] * mv * angle.sin
        return ab


def _bordered_step(ab, fixed, grad, a, c):
    """Newton step (d, dlam) of the KKT system H d + A dlam = -grad, A^T d = -c,
    H a symmetric band of half-width 3 in LAPACK lower storage (``ab``; its
    rows in ``fixed`` are pinned in place and held).  One banded LU
    (``gbsv``) solves H for -grad and the columns ``a`` of A; the 2 x 2
    Schur complement A^T H^-1 A gives dlam (Nocedal & Wright, ch. 16).  A
    singular or non-finite system raises ``LinAlgError``.
    """
    lu = np.zeros((10, grad.size), order="F")  # gbsv storage: lu[6 + i - j, j] = H[i, j]
    lu[6:] = solver.pin_band(ab, fixed)
    for k in range(1, 4):
        lu[6 - k, k:] = ab[k, :-k]
    _, _, z, info = dgbsv(3, 3, lu, np.column_stack((-grad, a)), overwrite_ab=1, overwrite_b=1)
    if info > 0 or not np.isfinite(z).all():
        raise np.linalg.LinAlgError("singular or non-finite Newton system")
    z[fixed] = 0.0
    dlam = np.linalg.solve(a.T @ z[:, 1:], a.T @ z[:, 0] + c)
    return z[:, 0] - z[:, 1:] @ dlam, dlam


def _constrained_newton(objective, constraints, x, fixed):
    """Bordered projected Newton: min ``objective`` subject to ``constraints``
    = 0, v >= 0 and phi in [0, pi], from lam = 0.  Rows on a bound stay in
    the system, as in ``solver.projected_newton``.  The merit is the
    augmented Lagrangian at the new multipliers, weight 10; where the step
    does not descend on it (near a saddle: beta = 1e4, uneven mass split),
    the free diagonal is shifted by 1e-5, 1e-4, ... times its largest entry.
    The line search stalls when the merit rises by more than its rounding
    (``solver.rounding``).  Returns ``(x, steps, pg, why)``: pg the max-norm
    of the projected gradient of the Lagrangian, why None on convergence,
    else the reason.  The ``solver._Angle`` that ``objective.energy``
    returns at an iterate goes to every function evaluated there.
    """
    hi = np.tile([np.inf, np.pi], x.size // 2)
    lam = np.zeros(2)
    steps = 0

    def merit(x, angle=None):  # at the current multipliers
        value, angle = objective.energy(x, angle)
        c = constraints.values(x, angle)
        return value + lam @ c + 5.0 * (c @ c), angle

    _, angle = objective.energy(x)
    while True:
        g = np.where(fixed, 0.0, objective.gradient(x, angle))
        c = constraints.values(x, angle)
        a = np.where(fixed[:, None], 0.0, constraints.gradients(x, angle))
        pg = np.abs(solver._projected(x, g + a @ lam, 0.0, hi)).max()
        if pg <= KKT_TOL and np.abs(c).max() <= KKT_TOL:
            return x, steps, pg, None
        if steps == MAX_STEPS:
            return x, steps, pg, f"the budget of {MAX_STEPS} steps is spent"
        steps += 1
        ab = constraints.add_hessian(objective.curvature(x, angle), x, lam, angle)
        held = fixed | (ab[0] == 0.0)  # no curvature: phi where v vanishes around it
        tau, top = 0.0, np.abs(ab[0]).max()
        while True:  # shift the free diagonal by tau until the step descends on the merit
            try:
                d, dlam = _bordered_step(ab, held, g + a @ lam, a, c)
            except np.linalg.LinAlgError as exc:
                return x, steps, pg, f"the Newton system failed ({exc})"
            gm = g + a @ (lam + dlam + 10.0 * c)
            if solver.dot(gm, d) < 0.0 or tau > top:
                break
            ab[0, ~held] += max(9.0 * tau, 1e-5 * top)
            tau = max(10.0 * tau, 1e-5 * top)
        lam = lam + dlam
        value, _ = merit(x, angle)
        x_new, value_new, angle_new = solver.arc_search(merit, value, x, d, gm, 0.0, hi, fixed)
        if not value_new <= value + solver.rounding(value):
            return x, steps, pg, "the line search stalled"
        x, angle = x_new, angle_new


def minimize_weighted_pair(
    eps: float,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
    eta: GroundState | None = None,
) -> GammaRow:
    """Minimize eps * F under both mass constraints; report the limit gap.

    Bordered projected Newton (``_constrained_newton``) from the plateau pair
    at t0; the constraints hold to ``KKT_TOL``.  Beyond |x| = lam + 0.35 the
    fields keep the cold start, left out of the Newton system but for one
    node each side; their mass moves into the targets.  The Lagrangian
    Hessian is factored by LU, not Cholesky: it is indefinite.  Its negative
    direction (eigenvalue -9.1e-5 at the minimizer for beta = 1, eps = 0.04),
    peaked on phi at t0, translates the interface, which only the second
    mass constraint holds at the density maximum; on the constraint tangent
    space the Hessian is positive definite.  A spent budget, a stalled line
    search or a singular system raises ConvergenceError carrying the row.
    """
    eps = _check_eps(eps)
    beta = analytic._check_beta(beta)
    t0 = interface_location(alpha1)
    if eta is None:
        eta = solve_ground_state(eps)
    if sigma is None:
        sigma = solver.solve(beta).sigma
    grid = eta.grid
    x = grid.nodes
    mass = grid.spacing * grid.trapezoid_weights() * eta.values**2

    rho0 = tf_geometry.tf_density(t0, TF_MODEL)
    limit_energy = tf_geometry.local_surface_tension(t0, TF_MODEL, sigma)

    m_bar, _ = analytic.minimize_plateau_objective(beta)
    T = analytic.optimal_plateau_halfwidth(m_bar, beta)
    v, phi = analytic.plateau_profiles(m_bar, T, math.sqrt(rho0) * (x - t0) / eps)
    v = v / math.sqrt(float(np.sum(mass * v * v)))

    # Outside the cloud plus a margin every energy weight is below double precision; the
    # fields stay frozen there, out of the system but for one node each side, to keep it regular.
    free = np.flatnonzero(np.abs(x) <= TF_LAMBDA + 0.35)
    win = slice(free[0] - 1, free[-1] + 2)
    fixed = np.r_[True, np.zeros(free.size, dtype=bool), True]
    targets = np.array([1.0, 2.0 * alpha1 - 1.0])  # alpha1 + alpha2, alpha1 - alpha2
    outside = np.r_[mass[:win.start], np.zeros(free.size + 2), mass[win.stop:]]
    exterior = _MassConstraints(outside, (0.0, 0.0)).values(solver._interleave(v, phi))

    energy = _weighted_energy(eta, eps, beta, scale=eps, window=win)
    pair, steps, pg, why = _constrained_newton(
        energy.joint(), _MassConstraints(mass[win], targets - exterior),
        solver._interleave(v[win], phi[win]), solver._interleave(fixed, fixed))
    v[win], phi[win] = pair[0::2], pair[1::2]

    scaled = eps * weighted_pair_energy(v, phi, eps, beta, eta).total
    c1, c2 = _MassConstraints(mass, targets).values(solver._interleave(v, phi))
    row = GammaRow(
        eps=eps,
        beta=beta,
        scaled_energy=scaled,
        limit_energy=limit_energy,
        gap=scaled - limit_energy,
        mass_res_1=abs(c1),
        mass_res_2=abs(c2),
        newton_steps=steps,
        v=v,
        phi=phi,
        eta=eta,
    )
    if why is not None:
        raise solver.ConvergenceError(
            f"constrained pair stopped at projected gradient {pg:.3e} and mass residual "
            f"{max(abs(c1), abs(c2)):.3e} above {KKT_TOL:.0e} at eps={eps:g} after "
            f"{steps} Newton steps: {why}", row)
    return row


def gamma_table(
    eps_list,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
) -> list[GammaRow]:
    """One independent constrained solve per eps, each from its own cold start.

    ``eps_list`` must be nonempty and decreasing with every entry in (0, 0.1].
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list is empty")
    if not all(0.0 < e <= 0.1 for e in eps_list):
        raise ValueError(f"every eps must be finite and lie in (0, 0.1], got {eps_list}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    interface_location(alpha1)  # rejects a bad alpha1 before the first solve
    if sigma is None:
        sigma = solver.solve(beta).sigma
    return [minimize_weighted_pair(eps, beta, alpha1=alpha1, sigma=sigma) for eps in eps_list]


def gamma_csv_rows(rows) -> list[dict]:
    """The scalar fields of each row in field order; the profiles are left out."""
    return [{f.name: getattr(r, f.name) for f in fields(GammaRow) if f.repr} for r in rows]
