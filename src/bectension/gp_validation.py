"""Desk-scale sharp-interface validation against the full pair energy.

Pipeline: solve the single-component ground state eta at healing length eps
(bordered Newton on the unit L2 sphere), minimize eps times the weighted
pair energy under the two mass constraints (augmented penalty, the
alternating projected Newton driver of ``solver``), and compare with the
limit value sigma(beta) * rho(t0)^(3/2) at the interface location t0 fixed
by the limit constraint.  The gap must shrink as eps decreases.  The
weighted pair energy is ``solver.PairEnergy`` with eta weights: the
transition energy behind sigma is its eta = 1, eps = 1 case, with the same
quadrature.

Everything is one-dimensional with the harmonic trap V(x) = x^2, so the
Thomas-Fermi cloud is (-lam, lam) with lam = (3/4)^(1/3) and the limit
energy is a single closed-form number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analytic, solver, tf_geometry
from .grid import Grid1D

TF_MODEL = tf_geometry.TFModel(1)
TF_LAMBDA = TF_MODEL.lam


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
        du @ du / h
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


def solve_ground_state(eps: float, grid: Grid1D | None = None, tol: float = 1e-9) -> GroundState:
    """Minimize the single-component energy on the unit sphere of L2.

    Bordered Newton on the stationarity system g = mu * grad(c), c = 0, from
    the normalized Thomas-Fermi profile: the tridiagonal Hessian and the
    constraint gradient share one banded solve, and the constraint row is
    eliminated by Sherman-Morrison.  Each step is renormalized.  Converged
    when the max-norm of the sphere-tangent gradient falls below ``tol``;
    otherwise ConvergenceError carries the last normalized state.  Boundary
    values are pinned at zero; interior values of the result are strictly
    positive.
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
        nrm = math.sqrt(h * float(w @ (a * a)))
        return a / nrm

    u = normalize(np.sqrt(np.maximum(TF_LAMBDA**2 - x * x, 0.0)) + 0.05)
    steps = 0
    while True:
        g = _gp_gradient(u, x, eps, h, w)
        gc = 2.0 * h * w * u  # gradient of the discrete norm constraint
        mu = float(g @ gc) / float(gc @ gc)
        gt = g - mu * gc
        gt[0] = gt[-1] = 0.0
        if np.abs(gt).max() <= tol:
            break
        if steps == 60:
            raise solver.ConvergenceError(
                f"ground state stalled at tangent gradient {np.abs(gt).max():.3e}",
                GroundState(eps=eps, grid=grid, values=u,
                            energy=_gp_energy(u, x, eps, h, w), iterations=steps),
            )
        steps += 1
        c = h * float(w @ (u * u)) - 1.0
        diag = np.full(n, 2.0 / h) + h / eps**2 * w * (x * x + 3.0 * u * u) - mu * 2.0 * h * w
        off = np.full(n - 1, -1.0 / h)
        z1, z2 = solver.banded_solve(diag, off, fixed, -(g - mu * gc), gc).T
        denom = float(gc @ z2)
        dmu = (-c - float(gc @ z1)) / denom if denom != 0.0 else 0.0
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

def _weighted_energy(eta: GroundState, eps: float, beta: float, scale: float = 1.0) -> solver.PairEnergy:
    """``scale`` times the weighted pair energy: eta weights on eta's grid."""
    e = eta.values
    e2 = e * e
    w = eta.grid.trapezoid_weights()
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
    v: np.ndarray = field(repr=False, default=None)
    phi: np.ndarray = field(repr=False, default=None)
    eta: GroundState = field(repr=False, default=None)


def interface_location(alpha1: float) -> float:
    """Jump point t0 of the limit constraint: mass alpha1 sits left of t0."""
    if not 0.0 < alpha1 < 1.0:
        raise ValueError("alpha1 must lie strictly between 0 and 1")
    return tf_geometry._halfline_cut(alpha1, TF_MODEL)


# Augmented-penalty continuation: STAGES stages, the penalty weight starting
# at MU0 and growing tenfold per stage, MULTIPLIER_UPDATES inner solves per
# stage; the inner tolerance falls from 1e-4 tenfold per stage to INNER_TOL.
STAGES = 4
MU0 = 10.0
MULTIPLIER_UPDATES = 3
INNER_TOL = 1e-6
INNER_STEPS = 1600  # Newton half-steps per inner solve
V_HI = 1.5          # amplitude box; the mass constraint lets v exceed 1


@dataclass(frozen=True)
class _PenalizedPair:
    """eps F plus the augmented penalty of the two mass constraints.

    c1 = sum m v^2 - 1 and c2 = sum m v^2 cos(phi) - target2 with
    m = h w eta^2; the penalty is lam1 c1 + lam2 c2 + (mu/2)(c1^2 + c2^2)
    at fixed multipliers.  In each block's curvature the multiplier forces
    q = lam + mu c add q times the constraint Hessians (diagonal), and the
    rank-one terms mu grad(c) grad(c)^T enter as Woodbury columns.
    """

    pair: solver.PairEnergy  # eps F
    mass: np.ndarray
    target2: float
    lam1: float
    lam2: float
    mu: float

    def constraints(self, mv2, cos_phi) -> tuple[float, float]:
        """c1 and c2 from m v^2 per node and cos(phi)."""
        return float(np.sum(mv2)) - 1.0, float(np.sum(mv2 * cos_phi)) - self.target2

    def _penalized(self, energy: float, c1: float, c2: float) -> float:
        return (energy + self.lam1 * c1 + self.lam2 * c2
                + 0.5 * self.mu * (c1 * c1 + c2 * c2))

    def phi_block(self, v) -> solver.Block:
        """The penalized objective in phi at frozen v; m v^2 computed once."""
        block = self.pair.phi_block(v)
        mv2 = self.mass * v * v

        def energy(phi):
            return self._penalized(block.energy(phi), *self.constraints(mv2, np.cos(phi)))

        def gradient(phi):
            q2 = self.lam2 + self.mu * self.constraints(mv2, np.cos(phi))[1]
            g = block.gradient(phi)
            g -= q2 * self.mass * v * v * np.sin(phi)
            return g

        def curvature(phi):
            cos_phi = np.cos(phi)
            q2 = self.lam2 + self.mu * self.constraints(mv2, cos_phi)[1]
            kin, off, pot, _ = block.curvature(phi)
            pot -= q2 * mv2 * cos_phi
            return kin, off, pot, (-math.sqrt(self.mu) * mv2 * np.sin(phi),)

        return solver.Block(energy, gradient, curvature)

    def v_block(self, phi) -> solver.Block:
        """The penalized objective in v at frozen phi; cos(phi) computed once."""
        block = self.pair.v_block(phi)
        cos_phi = np.cos(phi)

        def energy(v):
            return self._penalized(block.energy(v), *self.constraints(self.mass * v * v, cos_phi))

        def force(v):  # q1 + q2 cos(phi)
            c1, c2 = self.constraints(self.mass * v * v, cos_phi)
            return (self.lam1 + self.mu * c1) + (self.lam2 + self.mu * c2) * cos_phi

        def gradient(v):
            g = block.gradient(v)
            g += 2.0 * self.mass * v * force(v)
            return g

        def curvature(v):
            kin, off, pot, _ = block.curvature(v)
            pot += 2.0 * self.mass * force(v)
            mv = 2.0 * math.sqrt(self.mu) * self.mass * v
            return kin, off, pot, (mv, mv * cos_phi)

        return solver.Block(energy, gradient, curvature)


def minimize_weighted_pair(
    eps: float,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
    eta: GroundState | None = None,
) -> GammaRow:
    """Minimize eps * F under both mass constraints; report the limit gap.

    Constraints are enforced by an augmented penalty tightened over
    continuation: the quadratic weight grows tenfold per stage while the
    linear multipliers absorb the constraint forces, so the final mass
    residuals drop below 1e-6 without an ill-conditioned penalty.  Each
    inner minimization is ``solver.alternating_newton`` on
    ``_PenalizedPair``, the penalty curvature entering each block as
    low-rank columns.  Each call starts cold from the plateau pair at t0.  If
    the last inner solve ends above ``INNER_TOL``, ConvergenceError carries
    the row.
    """
    eps = _check_eps(eps)
    beta = analytic._check_beta(beta)
    t0 = interface_location(alpha1)
    alpha2 = 1.0 - alpha1
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

    # Outside the cloud plus a margin every energy weight has decayed below
    # double-precision relevance; freezing the fields there removes a large
    # block of indifferent directions that would otherwise stall the solve.
    frozen = np.abs(x) > TF_LAMBDA + 0.35
    frozen[0] = frozen[-1] = True

    problem = _PenalizedPair(_weighted_energy(eta, eps, beta, scale=eps), mass,
                             alpha1 - alpha2, 0.0, 0.0, MU0)
    for stage in range(STAGES):
        tol = max(INNER_TOL, 1e-4 * 10.0 ** (-stage))
        for _ in range(MULTIPLIER_UPDATES):
            v, phi, _, pg = solver.alternating_newton(problem, v, phi, frozen, frozen, V_HI,
                                                      tol, INNER_STEPS)
            c1, c2 = problem.constraints(mass * v * v, np.cos(phi))
            problem = replace(problem, lam1=problem.lam1 + problem.mu * c1,
                              lam2=problem.lam2 + problem.mu * c2)
        problem = replace(problem, mu=10.0 * problem.mu)

    scaled = eps * weighted_pair_energy(v, phi, eps, beta, eta).total
    c1, c2 = problem.constraints(mass * v * v, np.cos(phi))
    row = GammaRow(
        eps=eps,
        beta=beta,
        scaled_energy=scaled,
        limit_energy=limit_energy,
        gap=scaled - limit_energy,
        mass_res_1=abs(c1),
        mass_res_2=abs(c2),
        v=v,
        phi=phi,
        eta=eta,
    )
    if pg > INNER_TOL:
        raise solver.ConvergenceError(
            f"constrained pair stalled at projected gradient {pg:.3e} "
            f"above {INNER_TOL:.0e} at eps={eps:g}", row)
    return row


def gamma_table(
    eps_list,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
) -> list[GammaRow]:
    """One independent constrained solve per eps, each from its own cold start.

    ``eps_list`` must be nonempty and decreasing with every entry at most 0.1.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list is empty")
    if any(e > 0.1 for e in eps_list):
        raise ValueError("eps values above 0.1 are outside the validated regime")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    interface_location(alpha1)  # rejects a bad alpha1 before the first solve
    if sigma is None:
        sigma = solver.solve(beta).sigma
    return [minimize_weighted_pair(eps, beta, alpha1=alpha1, sigma=sigma) for eps in eps_list]


def gamma_csv_rows(rows) -> list[dict]:
    """The scalar fields of each row in field order; the profiles are left out."""
    return [{f.name: getattr(r, f.name) for f in fields(GammaRow) if f.repr} for r in rows]
