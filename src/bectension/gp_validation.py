"""Desk-scale sharp-interface validation against the full pair energy.

Pipeline: solve the single-component ground state eta at healing length eps
(bordered Newton on the unit L2 sphere), minimize eps times the weighted
pair energy under the two mass constraints (augmented penalty, alternating
projected Newton blocks on the banded kernel shared with ``solver``), and
compare with the limit value sigma(beta) * rho(t0)^(3/2) at the interface
location t0 fixed by the limit constraint.  The gap must shrink as eps
decreases.  Each problem keeps its own energy and quadrature.

Everything is one-dimensional with the harmonic trap V(x) = x^2, so the
Thomas-Fermi cloud is (-lam, lam) with lam = (3/4)^(1/3) and the limit
energy is a single closed-form number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, solver, tf_geometry
from .grid import Grid1D, ProfilePair

TF_LAMBDA = tf_geometry.tf_lambda(1)


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

    def norm(self) -> float:
        w = self.grid.trapezoid_weights()
        return math.sqrt(self.grid.spacing * float(w @ (self.values**2)))


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

def weighted_pair_energy(v, phi, eps: float, beta: float, eta: GroundState) -> solver.EnergyBreakdown:
    """Pair energy with ground-state weights:

      (1/2) int  eta^2 v'^2 + eta^4 (1-v^2)^2/(2 eps^2)
                 + eta^2 v^2 phi'^2 / 4 + beta eta^4 v^4 sin^2(phi)/(4 eps^2).

    Derivative terms carry squared cell midpoints of the weight fields, which
    matches the exact discrete product rule used by the decomposition check.
    """
    eps = _check_eps(eps)
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    e = eta.values
    if v.shape != e.shape or phi.shape != e.shape:
        raise ValueError("fields must live on the ground-state grid")
    h = eta.grid.spacing
    w = eta.grid.trapezoid_weights()
    eta_mid = 0.5 * (e[:-1] + e[1:])
    etav_mid = 0.5 * (e[:-1] * v[:-1] + e[1:] * v[1:])
    dv = np.diff(v)
    dphi = np.diff(phi)
    e4 = e**4
    kinetic_v = 0.5 * np.sum(eta_mid**2 * dv * dv) / h
    double_well = h / (4.0 * eps**2) * np.sum(w * e4 * (1.0 - v * v) ** 2)
    kinetic_phi = 0.125 * np.sum(etav_mid**2 * dphi * dphi) / h
    coupling = beta * h / (8.0 * eps**2) * np.sum(w * e4 * v**4 * np.sin(phi) ** 2)
    return solver.EnergyBreakdown(kinetic_v, double_well, kinetic_phi, coupling)


def _pair_gradient(v, phi, eps, beta, eta: GroundState):
    e = eta.values
    h = eta.grid.spacing
    w = eta.grid.trapezoid_weights()
    eta_mid2 = (0.5 * (e[:-1] + e[1:])) ** 2
    ev = e * v
    ev_mid = 0.5 * (ev[:-1] + ev[1:])
    dv = np.diff(v)
    dphi = np.diff(phi)
    e4 = e**4
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)

    gv = np.zeros_like(v)
    flux_v = eta_mid2 * dv / h
    gv[:-1] -= flux_v
    gv[1:] += flux_v
    gv -= h / eps**2 * w * e4 * (1.0 - v * v) * v
    # d/dv_i of sum (ev_mid)^2 dphi^2 / (8h): ev_mid couples two cells
    a = ev_mid * dphi * dphi / (8.0 * h)
    gv[:-1] += a * e[:-1]
    gv[1:] += a * e[1:]
    gv += beta * h / (2.0 * eps**2) * w * e4 * v**3 * sin_phi**2

    gphi = np.zeros_like(phi)
    flux_p = ev_mid**2 * dphi / (4.0 * h)
    gphi[:-1] -= flux_p
    gphi[1:] += flux_p
    gphi += beta * h / (4.0 * eps**2) * w * e4 * v**4 * sin_phi * cos_phi
    return gv, gphi


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
    if alpha1 == 0.5:
        return 0.0
    return tf_geometry._halfline_cut(alpha1, tf_geometry.tf_model(1))


def _mass_terms(v, phi, eta: GroundState):
    h = eta.grid.spacing
    w = eta.grid.trapezoid_weights()
    m = h * w * eta.values**2 * v * v
    return float(np.sum(m)), float(np.sum(m * np.cos(phi)))


def minimize_weighted_pair(
    eps: float,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
    eta: GroundState | None = None,
    start: tuple[np.ndarray, np.ndarray] | None = None,
    stages: int = 4,
    mu0: float = 10.0,
    multiplier_updates: int = 3,
    inner_tol: float = 1e-6,
) -> GammaRow:
    """Minimize eps * F under both mass constraints; report the limit gap.

    Constraints are enforced by an augmented penalty tightened over
    continuation: the quadratic weight grows tenfold per stage while the
    linear multipliers absorb the constraint forces, so the final mass
    residuals drop below 1e-6 without an ill-conditioned penalty.  Each
    inner minimization alternates projected Newton blocks on phi and on v
    (the kernel of ``solver.projected_newton``), the penalty curvature
    entering each block as low-rank columns.
    """
    eps = _check_eps(eps)
    if beta <= 0:
        raise ValueError("beta must be positive")
    alpha2 = 1.0 - alpha1
    if eta is None:
        eta = solve_ground_state(eps)
    if sigma is None:
        sigma = solver.solve(beta).sigma
    grid = eta.grid
    x = grid.nodes
    h = grid.spacing
    w = grid.trapezoid_weights()
    e = eta.values
    e2 = e**2
    e4 = e**4
    eta_mid2 = (0.5 * (e[:-1] + e[1:])) ** 2

    t0 = interface_location(alpha1)
    rho0 = max(TF_LAMBDA**2 - t0 * t0, 0.0)
    limit_energy = sigma * rho0**1.5

    if start is None:
        m_bar, _ = analytic.minimize_plateau_objective(beta)
        T = analytic.optimal_plateau_halfwidth(m_bar, beta)
        arg = math.sqrt(rho0) * (x - t0) / eps
        v = np.where(np.abs(arg) <= T, m_bar,
                     np.tanh(np.maximum(np.abs(arg) - T, 0.0) / math.sqrt(2.0)
                             + math.atanh(min(m_bar, 1.0 - 1e-15))))
        phi = np.clip(0.5 * math.pi * (arg / max(T, 1e-12) + 1.0), 0.0, math.pi)
    else:
        v, phi = start[0].copy(), start[1].copy()
    mass = h * float(np.sum(w * e2 * v * v))
    v = v / math.sqrt(mass)

    target2 = alpha1 - alpha2
    lam1 = lam2 = 0.0
    mu = mu0
    v_hi = 1.5

    # Outside the cloud plus a margin every energy weight has decayed below
    # double-precision relevance; freezing the fields there removes a large
    # block of indifferent directions that would otherwise stall the solve.
    frozen = np.abs(x) > TF_LAMBDA + 0.35
    frozen[0] = frozen[-1] = True

    def constraints(v, phi):
        c1, c2 = _mass_terms(v, phi, eta)
        return c1 - 1.0, c2 - target2

    def objective(v, phi):
        c1, c2 = constraints(v, phi)
        f = weighted_pair_energy(v, phi, eps, beta, eta).total
        return eps * f + lam1 * c1 + lam2 * c2 + 0.5 * mu * (c1 * c1 + c2 * c2)

    def gradient(v, phi):
        fv, fphi = _pair_gradient(v, phi, eps, beta, eta)
        c1, c2 = constraints(v, phi)
        q1 = lam1 + mu * c1
        q2 = lam2 + mu * c2
        gv = eps * fv + 2.0 * h * w * e2 * v * (q1 + q2 * np.cos(phi))
        gphi = eps * fphi - h * w * e2 * v * v * np.sin(phi) * q2
        gv[frozen] = 0.0
        gphi[frozen] = 0.0
        return gv, gphi

    def pg_norm(v, phi):
        gv, gphi = gradient(v, phi)
        return max(np.abs(solver._projected(v, gv, 0.0, v_hi)).max(),
                   np.abs(solver._projected(phi, gphi, 0.0, np.pi)).max())

    def curvature(v, phi, which):
        """Tridiagonal model of one block; the penalty adds the columns
        sqrt(mu) * grad(c) as a low-rank term."""
        c1, c2 = constraints(v, phi)
        q1 = lam1 + mu * c1
        q2 = lam2 + mu * c2
        cos_phi = np.cos(phi)
        sin_phi = np.sin(phi)
        kin = np.zeros(v.size)
        if which == "v":
            dphi2 = np.diff(phi) ** 2
            kin[:-1] += eta_mid2 / h
            kin[1:] += eta_mid2 / h
            off = -eta_mid2 / h
            # angle-kinetic curvature in v: per-cell squared linear form
            a = e2 / (16.0 * h)
            kin[:-1] += a[:-1] * dphi2
            kin[1:] += a[1:] * dphi2
            off = off + (e[:-1] * e[1:]) * dphi2 / (16.0 * h)
            pot = eps * (
                h / eps**2 * w * e4 * (3.0 * v * v - 1.0)
                + 1.5 * beta * h / eps**2 * w * e4 * v * v * sin_phi**2
            )
            pot += 2.0 * h * w * e2 * (q1 + q2 * cos_phi)
            cols = (
                math.sqrt(mu) * 2.0 * h * w * e2 * v,
                math.sqrt(mu) * 2.0 * h * w * e2 * v * cos_phi,
            )
        else:
            ev = e * v
            a = (0.5 * (ev[:-1] + ev[1:])) ** 2 / (4.0 * h)
            kin[:-1] += a
            kin[1:] += a
            off = -a
            pot = eps * (beta * h / (4.0 * eps**2) * w * e4 * v**4 * np.cos(2.0 * phi))
            pot -= q2 * h * w * e2 * v * v * cos_phi
            cols = (-math.sqrt(mu) * h * w * e2 * v * v * sin_phi,)
        return eps * kin, eps * off, pot, cols

    def newton_block(v, phi, which, tol, max_steps):
        if which == "v":
            v, _ = solver.projected_newton(
                v, 0.0, v_hi, frozen,
                lambda x: objective(x, phi), lambda x: gradient(x, phi)[0],
                lambda x: curvature(x, phi, "v"), tol, max_steps,
            )
        else:
            phi, _ = solver.projected_newton(
                phi, 0.0, np.pi, frozen,
                lambda x: objective(v, x), lambda x: gradient(v, x)[1],
                lambda x: curvature(v, x, "phi"), tol, max_steps,
            )
        return v, phi

    def inner_minimize(v, phi, tol):
        for _ in range(40):
            v, phi = newton_block(v, phi, "phi", 0.5 * tol, 20)
            v, phi = newton_block(v, phi, "v", 0.5 * tol, 20)
            if pg_norm(v, phi) <= tol:
                break
        return v, phi

    for stage in range(stages):
        tol_stage = max(inner_tol, 1e-4 * 10.0 ** (-stage))
        for _ in range(multiplier_updates):
            v, phi = inner_minimize(v, phi, tol_stage)
            c1, c2 = constraints(v, phi)
            lam1 += mu * c1
            lam2 += mu * c2
        mu *= 10.0

    scaled = eps * weighted_pair_energy(v, phi, eps, beta, eta).total
    c1, c2 = _mass_terms(v, phi, eta)
    return GammaRow(
        eps=eps,
        beta=beta,
        scaled_energy=scaled,
        limit_energy=limit_energy,
        gap=scaled - limit_energy,
        mass_res_1=abs(c1 - 1.0),
        mass_res_2=abs(c2 - target2),
        v=v,
        phi=phi,
        eta=eta,
    )


def gamma_table(
    eps_list,
    beta: float,
    alpha1: float = 0.5,
    sigma: float | None = None,
    **kwargs,
) -> list[GammaRow]:
    """One constrained solve per eps, warm-started from the previous row.

    ``eps_list`` must be decreasing with every entry at most 0.1.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e > 0.1 for e in eps_list):
        raise ValueError("eps values above 0.1 are outside the validated regime")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if sigma is None:
        sigma = solver.solve(beta).sigma
    rows: list[GammaRow] = []
    prev: GammaRow | None = None
    for eps in eps_list:
        eta = solve_ground_state(eps)
        start = None
        if prev is not None:
            x_new = eta.grid.nodes
            x_old = prev.eta.grid.nodes
            start = (
                np.interp(x_new, x_old, prev.v),
                np.interp(x_new, x_old, prev.phi),
            )
        row = minimize_weighted_pair(
            eps, beta, alpha1=alpha1, sigma=sigma, eta=eta, start=start, **kwargs
        )
        rows.append(row)
        prev = row
    return rows


def gamma_csv_rows(rows) -> list[dict]:
    return [
        {
            "eps": r.eps,
            "beta": r.beta,
            "scaled_energy": r.scaled_energy,
            "limit_energy": r.limit_energy,
            "gap": r.gap,
            "mass_res_1": r.mass_res_1,
            "mass_res_2": r.mass_res_2,
        }
        for r in rows
    ]
