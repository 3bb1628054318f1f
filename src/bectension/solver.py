"""Discrete 1D transition-energy minimizer.

The energy of a pair (v, phi) on a truncated grid is

    (1/2) int  v'^2 + W(v) + (1/4) v^2 phi'^2 + (beta/4) v^4 sin^2(phi),
    W(v) = (1/2)(1 - v^2)^2,

with v in [0,1], phi in [0,pi], v(+-L)=1, phi(-L)=0, phi(L)=pi.
Derivatives are forward differences on cells, potentials trapezoid sums;
the gradient below is the exact gradient of that discrete functional.

The minimizer starts from the optimal plateau test pair and alternates two
blocks of damped projected Newton: on phi at fixed v and on v at fixed phi,
each a strictly convex subproblem after the classical substitutions sin(phi)
and v^2.  Every Newton step solves one banded system (boundary rows pinned)
and backtracks along the projected arc, falling back to -P grad E when the
Newton direction does not descend; energy never increases across a
half-step.  ``banded_solve`` and ``projected_newton`` are the kernel the
constrained pair solve of ``gp_validation`` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from . import analytic
from .grid import Grid1D, ProfilePair


@dataclass(frozen=True)
class EnergyBreakdown:
    """The four energy terms (global 1/2 prefactor included) and their sum."""

    kinetic_v: float
    double_well: float
    kinetic_phi: float
    coupling: float

    @property
    def total(self) -> float:
        return self.kinetic_v + self.double_well + self.kinetic_phi + self.coupling


@dataclass
class SolverConfig:
    half_width: float | None = None       # grid override; default depends on beta
    n_points: int | None = None           # grid override
    spacing: float | None = None          # grid override (target; actual h <= this)
    grad_tol: float = 1e-8                # max-norm of the projected gradient
    max_iterations: int = 200_000         # budget of Newton half-steps

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class SurfaceTensionResult:
    beta: float
    sigma: float
    inf_v: float
    argmin_v: float                        # node location of the dip
    el_residual_v: float
    el_residual_phi: float
    equipartition_l2: float
    iterations: int                        # Newton half-steps
    grid: Grid1D
    pair: ProfilePair = field(repr=False)


class ConvergenceError(RuntimeError):
    """Raised when the iteration budget is exhausted; carries the best state."""

    def __init__(self, message: str, result: SurfaceTensionResult):
        super().__init__(message)
        self.result = result


def default_grid(beta: float) -> Grid1D:
    """Grid policy: L = max(20, 10/sqrt(min(beta,1))), h resolving the dip.

    The angle transition widens like 1/sqrt(beta) as beta -> 0; the
    amplitude dip narrows like beta^(-1/4) as beta -> infinity.
    """
    half_width = max(20.0, 10.0 / math.sqrt(min(beta, 1.0)))
    spacing = 0.01 if beta <= 1.0 else min(0.01, beta ** -0.25 / 20.0)
    return Grid1D.from_spacing(half_width, spacing)


# ---------------------------------------------------------------------------
# discrete energy and its exact gradient
# ---------------------------------------------------------------------------

def _energy_terms(v, phi, beta, h, w):
    dv = np.diff(v)
    dphi = np.diff(phi)
    v2 = v * v
    s2 = np.sin(phi) ** 2
    e_kv = dv @ dv / (2.0 * h)
    e_dw = 0.25 * h * np.sum(w * (1.0 - v2) ** 2)
    e_kphi = np.sum((v2[:-1] + v2[1:]) * dphi * dphi) / (16.0 * h)
    e_coup = beta * h / 8.0 * np.sum(w * v2 * v2 * s2)
    return e_kv, e_dw, e_kphi, e_coup


def _energy(v, phi, beta, h, w) -> float:
    e_kv, e_dw, e_kphi, e_coup = _energy_terms(v, phi, beta, h, w)
    return e_kv + e_dw + e_kphi + e_coup


def _gradient(v, phi, beta, h, w):
    dv = np.diff(v)
    dphi = np.diff(phi)
    v2 = v * v
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)

    gv = np.zeros_like(v)
    gv[:-1] -= dv / h
    gv[1:] += dv / h
    gv -= h * w * v * (1.0 - v2)
    dphi2 = dphi * dphi
    gv[:-1] += v[:-1] * dphi2 / (8.0 * h)
    gv[1:] += v[1:] * dphi2 / (8.0 * h)
    gv += 0.5 * beta * h * w * v * v2 * sin_phi * sin_phi

    gphi = np.zeros_like(phi)
    flux = (v2[:-1] + v2[1:]) * dphi / (8.0 * h)
    gphi[:-1] -= flux
    gphi[1:] += flux
    gphi += 0.25 * beta * h * w * v2 * v2 * sin_phi * cos_phi
    return gv, gphi


def discrete_energy(pair: ProfilePair, beta: float) -> EnergyBreakdown:
    """Energy terms of the pair; exact for the stated quadrature."""
    beta = _check_beta(beta)
    grid = pair.grid
    e_kv, e_dw, e_kphi, e_coup = _energy_terms(
        pair.v, pair.phi, beta, grid.spacing, grid.trapezoid_weights()
    )
    return EnergyBreakdown(e_kv, e_dw, e_kphi, e_coup)


def discrete_gradient(pair: ProfilePair, beta: float):
    """Exact gradient of the discrete energy; pinned boundary entries are zero."""
    beta = _check_beta(beta)
    grid = pair.grid
    gv, gphi = _gradient(pair.v, pair.phi, beta, grid.spacing, grid.trapezoid_weights())
    gv[0] = gv[-1] = 0.0
    gphi[0] = gphi[-1] = 0.0
    return gv, gphi


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


def _projected(x, g, lo, hi):
    """Gradient with the components pushing out of the box [lo, hi] removed."""
    return np.where(x <= lo, np.minimum(g, 0.0), np.where(x >= hi, np.maximum(g, 0.0), g))


def _projected_gradient_norm(v, phi, gv, gphi) -> float:
    return max(np.abs(_projected(v, gv, 0.0, 1.0)).max(),
               np.abs(_projected(phi, gphi, 0.0, np.pi)).max())


# ---------------------------------------------------------------------------
# banded projected Newton (shared with gp_validation)
# ---------------------------------------------------------------------------

def banded_solve(diag, off, fixed, *columns):
    """Solve the symmetric tridiagonal system (diag, off) for every column.

    Rows in ``fixed`` are pinned: they decouple from their neighbours and
    their solution entries are zero.  All columns share one factorization;
    the result has one column per right-hand side.
    """
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = np.where(fixed[:-1] | fixed[1:], 0.0, off)
    ab[1] = np.where(fixed, 1.0, diag)
    ab[2, :-1] = ab[0, 1:]
    rhs = np.column_stack(columns)
    rhs[fixed] = 0.0
    return solve_banded((1, 1), ab, rhs)


def projected_newton(x, lo, hi, fixed, energy, gradient, curvature, tol, max_steps):
    """Projected damped Newton on one field in the box [lo, hi]; returns (x, steps).

    ``energy(x)`` and ``gradient(x)`` evaluate the objective with every other
    field held fixed.  ``curvature(x)`` returns the model ``(kin, off, pot,
    cols)``: a tridiagonal part (diagonal ``kin + pot``, off-diagonal
    ``off``) whose potential diagonal ``pot`` is shifted until it is
    nonnegative on the free rows, so the model stays positive definite, plus
    low-rank columns U adding U U^T, folded in by a Woodbury correction.
    Rows in ``fixed`` never move.  Nodes resting on a box bound stay in the
    system so one step can detach whole flat regions; the projected arc and
    the Armijo search take care of any step component leaving the box, with
    -P grad E as the fallback direction.  The energy never increases.
    """
    value = energy(x)
    free = ~fixed
    steps = 0
    for _ in range(max_steps):
        g = np.where(fixed, 0.0, gradient(x))
        pg = _projected(x, g, lo, hi)
        if np.abs(pg).max() <= tol:
            break
        steps += 1

        kin, off, pot, cols = curvature(x)
        shift = max(0.0, -pot[free].min()) if free.any() else 0.0
        Z = banded_solve(kin + pot + shift, off, fixed, -g, *cols)
        d = Z[:, 0]
        if cols:  # pinned rows of Z are zero, so U needs no masking there
            U, ZU = np.column_stack(cols), Z[:, 1:]
            d = d - ZU @ np.linalg.solve(np.eye(len(cols)) + U.T @ ZU, U.T @ d)

        slope = g @ d
        if not np.isfinite(slope) or slope >= 0.0:
            d = -pg
            slope = g @ d
        alpha = 1.0
        while True:
            x_new = np.clip(x + alpha * d, lo, hi)
            x_new[fixed] = x[fixed]
            value_new = energy(x_new)
            if value_new <= value + 1e-4 * alpha * slope or alpha < 1e-16:
                break
            alpha *= 0.5
        if value_new > value:  # stalled at machine precision; stay monotone
            break
        x, value = x_new, value_new
    return x, steps


# ---------------------------------------------------------------------------
# alternating convex refinement
# ---------------------------------------------------------------------------

def _newton_block(v, phi, beta, h, w, which, tol, max_steps):
    """Projected Newton on one field at the other fixed; returns (v, phi, steps).

    The subproblem is strictly convex after the substitutions sin(phi)
    (angle block) and v^2 (amplitude block); the iteration runs in the
    original variables on the shifted tridiagonal model of the kernel.
    """
    n = v.size
    fixed = np.zeros(n, dtype=bool)
    fixed[0] = fixed[-1] = True
    if which == "v":
        dphi2 = np.diff(phi) ** 2
        s2 = np.sin(phi) ** 2

        def curvature(x):
            x2 = x * x
            pot = h * w * (3.0 * x2 - 1.0)
            pot[:-1] += dphi2 / (8.0 * h)
            pot[1:] += dphi2 / (8.0 * h)
            pot += 1.5 * beta * h * w * x2 * s2
            return np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h), pot, ()

        v, steps = projected_newton(
            v, 0.0, 1.0, fixed,
            lambda x: _energy(x, phi, beta, h, w),
            lambda x: _gradient(x, phi, beta, h, w)[0],
            curvature, tol, max_steps,
        )
    else:
        v2 = v * v
        a = (v2[:-1] + v2[1:]) / (8.0 * h)
        kin = np.zeros(n)
        kin[:-1] += a
        kin[1:] += a

        def curvature(x):
            return kin, -a, 0.25 * beta * h * w * v2 * v2 * np.cos(2.0 * x), ()

        phi, steps = projected_newton(
            phi, 0.0, np.pi, fixed,
            lambda x: _energy(v, x, beta, h, w),
            lambda x: _gradient(v, x, beta, h, w)[1],
            curvature, tol, max_steps,
        )
    return v, phi, steps


def alternating_refine(
    pair: ProfilePair,
    beta: float,
    grad_tol: float = 1e-8,
    max_steps: int = 200_000,
) -> tuple[ProfilePair, int]:
    """Alternate the two convex block subproblems until joint stationarity.

    Returns the refined pair and the number of Newton half-steps taken, at
    most ``max_steps``.  Refuses pairs whose amplitude touches 0 (the angle
    substitution degenerates there).
    """
    beta = _check_beta(beta)
    if pair.v.min() <= 0.0:
        raise ValueError("v touches 0; refine is only valid for v bounded away from 0")
    grid = pair.grid
    h, w = grid.spacing, grid.trapezoid_weights()
    v, phi = pair.v.copy(), pair.phi.copy()
    block_tol = 0.25 * grad_tol
    total_steps = 0
    while total_steps < max_steps:
        v, phi, s1 = _newton_block(v, phi, beta, h, w, "phi", block_tol,
                                   min(40, max_steps - total_steps))
        total_steps += s1
        v, phi, s2 = _newton_block(v, phi, beta, h, w, "v", block_tol,
                                   min(40, max_steps - total_steps))
        total_steps += s2
        gv, gphi = _gradient(v, phi, beta, h, w)
        gv[0] = gv[-1] = 0.0
        gphi[0] = gphi[-1] = 0.0
        if _projected_gradient_norm(v, phi, gv, gphi) <= grad_tol:
            break
        if s1 == 0 and s2 == 0:
            break
    return ProfilePair(grid, v, phi), total_steps


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def el_residual(pair: ProfilePair, beta: float) -> tuple[float, float]:
    """Max-norm of the two stationarity equations over interior nodes.

      -v'' - (1-v^2) v + (1/4) v phi'^2 + (beta/2) v^3 sin^2(phi) = 0
      -(v^2 phi')' + beta v^4 sin(phi) cos(phi) = 0
    """
    beta = _check_beta(beta)
    v, phi, h = pair.v, pair.phi, pair.grid.spacing
    v_i = v[1:-1]
    phi_i = phi[1:-1]
    lap_v = (v[2:] - 2.0 * v_i + v[:-2]) / h**2
    dphi_c = (phi[2:] - phi[:-2]) / (2.0 * h)
    res_v = (
        -lap_v
        - (1.0 - v_i**2) * v_i
        + 0.25 * v_i * dphi_c**2
        + 0.5 * beta * v_i**3 * np.sin(phi_i) ** 2
    )
    v2 = v * v
    half = 0.5 * (v2[:-1] + v2[1:])
    flux = half * np.diff(phi) / h
    res_phi = -(flux[1:] - flux[:-1]) / h + beta * v_i**4 * np.sin(phi_i) * np.cos(phi_i)
    return float(np.abs(res_v).max()), float(np.abs(res_phi).max())


def equipartition_residual(pair: ProfilePair, beta: float) -> float:
    """Discrete L2 norm of  v'^2 + (1/4) v^2 phi'^2 - W(v) - (beta/4) v^4 sin^2(phi).

    Derivatives follow the module policy (forward differences), so the
    residual of a converged minimizer is first order in the spacing.
    """
    beta = _check_beta(beta)
    v, phi, h = pair.v, pair.phi, pair.grid.spacing
    dv = np.diff(v) / h
    dphi = np.diff(phi) / h
    i = slice(1, pair.grid.n_points - 1)
    r = (
        dv[i] ** 2
        + 0.25 * v[i] ** 2 * dphi[i] ** 2
        - 0.5 * (1.0 - v[i] ** 2) ** 2
        - 0.25 * beta * v[i] ** 4 * np.sin(phi[i]) ** 2
    )
    return float(np.sqrt(h * np.sum(r * r)))


@dataclass(frozen=True)
class PairDiagnostics:
    inf_v: float
    argmin_v: float
    phi_monotone: bool
    v_symmetric_error: float
    phi_antisymmetric_error: float


def _crossing(pair: ProfilePair) -> float:
    """Location where phi first reaches pi/2, sub-cell by linear interpolation."""
    phi, t = pair.phi, pair.grid.nodes
    idx = np.nonzero(phi >= 0.5 * np.pi)[0]
    if idx.size == 0 or (idx[0] == 0 and phi[0] > 0.5 * np.pi):
        raise ValueError("phi does not cross pi/2 on the grid")
    k = int(idx[0])
    if phi[k] == 0.5 * np.pi or k == 0:
        return float(t[k])
    frac = (0.5 * np.pi - phi[k - 1]) / (phi[k] - phi[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))


def _argmin_node(v: np.ndarray) -> int:
    """Index of the dip; the middle node when the minimum is a plateau."""
    idx = np.flatnonzero(v == v.min())
    return int(idx[(idx.size - 1) // 2])


def diagnostics(pair: ProfilePair) -> PairDiagnostics:
    """Dip location, angle monotonicity and symmetry defects of a pair.

    Symmetry errors are max-norms of v(t)-v(-t) and phi(t)+phi(-t)-pi after
    re-centering the pair at its pi/2 crossing.
    """
    grid = pair.grid
    t = grid.nodes
    k = _argmin_node(pair.v)
    monotone = bool(np.all(np.diff(pair.phi) >= -1e-10))
    tc = _crossing(pair)
    span = grid.half_width - abs(tc)
    n_off = max(int(span / grid.spacing), 1)
    s = np.arange(n_off + 1) * grid.spacing
    v_plus = np.interp(tc + s, t, pair.v)
    v_minus = np.interp(tc - s, t, pair.v)
    phi_plus = np.interp(tc + s, t, pair.phi)
    phi_minus = np.interp(tc - s, t, pair.phi)
    return PairDiagnostics(
        inf_v=float(pair.v.min()),
        argmin_v=float(t[k]),
        phi_monotone=monotone,
        v_symmetric_error=float(np.abs(v_plus - v_minus).max()),
        phi_antisymmetric_error=float(np.abs(phi_plus + phi_minus - np.pi).max()),
    )


def _cell_energies(pair: ProfilePair, beta: float) -> np.ndarray:
    """Energy attributed to each cell (trapezoid potentials split per cell)."""
    v, phi, h = pair.v, pair.phi, pair.grid.spacing
    dv = np.diff(v)
    dphi = np.diff(phi)
    v2 = v * v
    pot = 0.25 * (1.0 - v2) ** 2 + beta / 8.0 * v2 * v2 * np.sin(phi) ** 2
    return (
        dv * dv / (2.0 * h)
        + (v2[:-1] + v2[1:]) * dphi * dphi / (16.0 * h)
        + 0.5 * h * (pot[:-1] + pot[1:])
    )


def symmetrize(pair: ProfilePair, beta: float = 1.0) -> ProfilePair:
    """Reflect the cheaper half of the pair across its pi/2 crossing.

    The output is centered: v is even and phi(-t) = pi - phi(t), with the
    crossing moved to t=0.  Its energy is at most the input energy up to the
    interpolation error O(h).
    """
    grid = pair.grid
    tc = _crossing(pair)
    cells = _cell_energies(pair, beta)
    t = grid.nodes
    left_frac = np.clip((tc - t[:-1]) / grid.spacing, 0.0, 1.0)
    e_left = float(np.sum(cells * left_frac))
    e_right = float(np.sum(cells * (1.0 - left_frac)))
    use_left = e_left <= e_right

    s = t  # centered coordinate of the output
    if use_left:
        v_half = np.interp(tc - np.abs(s), t, pair.v)
        phi_half = np.interp(tc - np.abs(s), t, pair.phi)
    else:
        v_half = np.interp(tc + np.abs(s), t, pair.v)
        phi_half = np.pi - np.interp(tc + np.abs(s), t, pair.phi)
    v_out = v_half
    phi_out = np.where(s <= 0.0, phi_half, np.pi - phi_half)
    # The center node sits exactly on the crossing.
    mid = grid.n_points // 2
    phi_out[mid] = 0.5 * np.pi
    v_out[0] = v_out[-1] = 1.0
    phi_out[0], phi_out[-1] = 0.0, np.pi
    return ProfilePair(grid, np.clip(v_out, 0.0, 1.0), np.clip(phi_out, 0.0, np.pi))


# ---------------------------------------------------------------------------
# top-level solve
# ---------------------------------------------------------------------------

def initial_pair(beta: float, grid: Grid1D) -> ProfilePair:
    """The optimal plateau test pair, the starting point of every solve."""
    m_bar, _ = analytic.minimize_plateau_objective(beta)
    T = analytic.optimal_plateau_halfwidth(m_bar, beta)
    return analytic.test_pair_fields(m_bar, T, grid)


def _result_from_pair(pair, beta, iterations) -> SurfaceTensionResult:
    sigma = discrete_energy(pair, beta).total
    res_v, res_phi = el_residual(pair, beta)
    k = _argmin_node(pair.v)
    return SurfaceTensionResult(
        beta=beta,
        sigma=float(sigma),
        inf_v=float(pair.v.min()),
        argmin_v=float(pair.grid.nodes[k]),
        el_residual_v=res_v,
        el_residual_phi=res_phi,
        equipartition_l2=equipartition_residual(pair, beta),
        iterations=iterations,
        grid=pair.grid,
        pair=pair,
    )


def solve(beta: float, config: SolverConfig | None = None) -> SurfaceTensionResult:
    """Minimize the transition energy at fixed beta and report diagnostics."""
    beta = _check_beta(beta)
    config = config or SolverConfig()

    if config.n_points is not None or config.half_width is not None or config.spacing is not None:
        base = default_grid(beta)
        half_width = config.half_width if config.half_width is not None else base.half_width
        if config.n_points is not None:
            grid = Grid1D(half_width, config.n_points)
        else:
            spacing = config.spacing if config.spacing is not None else base.spacing
            grid = Grid1D.from_spacing(half_width, spacing)
    else:
        grid = default_grid(beta)

    pair, steps = alternating_refine(
        initial_pair(beta, grid), beta,
        grad_tol=config.grad_tol, max_steps=config.max_iterations,
    )
    gv, gphi = discrete_gradient(pair, beta)
    pg = _projected_gradient_norm(pair.v, pair.phi, gv, gphi)
    result = _result_from_pair(pair, beta, steps)
    if pg > config.grad_tol:
        raise ConvergenceError(
            f"projected gradient {pg:.3e} above tolerance {config.grad_tol:.3e} "
            f"after {steps} Newton half-steps",
            result,
        )
    return result
