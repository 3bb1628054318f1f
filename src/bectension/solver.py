"""Discrete 1D transition-energy minimizer.

The energy of a pair (v, phi) on a truncated grid is

    (1/2) int  v'^2 + W(v) + (1/4) v^2 phi'^2 + (beta/4) v^4 sin^2(phi),
    W(v) = (1/2)(1 - v^2)^2,

with v in [0,1], phi in [0,pi], v(+-L)=1, phi(-L)=0, phi(L)=pi.  It is the
unit-weight case of ``PairEnergy``, whose ground-state-weighted case
``gp_validation`` minimizes; the gradient and the block curvature there are
exact for the discrete functional.

The minimizer starts from the optimal plateau test pair and alternates two
blocks of damped projected Newton: on phi at fixed v and on v at fixed phi,
each a strictly convex subproblem after the classical substitutions sin(phi)
and v^2.  Every Newton step solves one banded system (boundary rows pinned)
and backtracks along the projected arc, falling back to -P grad E when the
Newton direction does not descend; energy never increases across a
half-step.  ``alternating_newton`` is the driver both problems share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from . import analytic
from .grid import Grid1D, ProfilePair, require_positive


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
        if self.spacing is not None and self.n_points is not None:
            raise ValueError("set spacing or n_points, not both")
        require_positive("grad_tol", self.grad_tol)
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
# weighted pair energy, its exact gradient and block curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairEnergy:
    """The weighted pair energy at coupling ``beta`` on a grid of spacing ``h``:

        sum_cells  c dv^2 / (2h) + (n_i v_i^2 + n_{i+1} v_{i+1}^2) dphi^2 / (16h)
      + sum_nodes  h p ((1 - v^2)^2 / 4 + (beta/8) v^4 sin^2(phi))

    with cell weights c = ``cell``, node weights n = ``node`` and potential
    weights p = ``pot``.  ``unit`` (c = n = 1, p = trapezoid weights) gives
    the transition energy.  Averaging n v^2 over the two nodes of a cell
    keeps the energy linear in v^2 node by node.
    """

    beta: float
    h: float
    cell: np.ndarray
    node: np.ndarray
    pot: np.ndarray

    @classmethod
    def unit(cls, beta: float, grid: Grid1D) -> "PairEnergy":
        n = grid.n_points
        return cls(beta, grid.spacing, np.ones(n - 1), np.ones(n), grid.trapezoid_weights())

    def terms(self, v, phi) -> EnergyBreakdown:
        h = self.h
        dv = np.diff(v)
        dphi = np.diff(phi)
        v2 = v * v
        nv2 = self.node * v2
        return EnergyBreakdown(
            (self.cell * dv) @ dv / (2.0 * h),
            0.25 * h * np.sum(self.pot * (1.0 - v2) ** 2),
            np.sum((nv2[:-1] + nv2[1:]) * dphi * dphi) / (16.0 * h),
            self.beta * h / 8.0 * np.sum(self.pot * v2 * v2 * np.sin(phi) ** 2),
        )

    def energy(self, v, phi) -> float:
        return self.terms(v, phi).total

    def gradient(self, v, phi, block: str):
        """Exact gradient of one block (``"v"`` or ``"phi"``), pinned rows included."""
        h, beta, pot = self.h, self.beta, self.pot
        dphi = np.diff(phi)
        v2 = v * v
        sin_phi = np.sin(phi)
        g = np.zeros_like(v)
        if block == "v":
            flux = self.cell * np.diff(v) / h
            g[:-1] -= flux
            g[1:] += flux
            g -= h * pot * v * (1.0 - v2)
            nv = self.node * v
            dphi2 = dphi * dphi
            g[:-1] += nv[:-1] * dphi2 / (8.0 * h)
            g[1:] += nv[1:] * dphi2 / (8.0 * h)
            g += 0.5 * beta * h * pot * v * v2 * sin_phi * sin_phi
        else:
            nv2 = self.node * v2
            flux = (nv2[:-1] + nv2[1:]) * dphi / (8.0 * h)
            g[:-1] -= flux
            g[1:] += flux
            g += 0.25 * beta * h * pot * v2 * v2 * sin_phi * np.cos(phi)
        return g

    def curvature(self, v, phi, block: str):
        """Exact Hessian of one block as the kernel's model ``(kin, off, pot, ())``.

        Diagonal ``kin + pot``, off-diagonal ``off``.  The energy couples
        neighbouring nodes of one field only through that field's kinetic
        term, so the block Hessian is tridiagonal; ``pot`` holds every
        diagonal term that can turn negative, for the kernel's shift.
        """
        h, beta = self.h, self.beta
        v2 = v * v
        kin = np.zeros(v.size)
        if block == "v":
            a = self.cell / h
            pot = h * self.pot * (3.0 * v2 - 1.0)
            b = np.diff(phi) ** 2 / (8.0 * h)
            pot[:-1] += self.node[:-1] * b
            pot[1:] += self.node[1:] * b
            pot += 1.5 * beta * h * self.pot * v2 * np.sin(phi) ** 2
        else:
            nv2 = self.node * v2
            a = (nv2[:-1] + nv2[1:]) / (8.0 * h)
            pot = 0.25 * beta * h * self.pot * v2 * v2 * np.cos(2.0 * phi)
        kin[:-1] += a
        kin[1:] += a
        return kin, -a, pot, ()


def discrete_energy(pair: ProfilePair, beta: float) -> EnergyBreakdown:
    """Energy terms of the pair; exact for the stated quadrature."""
    beta = analytic._check_beta(beta)
    return PairEnergy.unit(beta, pair.grid).terms(pair.v, pair.phi)


def discrete_gradient(pair: ProfilePair, beta: float):
    """Exact gradient of the discrete energy; pinned boundary entries are zero."""
    beta = analytic._check_beta(beta)
    energy = PairEnergy.unit(beta, pair.grid)
    gv = energy.gradient(pair.v, pair.phi, "v")
    gphi = energy.gradient(pair.v, pair.phi, "phi")
    gv[0] = gv[-1] = 0.0
    gphi[0] = gphi[-1] = 0.0
    return gv, gphi


def _projected(x, g, lo, hi):
    """Gradient with the components pushing out of the box [lo, hi] removed."""
    return np.where(x <= lo, np.minimum(g, 0.0), np.where(x >= hi, np.maximum(g, 0.0), g))


def _projected_gradient_norm(v, phi, gv, gphi, v_hi: float = 1.0) -> float:
    return max(np.abs(_projected(v, gv, 0.0, v_hi)).max(),
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

BLOCK_STEPS = 40  # Newton steps per block and round


def alternating_newton(problem, v, phi, fixed, v_hi, tol, max_steps):
    """Alternate projected Newton on phi at fixed v and on v at fixed phi.

    ``problem`` supplies ``energy(v, phi)`` and, per block ``"v"`` or
    ``"phi"``, ``gradient(v, phi, block)`` and ``curvature(v, phi, block)``,
    the latter returning the model ``(kin, off, pot, cols)`` that
    ``projected_newton`` takes.  The boxes are [0, v_hi] and [0, pi];
    rows in ``fixed`` never move.  Each block takes at most BLOCK_STEPS
    steps towards a quarter of ``tol``.  The rounds stop when the max-norm of
    the projected gradient reaches ``tol``, when neither block moves, or when
    ``max_steps`` half-steps are spent.  Returns (v, phi, half_steps).
    """
    block_tol = 0.25 * tol
    steps = 0
    while steps < max_steps:
        phi, s_phi = projected_newton(
            phi, 0.0, np.pi, fixed,
            lambda x: problem.energy(v, x),
            lambda x: problem.gradient(v, x, "phi"),
            lambda x: problem.curvature(v, x, "phi"),
            block_tol, min(BLOCK_STEPS, max_steps - steps),
        )
        steps += s_phi
        v, s_v = projected_newton(
            v, 0.0, v_hi, fixed,
            lambda x: problem.energy(x, phi),
            lambda x: problem.gradient(x, phi, "v"),
            lambda x: problem.curvature(x, phi, "v"),
            block_tol, min(BLOCK_STEPS, max_steps - steps),
        )
        steps += s_v
        gv = np.where(fixed, 0.0, problem.gradient(v, phi, "v"))
        gphi = np.where(fixed, 0.0, problem.gradient(v, phi, "phi"))
        if _projected_gradient_norm(v, phi, gv, gphi, v_hi) <= tol:
            break
        if s_phi == 0 and s_v == 0:
            break
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
    beta = analytic._check_beta(beta)
    if pair.v.min() <= 0.0:
        raise ValueError("v touches 0; refine is only valid for v bounded away from 0")
    grid = pair.grid
    fixed = np.zeros(grid.n_points, dtype=bool)
    fixed[0] = fixed[-1] = True
    v, phi, steps = alternating_newton(
        PairEnergy.unit(beta, grid), pair.v.copy(), pair.phi.copy(), fixed, 1.0,
        grad_tol, max_steps,
    )
    return ProfilePair(grid, v, phi), steps


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def el_residual(pair: ProfilePair, beta: float) -> tuple[float, float]:
    """Max-norm of the two stationarity equations over interior nodes.

      -v'' - (1-v^2) v + (1/4) v phi'^2 + (beta/2) v^3 sin^2(phi) = 0
      -(v^2 phi')' + beta v^4 sin(phi) cos(phi) = 0
    """
    beta = analytic._check_beta(beta)
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
    beta = analytic._check_beta(beta)
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


def symmetrize(pair: ProfilePair, beta: float = 1.0) -> ProfilePair:
    """Reflect each half of the pair across its pi/2 crossing; keep the cheaper.

    The output is centered: v is even and phi(-t) = pi - phi(t), with the
    crossing moved to t=0.  Its energy at ``beta`` is at most the input
    energy up to the interpolation error O(h).
    """
    grid = pair.grid
    tc = _crossing(pair)
    t = grid.nodes
    reflections = []
    for side in (-1.0, 1.0):  # the left half first, so it wins a tie
        source = tc + side * np.abs(t)
        v_out = np.interp(source, t, pair.v)
        phi_left = np.interp(source, t, pair.phi)
        if side > 0.0:
            phi_left = np.pi - phi_left
        phi_out = np.where(t <= 0.0, phi_left, np.pi - phi_left)
        # The center node sits exactly on the crossing.
        phi_out[grid.n_points // 2] = 0.5 * np.pi
        v_out[0] = v_out[-1] = 1.0
        phi_out[0], phi_out[-1] = 0.0, np.pi
        reflections.append(
            ProfilePair(grid, np.clip(v_out, 0.0, 1.0), np.clip(phi_out, 0.0, np.pi)))
    return min(reflections, key=lambda r: discrete_energy(r, beta).total)


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
    beta = analytic._check_beta(beta)
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
