"""Discrete 1D transition-energy minimizer.

The energy of a pair (v, phi) on a truncated grid is

    (1/2) int  v'^2 + W(v) + (1/4) v^2 phi'^2 + (beta/4) v^4 sin^2(phi),
    W(v) = (1/2)(1 - v^2)^2,

with v in [0,1], phi in [0,pi], v(+-L)=1, phi(-L)=0, phi(L)=pi.  It is the
unit-weight case of ``PairEnergy``, whose ground-state-weighted case
``gp_validation`` minimizes; the gradient and the Hessian models there are
exact for the discrete functional.

The minimizer starts from the optimal plateau test pair and runs two phases
of damped projected Newton, both driven by ``projected_newton``:

* one round of the two convex blocks (``block_round``): phi at fixed v,
  then v at fixed phi, each strictly convex after the classical
  substitutions sin(phi) and v^2, each step one tridiagonal Cholesky;
* Newton on the interleaved pair (v_0, phi_0, v_1, phi_1, ...)
  (``joint_newton``), whose Hessian is a band of half-width 3, one banded
  Cholesky per step (both ``band_solve``).  v^2 phi'^2 is not jointly
  convex, so the band is shifted by tau I when the factorization fails.

The block round is cheap and safe far from the minimizer; at weak coupling
(beta <= 1e-3 on the default grids) it already meets the tolerance, and the
joint phase does not run.  Every step backtracks along the projected arc,
falling back to -P grad E when the Newton direction does not descend, so the
energy never increases.

The minimizer is even in v and odd about its crossing, phi(-t) = pi - phi(t),
so ``solve`` minimizes on the half line [0, L] (``half_line_problem``) and
reflects the result.  The half-line gradient at node 0 is half the full-line
one, so the stop norm counts node 0 twice.  ``alternating_refine``, the
reference path, runs joint Newton alone on the full line with the crossing
pinned, so it tests that symmetry instead of imposing it.

Each block step works on a block objective, ``PairEnergy.phi_block(v)`` or
``v_block(phi)``, which computes every factor of the frozen field once.  Only
a subexpression evaluated first in the two-field formula is hoisted (a whole
term, a left-associative prefix, an argument of sin or cos), so a block's
energy is the same float as ``PairEnergy.terms(v, phi).total`` and the value
carried from one block to the next is exact.  ``PairEnergy.joint()`` returns
the same gradients interleaved.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from . import analytic
from .grid import Grid1D, ProfilePair, odd_node_count, require_positive

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without running the ``scipy.linalg``
    package: with scipy 1.17 its ``__init__`` costs about 0.25 s and 25 MB
    per process (``scipy._lib._array_api`` imports numpy.f2py, numpy.testing
    and unittest), the extension itself a few ms.  It is left out of
    ``sys.modules``, so a later ``import scipy.linalg`` imports it as an
    attribute of its package; CPython keeps one copy of a single-phase
    extension, so that import hands out the same routine objects.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        base = os.path.join(os.path.dirname(scipy.origin), "linalg", "_flapack")
        path = next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)
        if path is None:
            raise ImportError(f"scipy's LAPACK extension not found: searched {base} with the "
                              f"suffixes {EXTENSION_SUFFIXES}", name=_FLAPACK, path=base)
        loader = ExtensionFileLoader(_FLAPACK, path)
        module = loader.create_module(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(module)
        # create_module registered it; drop that entry, so the first import of
        # scipy.linalg imports it again as an attribute of its package
        sys.modules.pop(_FLAPACK, None)
    return module


_flapack = _load_flapack()
# The band solvers of every Newton step; gp_validation binds dgbsv from here.
dptsv, dpbsv, dgbsv = _flapack.dptsv, _flapack.dpbsv, _flapack.dgbsv


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
    spacing: float | None = None          # grid override (target; actual h <= this)
    grad_tol: float = 1e-8                # max-norm of the projected gradient

    def __post_init__(self):
        require_positive("grad_tol", self.grad_tol)


@dataclass
class SurfaceTensionResult:
    beta: float
    sigma: float
    inf_v: float
    argmin_v: float                        # node location of the dip
    el_residual_v: float
    el_residual_phi: float
    equipartition_l2: float
    iterations: int                        # Newton steps of both phases
    joint_steps: int                       # of which joint (v, phi) steps
    bracket: analytic.SigmaBracket         # holds sigma when solve returns
    grid: Grid1D
    pair: ProfilePair = field(repr=False)


class ConvergenceError(RuntimeError):
    """Raised when an iteration budget is exhausted; ``result`` carries the last state.

    That state is a ``SurfaceTensionResult`` from ``solve``, a
    ``gp_validation.GroundState`` from the ground-state solve, or a
    ``gp_validation.GammaRow`` from the constrained pair solve.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


def default_grid_size(beta: float) -> tuple[float, int]:
    """Grid policy, as (L, n_points): L = max(20, 10/sqrt(min(beta,1))), h resolving the dip.

    The angle transition widens like 1/sqrt(beta) as beta -> 0; the
    amplitude dip narrows like beta^(-1/4) as beta -> infinity.
    """
    half_width = max(20.0, 10.0 / math.sqrt(min(beta, 1.0)))
    spacing = 0.01 if beta <= 1.0 else min(0.01, beta ** -0.25 / 20.0)
    return half_width, odd_node_count(half_width, spacing)


def default_grid(beta: float) -> Grid1D:
    """The grid of ``default_grid_size(beta)``."""
    return Grid1D(*default_grid_size(beta))


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

    def _v_terms(self, v):
        """kinetic_v, double_well, and the v factors of kinetic_phi and coupling."""
        h = self.h
        dv = np.diff(v)
        v2 = v * v
        nv2 = self.node * v2
        return (dot(self.cell * dv, dv) / (2.0 * h), 0.25 * h * np.sum(self.pot * (1.0 - v2) ** 2),
                nv2[:-1] + nv2[1:], self.pot * v2 * v2)

    def _terms(self, v_terms, dphi, sin2) -> EnergyBreakdown:
        kinetic_v, double_well, cells, quartic = v_terms
        return EnergyBreakdown(kinetic_v, double_well, np.sum(cells * dphi * dphi) / (16.0 * self.h),
                               self.beta * self.h / 8.0 * np.sum(quartic * sin2))

    def terms(self, v, phi) -> EnergyBreakdown:
        return self._terms(self._v_terms(v), np.diff(phi), np.sin(phi) ** 2)

    def phi_block(self, v) -> Block:
        """The energy in phi at frozen v.  ``curvature`` is the exact block
        Hessian, tridiagonal since neighbouring nodes of one field couple only
        through its kinetic term; ``pot`` holds every diagonal term that can
        turn negative, for the kernel's shift.
        """
        h = self.h
        v_terms = self._v_terms(v)
        v2 = v * v
        force = 0.25 * self.beta * h * self.pot * v2 * v2

        def energy(phi):
            return self._terms(v_terms, np.diff(phi), np.sin(phi) ** 2).total

        def gradient(phi):
            flux = v_terms[2] * np.diff(phi) / (8.0 * h)
            g = _scatter(np.zeros(phi.size), -flux, flux)
            g += force * np.sin(phi) * np.cos(phi)
            return g

        def curvature(phi):
            a = v_terms[2] / (8.0 * h)
            return _scatter(np.zeros(phi.size), a, a), -a, force * np.cos(2.0 * phi)

        return Block(energy, gradient, curvature)

    def v_block(self, phi) -> Block:
        """The energy in v at frozen phi; as ``phi_block``."""
        h, beta, pot = self.h, self.beta, self.pot
        dphi = np.diff(phi)
        dphi2 = dphi * dphi
        sin_phi = np.sin(phi)
        sin2 = sin_phi ** 2
        a = self.cell / h

        def energy(v):
            return self._terms(self._v_terms(v), dphi, sin2).total

        def gradient(v):
            v2 = v * v
            flux = self.cell * np.diff(v) / h
            g = _scatter(np.zeros(v.size), -flux, flux)
            g -= h * pot * v * (1.0 - v2)
            nv = self.node * v
            _scatter(g, nv[:-1] * dphi2 / (8.0 * h), nv[1:] * dphi2 / (8.0 * h))
            g += 0.5 * beta * h * pot * v * v2 * sin_phi * sin_phi
            return g

        def curvature(v):
            v2 = v * v
            diag = h * pot * (3.0 * v2 - 1.0)
            b = dphi2 / (8.0 * h)
            _scatter(diag, self.node[:-1] * b, self.node[1:] * b)
            diag += 1.5 * beta * h * pot * v2 * sin2
            return _scatter(np.zeros(v.size), a, a), -a, diag

        return Block(energy, gradient, curvature)

    def joint(self) -> Block:
        """The energy of the interleaved pair x = (v_0, phi_0, v_1, phi_1, ...).

        ``gradient`` is the two block gradients interleaved, float for float.
        ``curvature`` is the exact Hessian, a symmetric band of half-width 3
        in LAPACK lower storage (``ab[k, j]`` = H[j + k, j]), solved by
        ``band_newton``: the block curvatures on the v and phi rows, and the
        mixed block d2E/dv_i dphi_j, nonzero for |i - j| <= 1,

            j = i + 1:  n_i v_i dphi_i / (4h),
            j = i - 1:  -n_i v_i dphi_{i-1} / (4h),
            j = i:      n_i v_i (dphi_{i-1} - dphi_i) / (4h)
                        + beta h p_i v_i^3 sin(phi_i) cos(phi_i),

        with dphi_i = phi_{i+1} - phi_i and dphi = 0 beyond the ends.
        """

        def energy(x):
            return self.terms(x[0::2], x[1::2]).total

        def gradient(x):
            v, phi = x[0::2], x[1::2]
            return _interleave(self.v_block(phi).gradient(v), self.phi_block(v).gradient(phi))

        def curvature(x):
            v, phi = x[0::2], x[1::2]
            ab = np.zeros((4, x.size), order="F")
            blocks = (self.v_block(phi).curvature(v), self.phi_block(v).curvature(phi))
            for k, (kin, off, pot) in enumerate(blocks):
                ab[0, k::2] = kin + pot
                ab[2, k:-2:2] = off
            dphi = np.diff(phi)
            q = self.node * v / (4.0 * self.h)
            ab[1, 0::2] = (q * _scatter(np.zeros(v.size), -dphi, dphi)
                           + self.beta * self.h * self.pot * v ** 3 * np.sin(phi) * np.cos(phi))
            ab[1, 1:-1:2] = -q[1:] * dphi
            ab[3, 0:-2:2] = q[:-1] * dphi
            return ab

        return Block(energy, gradient, curvature, band_newton)


def _scatter(x, left, right):
    """Add ``left`` and ``right`` to the left and right node of each cell of ``x``."""
    x[:-1] += left
    x[1:] += right
    return x


def discrete_energy(pair: ProfilePair, beta: float) -> EnergyBreakdown:
    """Energy terms of the pair; exact for the stated quadrature."""
    beta = analytic._check_beta(beta)
    return PairEnergy.unit(beta, pair.grid).terms(pair.v, pair.phi)


def discrete_gradient(pair: ProfilePair, beta: float):
    """Exact gradient of the discrete energy; pinned boundary entries are zero."""
    beta = analytic._check_beta(beta)
    energy = PairEnergy.unit(beta, pair.grid)
    gv = energy.v_block(pair.phi).gradient(pair.v)
    gphi = energy.phi_block(pair.v).gradient(pair.phi)
    gv[0] = gv[-1] = 0.0
    gphi[0] = gphi[-1] = 0.0
    return gv, gphi


def _projected(x, g, lo, hi):
    """Gradient with the components pushing out of the box [lo, hi] removed."""
    return np.where(x <= lo, np.minimum(g, 0.0), np.where(x >= hi, np.maximum(g, 0.0), g))


def _projected_gradient_norm(v, phi, gv, gphi) -> float:
    """Max-norm of the projected gradient of a half-line pair; node 0 counts twice."""
    pv, pphi = _projected(v, gv, 0.0, 1.0), _projected(phi, gphi, 0.0, np.pi)
    pv[0] *= 2.0
    pphi[0] *= 2.0
    return max(np.abs(pv).max(), np.abs(pphi).max())


# ---------------------------------------------------------------------------
# banded projected Newton; gp_validation's ground state uses ``band_solve``
# and its constrained pair ``pin_band``
# ---------------------------------------------------------------------------

def pin_band(ab, fixed):
    """Decouple the rows in ``fixed`` of a symmetric band in LAPACK lower
    storage, in place: a unit diagonal and no coupling to their neighbours.
    """
    pinned = np.flatnonzero(fixed)
    ab[1:, pinned] = 0.0
    for k in range(1, ab.shape[0]):
        ab[k, pinned[pinned >= k] - k] = 0.0
    ab[0, pinned] = 1.0
    return ab


def band_solve(ab, fixed, *columns):
    """Solve the symmetric positive-definite band ``ab`` (LAPACK lower
    storage) for every column; the result has one column per right-hand side.

    Rows in ``fixed`` are pinned (``pin_band``) and their solution entries
    are zero.  All columns share one Cholesky factorization that overwrites
    ``ab``: ``ptsv`` for two rows, ``pbsv`` (Fortran order) for more.  A band
    that is not positive definite raises ``LinAlgError`` and a non-finite
    solution ``ValueError``, so a NaN in the system never reaches the line search.
    """
    pin_band(ab, fixed)
    rhs = np.array(columns).T  # Fortran order, so LAPACK solves in place
    rhs[fixed] = 0.0
    if ab.shape[0] == 2:
        _, _, x, info = dptsv(ab[0], ab[1, :-1], rhs, True, True, True)
    else:
        _, x, info = dpbsv(ab, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("band is not positive definite")
    if not np.isfinite(x).all():
        raise ValueError("band model has a non-finite solution")
    return x


def tridiagonal_newton(curvature, x, fixed, g):
    """Newton direction of a block model: ``curvature(x)`` returns
    ``(kin, off, pot)``, a tridiagonal matrix (diagonal ``kin + pot``,
    off-diagonal ``off``) whose potential diagonal ``pot`` is shifted until
    it is nonnegative on the free rows, so the model stays positive definite.
    """
    kin, off, pot = curvature(x)
    free = ~fixed
    shift = max(0.0, -pot[free].min()) if free.any() else 0.0
    ab = np.zeros((2, x.size))
    ab[0], ab[1, :-1] = kin + pot + shift, off
    return band_solve(ab, fixed, -g)[:, 0]


def band_newton(curvature, x, fixed, g):
    """Newton direction of a banded model: ``curvature(x)`` returns a fresh
    symmetric band in LAPACK lower storage (``ab[k, j]`` = H[j + k, j]).

    Rows in ``fixed`` decouple and their entries of the direction are zero.
    ``band_solve`` factors the band in place.  If it is not positive
    definite, the band is rebuilt with tau I added on the free rows, tau
    growing from ``-min(diag) + b`` (or ``b`` when the diagonal is positive)
    by doubling, with b = 1e-3 max|diag| (Nocedal & Wright, Alg. 3.3).  A
    non-finite band or direction raises ``ValueError``.
    """
    free = ~fixed
    ab, tau = curvature(x), 0.0
    while True:
        try:
            return band_solve(ab, fixed, -g)[:, 0]
        except np.linalg.LinAlgError:
            pass
        ab = curvature(x)  # the failed factorization overwrote it
        if tau == 0.0:
            if not np.isfinite(ab).all():
                raise ValueError("band model has a non-finite entry")
            diag = ab[0, free]
            tau = (1e-3 * np.abs(diag).max() or 1e-3) - min(diag.min(), 0.0)
        else:
            tau *= 2.0
        ab[0, free] += tau


# An objective for ``projected_newton``: the energy, its gradient (pinned
# rows included), the Hessian model, and how that model yields a step.
Block = namedtuple("Block", "energy gradient curvature newton", defaults=(tridiagonal_newton,))


def dot(a, b) -> float:
    """a . b of two 1-D arrays, summed on the calling thread (``einsum``, no
    BLAS): OpenBLAS splits a dot product above 10 000 entries over its worker
    threads, which then spin on the other cores for a while after the call."""
    return float(np.einsum("i,i->", a, b))


def arc_search(merit, value, x, d, g, lo, hi, fixed):
    """Backtrack along the projected arc P(x + alpha d), alpha = 1, 1/2, ...
    down to 1e-16, until ``merit`` passes the Armijo test against ``value``,
    its value at ``x``; -P ``g``, the projected gradient of the merit,
    replaces a ``d`` that does not descend.  Returns the last trial point and
    its merit."""
    slope = dot(g, d)
    if not np.isfinite(slope) or slope >= 0.0:
        d = -_projected(x, g, lo, hi)
        slope = dot(g, d)
    alpha = 1.0
    while True:
        x_new = np.clip(x + alpha * d, lo, hi)
        x_new[fixed] = x[fixed]
        value_new = merit(x_new)
        if value_new <= value + 1e-4 * alpha * slope or alpha < 1e-16:
            return x_new, value_new
        alpha *= 0.5


def projected_newton(x, lo, hi, fixed, objective, tol, max_steps, value=None, g=None):
    """Projected damped Newton in the box [lo, hi].

    ``objective`` is a ``Block``: one field with the others frozen (see
    ``PairEnergy.phi_block``, solved by ``tridiagonal_newton``) or the
    interleaved pair (``PairEnergy.joint``, solved by ``band_newton``).
    ``lo``, ``hi`` and ``tol`` are scalars or one entry per row; the loop
    stops when every projected-gradient entry is within its ``tol``.  Rows
    in ``fixed`` never move.  Nodes resting on a box bound stay in the
    system so one step can detach whole flat regions; ``arc_search`` takes
    care of any step component leaving the box.  The energy never increases.
    The loop stops as a stall at machine precision when no step length
    lowers the energy, or when a step left the energy unchanged and the
    max-norm of the projected gradient did not fall below its least value
    since the energy last fell.

    ``value`` and ``g`` (pinned rows zeroed) are the energy and gradient at
    ``x`` when the caller has them.  Returns ``(x, steps, value, g)``: ``g``
    is the gradient at the returned ``x`` when the loop stopped on it
    (tolerance or stall) and None when the last step moved ``x``.
    """
    if value is None:
        value = objective.energy(x)
    steps = 0
    least = math.inf  # least max|P grad E| since the energy last fell
    for _ in range(max_steps):
        if g is None:
            g = np.where(fixed, 0.0, objective.gradient(x))
        pg = _projected(x, g, lo, hi)
        size = np.abs(pg)
        if (size <= tol).all():
            break
        norm = size.max()
        if norm >= least:  # an equal-energy step that did not lower the gradient
            break
        steps += 1

        d = objective.newton(objective.curvature, x, fixed, g)
        x_new, value_new = arc_search(objective.energy, value, x, d, g, lo, hi, fixed)
        if value_new > value:  # stalled at machine precision; stay monotone
            break
        least = min(least, norm) if value_new == value else math.inf
        x, value, g = x_new, value_new, None
    return x, steps, value, g


# ---------------------------------------------------------------------------
# the two Newton drivers: one block round, joint Newton
# ---------------------------------------------------------------------------

BLOCK_STEPS = 40          # Newton steps per block
MAX_HALF_STEPS = 200_000  # budget of Newton steps (block and joint) of one unit solve


def block_round(problem, v, phi, fixed_v, fixed_phi, tol):
    """One round of the two convex blocks: projected Newton on phi at fixed v,
    then on v at fixed phi (``problem.phi_block``, ``v_block``), in the boxes
    [0, pi] and [0, 1]; rows in ``fixed_phi`` and ``fixed_v`` never move.
    Each block takes at most BLOCK_STEPS steps, both at most MAX_HALF_STEPS,
    towards a quarter of ``tol``; the v block starts from the energy the phi
    block stopped at.  Returns what ``joint_newton`` returns.
    """
    block_tol = 0.25 * tol
    phi_block = problem.phi_block(v)
    phi, s_phi, value, _ = projected_newton(phi, 0.0, np.pi, fixed_phi, phi_block, block_tol,
                                            min(BLOCK_STEPS, MAX_HALF_STEPS))
    del phi_block  # one block's arrays alive at a time
    v_block = problem.v_block(phi)
    v, s_v, _, gv = projected_newton(v, 0.0, 1.0, fixed_v, v_block, block_tol,
                                     min(BLOCK_STEPS, MAX_HALF_STEPS - s_phi), value)
    if gv is None:
        gv = np.where(fixed_v, 0.0, v_block.gradient(v))
    del v_block
    gphi = np.where(fixed_phi, 0.0, problem.phi_block(v).gradient(phi))
    return v, phi, s_phi + s_v, _projected_gradient_norm(v, phi, gv, gphi)


def _interleave(a, b):
    return np.column_stack((a, b)).ravel()


def joint_newton(problem, v, phi, fixed_v, fixed_phi, tol, max_steps):
    """Projected Newton on the interleaved pair (v_0, phi_0, v_1, phi_1, ...),
    the objective ``problem.joint()``, in the box [0, 1] x [0, pi].  The stop
    norm is ``_projected_gradient_norm``: node 0 counts twice, so its rows stop
    at half of ``tol``; on a full line node 0 is pinned, and that norm is the
    full-line one.  Returns (v, phi, steps, final projected-gradient norm).
    """
    n = v.size
    tols = np.full(2 * n, tol)
    tols[:2] = 0.5 * tol  # |2 g_0| <= tol, exactly
    objective = problem.joint()
    fixed = _interleave(fixed_v, fixed_phi)
    x, steps, _, g = projected_newton(_interleave(v, phi), 0.0,
                                      _interleave(np.ones(n), np.full(n, np.pi)),
                                      fixed, objective, tols, max_steps)
    if g is None:
        g = np.where(fixed, 0.0, objective.gradient(x))
    v, phi = x[0::2], x[1::2]
    return v, phi, steps, _projected_gradient_norm(v, phi, g[0::2], g[1::2])


def alternating_refine(
    pair: ProfilePair,
    beta: float,
    grad_tol: float = 1e-8,
) -> tuple[ProfilePair, int]:
    """The reference path: joint Newton on the full line, which checks
    ``solve`` (half line, symmetry imposed) by an independent route.  Both
    ends are pinned, and phi = pi/2 at the interior node of the start nearest
    pi/2: that removes the wall's near-flat translation mode and nothing else,
    so the symmetry of the result is tested, not imposed.  Returns the refined
    pair and the joint Newton steps taken, at most ``MAX_HALF_STEPS``; the
    benchmark's tracer looks the function up by name and reads that count.
    Refuses pairs whose amplitude touches 0, where the angle is undefined.
    """
    beta = analytic._check_beta(beta)
    if pair.v.min() <= 0.0:
        raise ValueError("v touches 0; refine is only valid for v bounded away from 0")
    grid = pair.grid
    fixed_v = np.zeros(grid.n_points, dtype=bool)
    fixed_v[0] = fixed_v[-1] = True
    fixed_phi = fixed_v.copy()
    phi = pair.phi.copy()
    crossing = 1 + int(np.argmin(np.abs(phi[1:-1] - 0.5 * np.pi)))
    phi[crossing] = 0.5 * np.pi
    fixed_phi[crossing] = True
    v, phi, steps, _ = joint_newton(PairEnergy.unit(beta, grid), pair.v.copy(), phi,
                                    fixed_v, fixed_phi, grad_tol, MAX_HALF_STEPS)
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


def _argmin_node(v: np.ndarray) -> int:
    """Index of the dip; the middle node when the minimum is a plateau."""
    idx = np.flatnonzero(v == v.min())
    return int(idx[(idx.size - 1) // 2])


def diagnostics(pair: ProfilePair) -> PairDiagnostics:
    """Dip location, angle monotonicity and symmetry defects of a pair.

    Symmetry errors are max-norms of v(t)-v(-t) and phi(t)+phi(-t)-pi after
    re-centering the pair at its crossing tc, where phi first reaches pi/2
    (sub-cell, by linear interpolation).
    """
    grid, phi = pair.grid, pair.phi
    t = grid.nodes
    k = _argmin_node(pair.v)
    monotone = bool(np.all(np.diff(phi) >= -1e-10))
    idx = np.nonzero(phi >= 0.5 * np.pi)[0]
    if idx.size == 0 or (idx[0] == 0 and phi[0] > 0.5 * np.pi):
        raise ValueError("phi does not cross pi/2 on the grid")
    c = int(idx[0])
    tc = t[c]
    if phi[c] != 0.5 * np.pi:  # then c > 0, as phi[0] > pi/2 was refused
        frac = (0.5 * np.pi - phi[c - 1]) / (phi[c] - phi[c - 1])
        tc = t[c - 1] + frac * (t[c] - t[c - 1])
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


# ---------------------------------------------------------------------------
# top-level solve
# ---------------------------------------------------------------------------

def initial_pair(beta: float, grid: Grid1D,
                 plateau: tuple[float, float] | None = None) -> ProfilePair:
    """The optimal plateau test pair, the starting point of every solve.

    ``plateau`` is ``analytic.minimize_plateau_objective(beta)`` when the caller has it.
    """
    m_bar, _ = plateau or analytic.minimize_plateau_objective(beta)
    T = analytic.optimal_plateau_halfwidth(m_bar, beta)
    return analytic.test_pair_fields(m_bar, T, grid)


def half_line_problem(beta: float, grid: Grid1D):
    """The transition energy on [0, L] of ``grid``: ``(energy, fixed_v, fixed_phi)``.

    Unit weights, except the potential weight 1/2 at 0 as at L, so twice its
    energy is the full-line energy of the reflected pair, up to rounding.
    phi(0) = pi/2, phi(L) = pi and v(L) = 1 are pinned; v(0) is free.
    """
    n = grid.n_points // 2 + 1
    pot = np.ones(n)
    pot[0] = pot[-1] = 0.5
    fixed_v = np.zeros(n, dtype=bool)
    fixed_v[-1] = True
    fixed_phi = fixed_v.copy()
    fixed_phi[0] = True
    return PairEnergy(beta, grid.spacing, np.ones(n - 1), np.ones(n), pot), fixed_v, fixed_phi


def solve(beta: float, config: SolverConfig | None = None,
          plateau: tuple[float, float] | None = None) -> SurfaceTensionResult:
    """Minimize the transition energy at fixed beta and report diagnostics.

    Solves on the half line and reflects the result onto the full grid: one
    block round, then joint Newton unless that round met the tolerance.
    Both phases share the budget ``MAX_HALF_STEPS``; a spent budget or a
    stall raises ConvergenceError naming the phase.
    A sigma outside ``analytic.sigma_bracket`` (grid too narrow or too coarse) raises ValueError.
    ``plateau`` is ``analytic.minimize_plateau_objective(beta)`` when the caller has it; the
    start and the bracket share it.
    """
    beta = analytic._check_beta(beta)
    config = config or SolverConfig()

    half_width, n_points = default_grid_size(beta)
    if config.half_width is not None or config.spacing is not None:
        # sized without building the default grid, which may not fit in memory
        spacing = 2.0 * half_width / (n_points - 1)  # the default grid's Grid1D.spacing
        half_width = half_width if config.half_width is None else config.half_width
        n_points = odd_node_count(half_width, spacing if config.spacing is None else config.spacing)
    grid = Grid1D(half_width, n_points)

    plateau = plateau or analytic.minimize_plateau_objective(beta)
    start = initial_pair(beta, grid, plateau)
    mid = grid.n_points // 2
    v, phi = start.v[mid:].copy(), start.phi[mid:].copy()
    phi[0] = 0.5 * np.pi
    energy, fixed_v, fixed_phi = half_line_problem(beta, grid)
    tol = config.grad_tol
    v, phi, block_steps, pg = block_round(energy, v, phi, fixed_v, fixed_phi, tol)
    joint_steps = 0
    if pg > tol:
        v, phi, joint_steps, pg = joint_newton(energy, v, phi, fixed_v, fixed_phi, tol,
                                               MAX_HALF_STEPS - block_steps)
    steps = block_steps + joint_steps
    pair = ProfilePair(grid, np.concatenate([v[:0:-1], v]),
                       np.concatenate([np.pi - phi[:0:-1], phi]))
    res_v, res_phi = el_residual(pair, beta)
    bracket = analytic.sigma_bracket(beta, plateau)
    result = SurfaceTensionResult(
        beta=beta,
        sigma=float(discrete_energy(pair, beta).total),
        inf_v=float(pair.v.min()),
        argmin_v=float(grid.nodes[_argmin_node(pair.v)]),
        el_residual_v=res_v,
        el_residual_phi=res_phi,
        equipartition_l2=equipartition_residual(pair, beta),
        iterations=steps,
        joint_steps=joint_steps,
        bracket=bracket,
        grid=grid,
        pair=pair,
    )
    if pg > tol:
        if steps < MAX_HALF_STEPS:
            why = "the joint Newton phase stalled at machine precision"
        else:
            phase = "joint Newton phase" if joint_steps else "block round"
            why = f"the {phase} spent the budget of {MAX_HALF_STEPS} steps"
        raise ConvergenceError(
            f"projected gradient {pg:.3e} above tolerance {tol:.3e} after "
            f"{block_steps} block + {joint_steps} joint Newton steps: {why}",
            result,
        )
    if not bracket.lower <= result.sigma <= bracket.upper:
        raise ValueError(
            f"sigma {result.sigma:.6g} outside the analytic bracket [{bracket.lower:.6g}, "
            f"{bracket.upper:.6g}] at beta={beta:g}: grid half_width={grid.half_width:g}, "
            f"spacing={grid.spacing:g} is too narrow or too coarse")
    return result
