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

* one short round of the two convex blocks (``block_round``): at most six
  steps on phi at fixed v, then one on v at fixed phi, each block strictly
  convex after the classical substitutions sin(phi) and v^2, each step one
  tridiagonal Cholesky;
* Newton on the interleaved pair (v_0, phi_0, v_1, phi_1, ...)
  (``joint_newton``), whose Hessian is a band of half-width 3, one banded
  Cholesky per step (both ``band_solve``).  v^2 phi'^2 is not jointly
  convex, so the band is shifted by tau I when the factorization fails.

The block round is cheap and safe far from the minimizer; at weak coupling
(beta <= 1e-3 on the default grids) it already meets the tolerance, and the
joint phase does not run.  Elsewhere the block steps converge only linearly,
so the round stops early and hands joint Newton its final energy and
gradient, the floats the joint objective would compute there.  Every step
backtracks along the projected arc, falling back to -P grad E when the
Newton direction does not descend, so the energy never rises by more than
its rounding (``rounding``, 4 ulp).

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
the same gradients interleaved.  The sin and cos of an iterate's angles are
computed once: each energy returns the ``_Angle`` it built with its value,
and the Newton drivers hand it to the gradient and curvature at that
iterate and to the next block at the same phi.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
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

class _Angle:
    """sin and cos of one angle array, each computed at most once."""

    def __init__(self, phi):
        self.phi = phi

    sin = cached_property(lambda self: np.sin(self.phi))
    cos = cached_property(lambda self: np.cos(self.phi))


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

        def energy(phi, angle=None):
            angle = angle or _Angle(phi)
            return self._terms(v_terms, np.diff(phi), angle.sin ** 2).total, angle

        def gradient(phi, angle=None):
            angle = angle or _Angle(phi)
            flux = v_terms[2] * np.diff(phi) / (8.0 * h)
            g = _scatter(np.zeros(phi.size), -flux, flux)
            g += force * angle.sin * angle.cos
            return g

        def curvature(phi, _=None):
            a = v_terms[2] / (8.0 * h)
            return _scatter(np.zeros(phi.size), a, a), -a, force * np.cos(2.0 * phi)

        return Block(energy, gradient, curvature)

    def v_block(self, phi, angle=None) -> Block:
        """The energy in v at frozen phi, whose ``_Angle`` the caller may pass;
        as ``phi_block``, with that one ``_Angle`` for every v."""
        h, beta, pot = self.h, self.beta, self.pot
        dphi = np.diff(phi)
        dphi2 = dphi * dphi
        angle = angle or _Angle(phi)
        sin_phi = angle.sin
        sin2 = sin_phi ** 2
        a = self.cell / h

        def energy(v, _=None):
            return self._terms(self._v_terms(v), dphi, sin2).total, angle

        def gradient(v, _=None):
            v2 = v * v
            flux = self.cell * np.diff(v) / h
            g = _scatter(np.zeros(v.size), -flux, flux)
            g -= h * pot * v * (1.0 - v2)
            nv = self.node * v
            _scatter(g, nv[:-1] * dphi2 / (8.0 * h), nv[1:] * dphi2 / (8.0 * h))
            g += 0.5 * beta * h * pot * v * v2 * sin_phi * sin_phi
            return g

        def curvature(v, _=None):
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

        def energy(x, angle=None):
            v, phi = x[0::2], x[1::2]
            angle = angle or _Angle(phi)
            return self._terms(self._v_terms(v), np.diff(phi), angle.sin ** 2).total, angle

        def gradient(x, angle=None):
            v, phi = x[0::2], x[1::2]
            angle = angle or _Angle(phi)
            return _interleave(self.v_block(phi, angle).gradient(v),
                               self.phi_block(v).gradient(phi, angle))

        def curvature(x, angle=None):
            v, phi = x[0::2], x[1::2]
            angle = angle or _Angle(phi)
            ab = np.zeros((4, x.size), order="F")
            blocks = (self.v_block(phi, angle).curvature(v), self.phi_block(v).curvature(phi))
            for k, (kin, off, pot) in enumerate(blocks):
                ab[0, k::2] = kin + pot
                ab[2, k:-2:2] = off
            dphi = np.diff(phi)
            q = self.node * v / (4.0 * self.h)
            ab[1, 0::2] = (q * _scatter(np.zeros(v.size), -dphi, dphi)
                           + self.beta * self.h * self.pot * v ** 3 * angle.sin * angle.cos)
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
# rows included), the Hessian model, and how that model yields a step.  The
# first three take a point and its ``_Angle``, which ``energy`` returns with
# its value (``PairEnergy`` builds one when none is given).
Block = namedtuple("Block", "energy gradient curvature newton", defaults=(tridiagonal_newton,))


def dot(a, b) -> float:
    """a . b of two 1-D arrays, summed on the calling thread (``einsum``, no
    BLAS): OpenBLAS splits a dot product above 10 000 entries over its worker
    threads, which then spin on the other cores for a while after the call."""
    return float(np.einsum("i,i->", a, b))


def rounding(value: float) -> float:
    """4 ulp(|value|), the rounding of an energy near ``value``."""
    return 4.0 * math.ulp(value)


def arc_search(merit, value, x, d, g, lo, hi, fixed):
    """Backtrack along the projected arc P(x + alpha d), alpha = 1, 1/2, ...
    down to 1e-16, until ``merit`` passes the Armijo test against ``value``,
    its value at ``x``; -P ``g``, the projected gradient of the merit,
    replaces a ``d`` that does not descend.  Where the predicted decrease
    -alpha g.d is below the ``rounding`` of ``value``, rounding decides the
    Armijo test, so a merit at most that rounding above ``value`` passes
    instead (the approximate Wolfe test of Hager and Zhang, SIAM J. Optim.
    16, 2005).  ``merit`` returns a value and an ``_Angle``, as ``Block.energy``.
    Returns the last trial point, its merit and its ``_Angle``."""
    slope = dot(g, d)
    if not np.isfinite(slope) or slope >= 0.0:
        d = -_projected(x, g, lo, hi)
        slope = dot(g, d)
    noise = rounding(value)
    alpha = 1.0
    while True:
        x_new = np.clip(x + alpha * d, lo, hi)
        x_new[fixed] = x[fixed]
        value_new, angle = merit(x_new)
        if (value_new <= value + 1e-4 * alpha * slope or alpha < 1e-16
                or -alpha * slope <= noise and value_new <= value + noise):
            return x_new, value_new, angle
        alpha *= 0.5


def projected_newton(x, lo, hi, fixed, objective, tol, max_steps, value=None, g=None,
                     angle=None):
    """Projected damped Newton in the box [lo, hi].

    ``objective`` is a ``Block``: one field with the others frozen (see
    ``PairEnergy.phi_block``, solved by ``tridiagonal_newton``) or the
    interleaved pair (``PairEnergy.joint``, solved by ``band_newton``).
    ``lo``, ``hi`` and ``tol`` are scalars or one entry per row; the loop
    stops when every projected-gradient entry is within its ``tol``.  Rows
    in ``fixed`` never move.  Nodes resting on a box bound stay in the
    system so one step can detach whole flat regions; ``arc_search`` takes
    care of any step component leaving the box.  No step raises the energy
    by more than its ``rounding``, and only where rounding decides the line
    search.  The loop stops as a stall at machine precision when no step
    length keeps the energy within its rounding, or when a step did not
    lower the energy and the max-norm of the projected gradient did not
    fall below its least value since the energy last fell.

    ``value``, ``g`` (pinned rows zeroed) and ``angle`` are the energy,
    gradient and ``_Angle`` at ``x`` when the caller has them.  Returns ``(x,
    steps, value, g, angle)``: ``g`` is the gradient at the returned ``x``
    when the loop stopped on it (tolerance or stall) and None when the last
    step moved ``x``; ``angle`` is the returned ``x``'s ``_Angle``.
    """
    if value is None:
        value, angle = objective.energy(x)
    steps = 0
    least = math.inf  # least max|P grad E| since the energy last fell
    for _ in range(max_steps):
        if g is None:
            g = np.where(fixed, 0.0, objective.gradient(x, angle))
        pg = _projected(x, g, lo, hi)
        size = np.abs(pg)
        if (size <= tol).all():
            break
        norm = size.max()
        if norm >= least:  # an equal-energy step that did not lower the gradient
            break
        steps += 1

        d = objective.newton(lambda y: objective.curvature(y, angle), x, fixed, g)
        x_new, value_new, angle_new = arc_search(objective.energy, value, x, d, g, lo, hi, fixed)
        if not value_new <= value + rounding(value):  # stalled at machine precision
            break
        least = min(least, norm) if value_new >= value else math.inf
        x, value, g, angle = x_new, value_new, None, angle_new
    return x, steps, value, g, angle


# ---------------------------------------------------------------------------
# the two Newton drivers: one block round, joint Newton
# ---------------------------------------------------------------------------

BLOCK_STEPS = 6           # Newton steps of the phi block
MAX_HALF_STEPS = 200_000  # budget of joint Newton steps of one unit solve


def block_round(problem, v, phi, fixed_v, fixed_phi, tol):
    """One round of the two convex blocks: projected Newton on phi at fixed v,
    then on v at fixed phi (``problem.phi_block``, ``v_block``), in the boxes
    [0, pi] and [0, 1]; rows in ``fixed_phi`` and ``fixed_v`` never move.
    The phi block takes at most BLOCK_STEPS steps and the v block one,
    towards a quarter of ``tol``; the v block starts from the energy and the
    ``_Angle`` the phi block stopped at.  The block steps converge only
    linearly (``tridiagonal_newton`` shifts the diagonal), so where the
    round does not meet ``tol`` (beta > 1e-3 on the default grids) joint
    Newton finishes the solve.

    Returns ``(v, phi, steps, pg, value, g, angle)``: ``pg`` the stop norm
    (``_projected_gradient_norm``), ``value`` the energy at the end, ``g``
    the interleaved gradient there, pinned rows zeroed, and ``angle`` the
    ``_Angle`` of ``phi``.  ``value`` and ``g`` are the floats
    ``problem.joint()`` gives at the interleaved pair, so ``joint_newton``
    starts from them and from ``angle`` without evaluating any again.
    """
    block_tol = 0.25 * tol
    phi_block = problem.phi_block(v)
    phi, s_phi, value, _, angle = projected_newton(phi, 0.0, np.pi, fixed_phi, phi_block,
                                                   block_tol, BLOCK_STEPS)
    del phi_block  # one block's arrays alive at a time
    v_block = problem.v_block(phi, angle)
    v, s_v, value, gv, _ = projected_newton(v, 0.0, 1.0, fixed_v, v_block, block_tol, 1, value)
    if gv is None:
        gv = np.where(fixed_v, 0.0, v_block.gradient(v))
    del v_block
    gphi = np.where(fixed_phi, 0.0, problem.phi_block(v).gradient(phi, angle))
    return (v, phi, s_phi + s_v, _projected_gradient_norm(v, phi, gv, gphi), value,
            _interleave(gv, gphi), angle)


def _interleave(a, b):
    return np.column_stack((a, b)).ravel()


def joint_newton(problem, v, phi, fixed_v, fixed_phi, tol, max_steps, value=None, g=None,
                 angle=None):
    """Projected Newton on the interleaved pair (v_0, phi_0, v_1, phi_1, ...),
    the objective ``problem.joint()``, in the box [0, 1] x [0, pi].  The stop
    norm is ``_projected_gradient_norm``: node 0 counts twice, so its rows stop
    at half of ``tol``; on a full line node 0 is pinned, and that norm is the
    full-line one.  ``value``, ``g`` (interleaved, pinned rows zeroed) and
    ``angle`` (the ``_Angle`` of ``phi``) are the energy, gradient and sin and
    cos at the start when the caller has them (``block_round``).  Returns (v,
    phi, steps, final projected-gradient norm).
    """
    n = v.size
    tols = np.full(2 * n, tol)
    tols[:2] = 0.5 * tol  # |2 g_0| <= tol, exactly
    objective = problem.joint()
    fixed = _interleave(fixed_v, fixed_phi)
    x, steps, _, g, angle = projected_newton(_interleave(v, phi), 0.0,
                                             _interleave(np.ones(n), np.full(n, np.pi)),
                                             fixed, objective, tols, max_steps, value, g, angle)
    if g is None:
        g = np.where(fixed, 0.0, objective.gradient(x, angle))
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

REPORT_BLOCK = 32_768  # interior nodes per block of the residual report


def _interior_blocks(n_points):
    """Slices of consecutive nodes of a grid: each block of up to
    ``REPORT_BLOCK`` interior nodes with one node on either side.  A block's
    dozen temporaries fit in a 2 MB L2 cache, where those of the whole line
    (1.6 MB each at 200 001 nodes) do not."""
    for lo in range(1, n_points - 1, REPORT_BLOCK):
        yield slice(lo - 1, min(lo + REPORT_BLOCK, n_points - 1) + 1)


def el_residual(pair: ProfilePair, beta: float) -> tuple[float, float]:
    """Max-norm over interior nodes of the two continuum stationarity equations,

      -v'' - (1-v^2) v + (1/4) v phi'^2 + (beta/2) v^3 sin^2(phi) = 0
      -(v^2 phi')' + beta v^4 sin(phi) cos(phi) = 0,

    with centred differences (v'' and phi' across two cells, (v^2 phi')'
    from the cell fluxes).  It measures consistency with the continuum
    equations, not convergence of the discrete problem: it does not vanish
    at the discrete minimizer, whose projected gradient is what ``solve``
    drives below its tolerance.  At beta = 1e5 the v residual of the default
    solve is 7.6e-3 while that gradient is below 1e-8.  Computed block by
    block (``_interior_blocks``), with the same values as on the whole line.
    """
    beta = analytic._check_beta(beta)
    h = pair.grid.spacing
    max_v, max_phi = [], []
    for block in _interior_blocks(pair.grid.n_points):
        v, phi = pair.v[block], pair.phi[block]
        v_i = v[1:-1]
        sin_i = np.sin(phi[1:-1])
        lap_v = (v[2:] - 2.0 * v_i + v[:-2]) / (h * h)  # h**2 raises OverflowError past 1.3e154
        dphi_c = (phi[2:] - phi[:-2]) / (2.0 * h)
        res_v = (
            -lap_v
            - (1.0 - v_i**2) * v_i
            + 0.25 * v_i * dphi_c**2
            + 0.5 * beta * v_i**3 * sin_i ** 2
        )
        v2 = v * v
        half = 0.5 * (v2[:-1] + v2[1:])
        flux = half * np.diff(phi) / h
        res_phi = -(flux[1:] - flux[:-1]) / h + beta * v_i**4 * sin_i * np.cos(phi[1:-1])
        max_v.append(np.abs(res_v).max())
        max_phi.append(np.abs(res_phi).max())
    return float(np.max(max_v)), float(np.max(max_phi))


def equipartition_residual(pair: ProfilePair, beta: float) -> float:
    """Discrete L2 norm over interior nodes of the continuum first integral

      v'^2 + (1/4) v^2 phi'^2 - W(v) - (beta/4) v^4 sin^2(phi),

    which vanishes on a minimizer of the continuum problem on the whole
    line.  Derivatives are forward differences, so like ``el_residual`` it
    measures consistency with the continuum equations, not convergence of
    the discrete problem: at a converged discrete minimizer it is first
    order in the spacing.  The squares are formed block by block
    (``_interior_blocks``) and summed in one call over the whole line, so
    the norm is the float the unblocked formula gives.
    """
    beta = analytic._check_beta(beta)
    h, n = pair.grid.spacing, pair.grid.n_points
    r2 = np.empty(n - 2)
    for block in _interior_blocks(n):
        v, phi = pair.v[block], pair.phi[block]
        dv = np.diff(v[1:]) / h
        dphi = np.diff(phi[1:]) / h
        v_i = v[1:-1]
        r = (
            dv ** 2
            + 0.25 * v_i ** 2 * dphi ** 2
            - 0.5 * (1.0 - v_i ** 2) ** 2
            - 0.25 * beta * v_i ** 4 * np.sin(phi[1:-1]) ** 2
        )
        r2[block.start:block.stop - 2] = r * r
    return float(np.sqrt(h * np.sum(r2)))


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

def initial_pair(beta: float, grid: Grid1D) -> ProfilePair:
    """The optimal plateau test pair, the starting point of every solve."""
    m_bar, _ = analytic.minimize_plateau_objective(beta)
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


def solve(beta: float, *, half_width: float | None = None, spacing: float | None = None,
          grad_tol: float = 1e-8) -> SurfaceTensionResult:
    """Minimize the transition energy at fixed beta and report diagnostics.

    ``half_width`` and ``spacing`` (a target: the actual spacing is at most
    this) override the beta-adapted default grid; ``grad_tol`` bounds the
    max-norm of the projected gradient at the end.
    Solves on the half line and reflects the result onto the full grid: one
    block round, then joint Newton unless that round met the tolerance.
    Joint Newton takes at most ``MAX_HALF_STEPS`` steps; a spent budget or a
    stall raises ConvergenceError.
    A sigma outside ``analytic.sigma_bracket`` (grid too narrow or too coarse) raises ValueError.
    """
    beta = analytic._check_beta(beta)
    require_positive("grad_tol", grad_tol)

    default_half_width, n_points = default_grid_size(beta)
    if half_width is None and spacing is None:
        grid = Grid1D(default_half_width, n_points)
    else:  # sized without building the default grid, which may not fit in memory
        default_spacing = 2.0 * default_half_width / (n_points - 1)  # its Grid1D.spacing
        grid = Grid1D.from_spacing(default_half_width if half_width is None else half_width,
                                   default_spacing if spacing is None else spacing)

    start = initial_pair(beta, grid)
    mid = grid.n_points // 2
    v, phi = start.v[mid:].copy(), start.phi[mid:].copy()
    phi[0] = 0.5 * np.pi
    energy, fixed_v, fixed_phi = half_line_problem(beta, grid)
    v, phi, block_steps, pg, value, grad, angle = block_round(energy, v, phi, fixed_v,
                                                              fixed_phi, grad_tol)
    joint_steps = 0
    if pg > grad_tol:
        v, phi, joint_steps, pg = joint_newton(energy, v, phi, fixed_v, fixed_phi, grad_tol,
                                               MAX_HALF_STEPS, value, grad, angle)
    del grad, angle  # before the full-grid arrays of the report
    steps = block_steps + joint_steps
    pair = ProfilePair(grid, np.concatenate([v[:0:-1], v]),
                       np.concatenate([np.pi - phi[:0:-1], phi]))
    res_v, res_phi = el_residual(pair, beta)
    bracket = analytic.sigma_bracket(beta)
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
    if pg > grad_tol:
        why = (f"spent the budget of {MAX_HALF_STEPS} steps" if joint_steps == MAX_HALF_STEPS
               else "stalled at machine precision")
        raise ConvergenceError(
            f"projected gradient {pg:.3e} above tolerance {grad_tol:.3e} after "
            f"{block_steps} block + {joint_steps} joint Newton steps: the joint Newton phase "
            f"{why}",
            result,
        )
    if not bracket.lower <= result.sigma <= bracket.upper:
        raise ValueError(
            f"sigma {result.sigma:.6g} outside the analytic bracket [{bracket.lower:.6g}, "
            f"{bracket.upper:.6g}] at beta={beta:g}: grid half_width={grid.half_width:g}, "
            f"spacing={grid.spacing:g} is too narrow or too coarse")
    return result
