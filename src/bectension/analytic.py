"""Closed-form transition profiles, test-pair energies and rigorous bounds.

Everything here is an explicit formula or a 1D scalar search; no PDE solves.
The central objects are the half-line transition cost of the scalar
phase-transition energy, the plateau test pair (v dips to a constant m on a
plateau of half-width T while phi ramps linearly across it), and the bracket
[lower, upper] that pins the surface tension for every coupling ratio beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, ProfilePair, require_positive

SQRT2 = math.sqrt(2.0)

# Strong-coupling limit 2*sqrt(2)/3 of the surface tension: the cost of two
# back-to-back half-line transitions with the amplitude pinned to 0 in between.
SIGMA_INFINITY = 2.0 * SQRT2 / 3.0


def _check_beta(beta: float) -> float:
    beta = float(beta)
    require_positive("beta", beta)
    return beta


def bisect(below, lo: float, hi: float) -> float:
    """Midpoint of [lo, hi] after halving it down to 1e-12.

    ``below(x)`` is true left of the sought point and false right of it.
    """
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_root(c: float) -> float:
    """The root in [-1, 1] of 3x - x^3 = c for c in [-2, 2].

    With x = 2 sin(u) the cubic reads 2 sin(3u) = c, so
    x = 2 sin(asin(c/2) / 3).
    """
    return 2.0 * math.sin(math.asin(0.5 * c) / 3.0)


def _check_depth(m: float) -> float:
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"plateau depth m must lie in [0, 1], got {m}")
    return m


def tanh_profile(m: float, t) -> float | np.ndarray:
    """Optimal half-line profile connecting value m at t=0 to 1 at infinity.

    Returns tanh(t/sqrt(2) + arctanh(m)); for m=1 the profile is constant.
    """
    m = _check_depth(m)
    if m == 1.0:
        return np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 1.0
    return np.tanh(np.asarray(t, dtype=float) / SQRT2 + math.atanh(m)) if np.ndim(t) \
        else math.tanh(t / SQRT2 + math.atanh(m))


def transition_cost(m: float) -> float:
    """Minimal half-line cost of connecting v(0)=m to v(+inf)=1.

    Equals sqrt(2) * (2/3 - m + m^3/3); decreasing in m, zero at m=1, and
    2*sqrt(2)/3 at m=0 (the strong-coupling surface tension).  Evaluated in
    the factored form (m-1)^2 (m+2)/3, which is exact at both endpoints and
    never rounds negative.
    """
    m = _check_depth(m)
    return SQRT2 * (m - 1.0) ** 2 * (m + 2.0) / 3.0


def test_pair_energy(m: float, T: float, beta: float) -> float:
    """Energy of the plateau test pair with depth m and half-width T.

    sqrt(2)(2/3 - m + m^3/3) + (T/2)(1-m^2)^2 + m^2 pi^2/(16T) + (beta/8) m^4 T.
    T=0 is rejected for m>0 (the angular term diverges); use T>0 there.
    """
    m = _check_depth(m)
    beta = _check_beta(beta)
    T = float(T)
    if T < 0.0:
        raise ValueError(f"plateau half-width T must be nonnegative, got {T}")
    if T == 0.0:
        if m > 0.0:
            raise ValueError("T=0 with m>0 is not admissible (angular cost diverges)")
        return transition_cost(0.0)
    return (
        transition_cost(m)
        + 0.5 * T * (1.0 - m**2) ** 2
        + m**2 * math.pi**2 / (16.0 * T)
        + beta / 8.0 * m**4 * T
    )


def optimal_plateau_halfwidth(m: float, beta: float) -> float:
    """Stationary plateau half-width T_m = m pi / (2 sqrt(2) sqrt((1-m^2)^2 + beta m^4/4)).

    Degenerates to 0 at m=0 (no plateau is needed when v does not dip).
    """
    m = _check_depth(m)
    beta = _check_beta(beta)
    if m == 0.0:
        return 0.0
    return m * math.pi / (2.0 * SQRT2 * math.sqrt((1.0 - m**2) ** 2 + beta * m**4 / 4.0))


def plateau_objective(m: float, beta: float) -> float:
    """Depth objective (m^3/3 - m) + (pi/4) m sqrt((1-m^2)^2 + beta m^4/4).

    The T-optimized test-pair energy is sqrt(2) * (plateau_objective + 2/3),
    so minimizing this over m in [0,1] gives the best plateau test pair.
    """
    m = _check_depth(m)
    beta = _check_beta(beta)
    return (m**3 / 3.0 - m) + 0.25 * math.pi * m * math.sqrt(
        (1.0 - m**2) ** 2 + beta * m**4 / 4.0
    )


def minimize_plateau_objective(beta: float) -> tuple[float, float]:
    """Best plateau depth for the given beta: returns (m, objective value).

    Unimodality of the objective is not guaranteed, so a 256-point grid scan
    picks the best cell and golden-section search descends inside it.
    """
    beta = _check_beta(beta)
    ms = np.linspace(0.0, 1.0, 257)
    vals = np.array([plateau_objective(m, beta) for m in ms])
    k = int(np.argmin(vals))
    lo = ms[max(k - 1, 0)]
    hi = ms[min(k + 1, len(ms) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = plateau_objective(c, beta)
    fd = plateau_objective(d, beta)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = plateau_objective(c, beta)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = plateau_objective(d, beta)
    m_best = 0.5 * (a + b)
    return m_best, plateau_objective(m_best, beta)


def dip_floor(beta: float) -> float:
    """Depth below which no profile can be optimal at this beta.

    The unique root in (0,1) of m^3/3 - m = min plateau objective; minimizers
    of the transition problem satisfy inf v >= this value.
    """
    beta = _check_beta(beta)
    _, target = minimize_plateau_objective(beta)
    # -2/3 < target < 0, so -3 target lies in (0, 2) and the root in (0, 1).
    return cubic_root(-3.0 * target)


@dataclass(frozen=True)
class SigmaBracket:
    """Rigorous lower/upper bounds on the surface tension at fixed beta."""

    lower: float
    upper: float


def sigma_bracket(beta: float) -> SigmaBracket:
    """Closed-form bracket lower <= sigma(beta) <= upper <= 2*sqrt(2)/3.

    Lower: minimum over m of sqrt(2)(2/3 - m + m^3 (1/3 + sqrt(beta)/(2 sqrt(2)))),
    attained at the cubic's stationary point.  Upper: the T- and m-optimized
    plateau test-pair energy.
    """
    beta = _check_beta(beta)
    a = 1.0 / 3.0 + math.sqrt(beta) / (2.0 * SQRT2)
    m_c = 1.0 / math.sqrt(3.0 * a)  # always <= 1 since a >= 1/3
    lower = SQRT2 * (2.0 / 3.0 - m_c + a * m_c**3)
    _, obj = minimize_plateau_objective(beta)
    upper = SQRT2 * (obj + 2.0 / 3.0)
    return SigmaBracket(lower=lower, upper=upper)


def plateau_profiles(m: float, T: float, t) -> tuple[np.ndarray, np.ndarray]:
    """The plateau test pair (v, phi) at the coordinates t.

    v equals m on [-T, T] and follows the optimal tanh profile outside;
    phi ramps linearly from 0 to pi across the plateau.
    """
    m = _check_depth(m)
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    v = np.where(
        np.abs(t) <= T,
        m,
        tanh_profile(m, np.maximum(np.abs(t) - T, 0.0)),
    )
    if T > 0.0:
        phi = np.clip(0.5 * math.pi / T * (t + T), 0.0, math.pi)
    else:
        phi = np.where(t < 0.0, 0.0, np.where(t > 0.0, math.pi, 0.5 * math.pi))
    return np.clip(v, 0.0, 1.0), phi


def test_pair_fields(m: float, T: float, grid: Grid1D) -> ProfilePair:
    """``plateau_profiles`` on the grid nodes, with the end values pinned."""
    v, phi = plateau_profiles(m, T, grid.nodes)
    # Pin the admissible boundary values regardless of truncation.
    v[0] = v[-1] = 1.0
    phi[0], phi[-1] = 0.0, math.pi
    return ProfilePair(grid, v, phi)
