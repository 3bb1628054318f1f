"""Closed-form transition profiles, test-pair energies and rigorous bounds.

Everything here is an explicit formula, a bisection or an array search in
one variable; no PDE solves.  The central objects are the half-line
transition cost of the scalar phase-transition energy, the plateau test pair
(v dips to a constant m on a plateau of half-width T while phi ramps
linearly across it), and the bracket [lower, upper] that pins the surface
tension for every coupling ratio beta: from (pi/(4 sqrt(2))) sqrt(beta) at
weak coupling to the wall 2 sqrt(2)/3 at strong coupling.
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


def bisect(below, lo, hi):
    """Midpoint of [lo, hi] after halving it down to 1e-12.

    ``below(x)`` is true left of the sought point and false right of it.
    Array bounds of one width are halved elementwise through the same midpoints.
    """
    if np.ndim(lo) == 0:
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return 0.5 * (lo + hi)
    while np.max(hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
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
    return m * math.pi / (2.0 * SQRT2 * math.hypot(1.0 - m**2, 0.5 * math.sqrt(beta) * m**2))


def plateau_objective(m: float, beta: float) -> float:
    """Depth objective (m-1)^2 (m+2)/3 + (pi/4) m sqrt((1-m^2)^2 + beta m^4/4).

    The T-optimized test-pair energy is sqrt(2) * plateau_objective, so
    minimizing this over m in [0,1] gives the best plateau test pair.  Exact
    at both ends: 2/3 at m=0 (the wall 2 sqrt(2)/3) and pi sqrt(beta)/8 at
    m=1; the root is a ``hypot``, so beta m^4 never underflows.
    """
    return float(_plateau_objective(_check_depth(m), _check_beta(beta)))


def _plateau_objective(m, beta):
    """``plateau_objective`` unchecked, at one depth or elementwise over an array."""
    return ((m - 1.0) ** 2 * (m + 2.0) / 3.0
            + 0.25 * math.pi * m * np.hypot(1.0 - m**2, 0.5 * math.sqrt(beta) * m**2))


def minimize_plateau_objective(beta: float) -> tuple[float, float]:
    """Best plateau depth for the given beta: returns (m, objective value).

    Unimodality is not guaranteed, so each pass scans 257 depths as one
    array and keeps the two cells around the best, until the cell is at most
    1e-10 wide.  An end of [0, 1] stays in every scan while the best depth
    sits on it, so the value never lies above the objective at either end.
    """
    beta = _check_beta(beta)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        ms = np.linspace(lo, hi, 257)
        scan = _plateau_objective(ms, beta)
        k = int(np.argmin(scan))
        lo, hi = ms[max(k - 1, 0)], ms[min(k + 1, 256)]
    return float(ms[k]), float(scan[k])


def dip_floor(beta: float) -> float:
    """Depth below which no profile can be optimal at this beta.

    The depth whose transition cost equals the upper bound of
    ``sigma_bracket``: minimizers satisfy inf v >= this root of
    (m-1)^2 (m+2)/3 = min plateau objective, i.e. of 3m - m^3 = 2 - 3 min.
    Below beta of about 8.9e-33, 2 - 3 min rounds to 2 and the floor to
    cubic_root(2) = 1 - 1.1e-16.
    """
    return cubic_root(2.0 - 3.0 * minimize_plateau_objective(beta)[1])


@dataclass(frozen=True)
class SigmaBracket:
    """Rigorous lower/upper bounds on the surface tension at fixed beta."""

    lower: float
    upper: float


def sigma_bracket(beta: float) -> SigmaBracket:
    """Closed-form bracket lower <= sigma(beta) <= upper <= 2*sqrt(2)/3.

    Lower: minimum over m of sqrt(2)(2/3 - m + a m^3), a = 1/3 + sqrt(beta)/(2 sqrt(2)),
    attained at the cubic's stationary point m_c = 1/r, r = sqrt(3a) = sqrt(1 + x),
    x = 3 sqrt(beta)/(2 sqrt(2)).  There a m_c^3 = m_c/3, so the minimum is
    (2 sqrt(2)/3)(1 - 1/r) = (2 sqrt(2)/3) x/(r (1 + r)), evaluated in that
    form: it does not cancel and is positive for every beta > 0.  Upper: the
    T- and m-optimized plateau test-pair energy, sqrt(2) times the least
    ``plateau_objective``, with no cancellation either: it is
    (pi/(4 sqrt(2))) sqrt(beta) to 1e-12 below beta = 1e-12.  Both tend to
    2 sqrt(2)/3 as beta grows; past beta of about 1e62 rounding can put the
    lower one above the upper one, and it is then lowered to it.
    """
    beta = _check_beta(beta)
    x = 3.0 * math.sqrt(beta) / (2.0 * SQRT2)
    r = math.sqrt(1.0 + x)
    upper = SQRT2 * minimize_plateau_objective(beta)[1]
    return SigmaBracket(lower=min(SIGMA_INFINITY * x / (r * (1.0 + r)), upper), upper=upper)


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
