"""Thomas-Fermi cloud geometry for the harmonic trap V = |x|^2.

The limit density is rho(x) = (lambda^2 - |x|^2)_+, a cloud of unit mass, so
lambda is fixed by the dimension.  The sharp-interface energy of a centered
ball carrying mass alpha has the closed radial form f(alpha); f is strictly
concave, which reduces radially symmetric competitors to balls and outer
annuli.  Explicit non-radial candidates (half-line cut, diameter chord,
angular wedge) beat the radial minimum at alpha = 1/2 in dimensions 1, 2 and
3: symmetry breaking.

Every mass and wall integral is a closed form.  Two inverses still bisect:
the ball radius carrying a given mass (a quintic in n = 3) and the chord
angle in n = 2 (a transcendental equation).  The ball mass, the radius, f
and f'' act elementwise on arrays: the concavity check is one array bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import SIGMA_INFINITY, bisect, cubic_root

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere boundary in dimension n."""
    try:
        return _SPHERE_AREA[n]
    except KeyError:
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}") from None


def tf_lambda(n: int) -> float:
    """Cloud radius normalizing the Thomas-Fermi mass to 1.

    The cloud mass area * lam^(n+2) * (1/n - 1/(n+2)) = 1 gives
    lam = (n (n+2) / (2 area))^(1/(n+2)): (3/4)^(1/3), (2/pi)^(1/4) and
    (15/(8 pi))^(1/5) in n = 1, 2, 3.
    """
    return (n * (n + 2) / (2.0 * sphere_area(n))) ** (1.0 / (n + 2))


@dataclass(frozen=True)
class TFModel:
    """Harmonic-trap Thomas-Fermi cloud of unit mass in dimension 1, 2 or 3."""

    dimension: int
    lam: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", tf_lambda(self.dimension))


def tf_density(r: float, model: TFModel):
    """rho(r) = (lambda^2 - r^2)_+ for r >= 0."""
    r = np.asarray(r, dtype=float)
    out = np.maximum(model.lam**2 - r * r, 0.0)
    return float(out) if out.ndim == 0 else out


def _floats(x):
    """A float, or a float array for an array: scalars keep Python's float powers."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _ball_mass(R, model: TFModel):
    n = model.dimension
    return sphere_area(n) * model.lam ** (n + 2) * (R**n / n - R ** (n + 2) / (n + 2))


def ball_mass(R, model: TFModel):
    """Mass of the centered ball of normalized radius R in [0, 1]; exact polynomial."""
    if not np.all((0.0 <= R) & (R <= 1.0)):
        raise ValueError("normalized radius must lie in [0, 1]")
    return _ball_mass(_floats(R), model)


def radius_for_mass(alpha, model: TFModel):
    """Normalized radius whose centered ball carries mass alpha (bisection)."""
    alpha = _floats(alpha)
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    R = bisect(lambda R: _ball_mass(R, model) < alpha, 0.0 * alpha, 0.0 * alpha + 1.0)
    return _floats(np.where((alpha == 0.0) | (alpha == 1.0), alpha, R))


def radial_energy(alpha, model: TFModel):
    """Limit interface energy of the centered ball with mass alpha.

    f(alpha) = (2 sqrt(2)/3) * area * lambda^(n+2) * R^(n-1) (1-R^2)^(3/2),
    with f(0) = f(1) = 0 (in n=1 the alpha -> 0 limit is positive; the value
    at alpha = 0 is still 0 since the empty set has no interface).
    """
    return _energy_at_radius(radius_for_mass(alpha, model), model)


def _energy_at_radius(R, model: TFModel):
    """f at the normalized radius R; R = 0 and R = 1 (alpha = 0 and 1 exactly) give 0."""
    n, lam = model.dimension, model.lam
    f = SIGMA_INFINITY * sphere_area(n) * lam ** (n + 2) * R ** (n - 1) * (1.0 - R**2) ** 1.5
    return _floats(np.where((R == 0.0) | (R == 1.0), 0.0, f))


def radial_energy_second_derivative(alpha, model: TFModel):
    """Closed-form f''(alpha); strictly negative on (0, 1)."""
    if not np.all((0.0 < alpha) & (alpha < 1.0)):
        raise ValueError("the second derivative is defined on (0, 1)")
    return _second_derivative_at_radius(radius_for_mass(alpha, model), model)


def _second_derivative_at_radius(R, model: TFModel):
    """f'' at the normalized radius R in (0, 1)."""
    n, lam = model.dimension, model.lam
    s = sphere_area(n) * lam ** (n + 2)
    return (
        -SIGMA_INFINITY / s
        * (1.0 - R**2) ** -2.5
        * R ** -(n + 1)
        * ((n - 1) * (1.0 - R**2) + 3.0 * R**2)
    )


@dataclass(frozen=True)
class ConcavityReport:
    max_second_difference: float
    max_closed_form: float
    passed: bool


def concavity_report(model: TFModel) -> ConcavityReport:
    """Strict concavity of the radial energy on 128 uniform interior alphas.

    Central second differences and the closed-form second derivative must both
    be negative at every grid point; both are evaluated on the whole grid at
    once, from one bisection of its radii.
    """
    R = radius_for_mass(np.linspace(0.0, 1.0, 130)[1:-1], model)
    f = _energy_at_radius(R, model)
    d2 = f[2:] - 2.0 * f[1:-1] + f[:-2]
    closed = _second_derivative_at_radius(R, model)
    max_d2 = float(d2.max())
    max_closed = float(closed.max())
    return ConcavityReport(max_d2, max_closed, max_d2 < 0.0 and max_closed < 0.0)


def _halfline_cut(alpha: float, model: TFModel) -> float:
    """n=1: the point t with mass alpha to its left.

    The mass lam^2 t - t^3/3 + 2 lam^3/3 = alpha is the cubic
    3x - x^3 = 3 alpha / lam^3 - 2 in x = t / lam, with its root in [-1, 1]
    since alpha lies below the unit cloud mass 4 lam^3 / 3.
    """
    lam = model.lam
    return lam * cubic_root(3.0 * alpha / lam**3 - 2.0)


def _chord_offset(alpha: float, model: TFModel) -> float:
    """n=2: offset d of the vertical chord with mass alpha on {x < d}.

    Each column carries (4/3)(lam^2 - x^2)^(3/2); with d = lam sin(theta) the
    mass left of d is (4/3) lam^4 G(theta),
    G(theta) = 3 theta/8 + sin(2 theta)/4 + sin(4 theta)/32 + 3 pi/16.
    """
    lam = model.lam

    def mass(theta):
        return 4.0 / 3.0 * lam**4 * (3.0 * theta / 8.0 + math.sin(2.0 * theta) / 4.0
                                     + math.sin(4.0 * theta) / 32.0 + 3.0 * math.pi / 16.0)

    return lam * math.sin(bisect(lambda theta: mass(theta) < alpha, -0.5 * math.pi, 0.5 * math.pi))


def nonradial_candidate_energy(alpha: float, model: TFModel) -> float:
    """Limit energy of the explicit non-radially-symmetric candidate set.

    n=1: half-line cut at the mass-alpha point, energy (2 sqrt(2)/3) rho(t)^(3/2).
    n=2: straight chord at offset d carrying mass alpha, energy
         (2 sqrt(2)/3)(3 pi/8)(lambda^2 - d^2)^2, the integral of rho^(3/2)
         along the chord (candidate shape from the two-dimensional
         precursor of this construction).
    n=3: angular wedge bounded by two half-disk walls, energy
         (2 sqrt(2)/3)(2 pi/5) lambda^5 independent of alpha.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n, lam = model.dimension, model.lam
    if n == 1:
        t = _halfline_cut(alpha, model)
        return SIGMA_INFINITY * (lam**2 - t * t) ** 1.5
    if n == 2:
        d = _chord_offset(alpha, model)
        return SIGMA_INFINITY * 3.0 * math.pi / 8.0 * (lam**2 - d * d) ** 2
    # two flat half-disk walls, each integrating rho^(3/2) to pi lam^5 / 5
    return SIGMA_INFINITY * 2.0 * math.pi * lam**5 / 5.0


@dataclass(frozen=True)
class SymmetryBreakingReport:
    dimension: int
    split_radius: float
    radial_min: float
    candidate: float
    ratio: float
    broken: bool
    derived_from_citation: bool


def _breaking_verdict(radial_min: float, candidate: float) -> tuple[float, bool]:
    ratio = radial_min / candidate
    return ratio, ratio > 1.0


def symmetry_breaking_report(model: TFModel) -> SymmetryBreakingReport:
    """Compare the radial minimum against the non-radial candidate at alpha = 1/2.

    broken=True means the candidate is strictly cheaper, so minimizers of the
    limit energy are not radially symmetric.  The comparison is pure geometry:
    both energies carry the same surface-tension factor, so the verdict is the
    same for every coupling ratio.  The n=2 candidate follows the cited prior
    two-dimensional result and is flagged as such.
    """
    alpha = 0.5
    radial = min(radial_energy(alpha, model), radial_energy(1.0 - alpha, model))
    candidate = nonradial_candidate_energy(alpha, model)
    ratio, broken = _breaking_verdict(radial, candidate)
    return SymmetryBreakingReport(
        dimension=model.dimension,
        split_radius=radius_for_mass(alpha, model),
        radial_min=radial,
        candidate=candidate,
        ratio=ratio,
        broken=broken,
        derived_from_citation=model.dimension == 2,
    )


def local_surface_tension(r: float, model: TFModel, sigma_bar: float):
    """Spatially weighted surface tension rho(r)^(3/2) * sigma_bar."""
    if sigma_bar < 0:
        raise ValueError("sigma_bar must be nonnegative")
    return tf_density(r, model) ** 1.5 * sigma_bar
