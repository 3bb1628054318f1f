"""Coupling-ratio sweeps and the two asymptotic regimes of the surface tension.

Strong coupling: the gap to the hard-wall limit 2*sqrt(2)/3 and the dip depth
both decay like beta^(-1/4).  Weak coupling: the tension is bounded by
C*sqrt(beta); only the upper bound is proven, so the measured small-beta
slope is reported rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import analytic, solver

# Certificate constant of the weak-coupling bound sigma <= C*sqrt(beta).  The
# kink pair v = 1, phi = 2 arctan(exp(sqrt(beta) t)) has phi' = sqrt(beta)
# sin(phi), so its energy (1/8) int phi'^2 + beta sin^2(phi) equals
# (1/4) sqrt(beta) int_0^pi sin(phi) dphi = sqrt(beta)/2: C = 1 holds with a
# factor-2 margin.
SMALL_BETA_COEFF = 1.0


@dataclass(frozen=True)
class SweepRow:
    beta: float
    sigma: float
    inf_v: float
    lower: float
    upper: float
    el_res_v: float
    el_res_phi: float
    equip_l2: float
    iters: int


@dataclass
class SweepTable:
    """Converged solves sorted ascending in beta."""

    rows: list[SweepRow]

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: r.beta)

    def __len__(self) -> int:
        return len(self.rows)


class SweepError(RuntimeError):
    """Some solves failed; carries the partial table and the failed betas."""

    def __init__(self, table: SweepTable, failures: dict):
        betas = ", ".join(f"{b:g}" for b in sorted(failures))
        super().__init__(f"sweep failed for beta in {{{betas}}}")
        self.table = table
        self.failures = failures


def _solve_row(beta: float, config: solver.SolverConfig | None) -> SweepRow:
    result = solver.solve(beta, config)
    bracket = analytic.sigma_bracket(beta)
    return SweepRow(
        beta=beta,
        sigma=result.sigma,
        inf_v=result.inf_v,
        lower=bracket.lower,
        upper=bracket.upper,
        el_res_v=result.el_residual_v,
        el_res_phi=result.el_residual_phi,
        equip_l2=result.equipartition_l2,
        iters=result.iterations,
    )


def beta_sweep(betas, config: solver.SolverConfig | None = None) -> SweepTable:
    """One converged solve per distinct beta, on its beta-adapted default grid.

    Rows are solved one after another and assembled in ascending beta.  If
    any solve fails the partial table is raised inside a SweepError.
    """
    betas = [float(b) for b in betas]
    if any(b <= 0 for b in betas):
        raise ValueError("all beta values must be positive")
    rows: dict[float, SweepRow] = {}
    failures: dict[float, Exception] = {}
    for b in dict.fromkeys(betas):
        try:
            rows[b] = _solve_row(b, config)
        except Exception as exc:  # noqa: BLE001 - reported per beta
            failures[b] = exc
    table = SweepTable(list(rows.values()))
    if failures:
        raise SweepError(table, failures)
    return table


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    n_points: int


def loglog_slope(xs, ys) -> SlopeFit:
    """Ordinary least squares of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1D arrays of equal length")
    if xs.size < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit requires positive data")
    lx, ly = np.log(xs), np.log(ys)
    lx_c = lx - lx.mean()
    sxx = lx_c @ lx_c
    slope = (lx_c @ ly) / sxx
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (intercept + slope * lx)
    dof = xs.size - 2
    stderr = math.sqrt((resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return SlopeFit(float(slope), float(intercept), float(stderr), int(xs.size))


@dataclass(frozen=True)
class LargeBetaReport:
    gap_slope: SlopeFit
    dip_slope: SlopeFit
    passed: bool


def large_beta_report(table: SweepTable) -> LargeBetaReport:
    """Fit the strong-coupling rates; pass iff both slopes are in [-0.30, -0.20]."""
    rows = [r for r in table.rows if r.beta >= 100.0]
    if len(rows) < 3:
        raise ValueError("need at least 3 rows with beta >= 100")
    betas = np.array([r.beta for r in rows])
    if betas.max() / betas.min() < 100.0:
        raise ValueError("rows must span at least two decades in beta")
    gaps = analytic.SIGMA_INFINITY - np.array([r.sigma for r in rows])
    if np.any(gaps <= 0):
        raise ValueError("sigma at or above the strong-coupling limit; gap fit undefined")
    dips = np.array([r.inf_v for r in rows])
    gap_fit = loglog_slope(betas, gaps)
    dip_fit = loglog_slope(betas, dips)
    passed = (-0.30 <= gap_fit.slope <= -0.20) and (-0.30 <= dip_fit.slope <= -0.20)
    return LargeBetaReport(gap_fit, dip_fit, passed)


@dataclass(frozen=True)
class SmallBetaReport:
    ratio_max: float
    measured_slope: SlopeFit
    passed: bool


def small_beta_report(table: SweepTable) -> SmallBetaReport:
    """Check sigma <= SMALL_BETA_COEFF sqrt(beta) on the rows with beta <= 1e-2.

    The measured log-log slope of sigma against beta is informational: the
    matching lower bound is not proven, so only the upper bound is asserted.
    """
    rows = [r for r in table.rows if r.beta <= 1e-2]
    if len(rows) < 3:
        raise ValueError("need at least 3 rows with beta <= 1e-2")
    betas = np.array([r.beta for r in rows])
    sigmas = np.array([r.sigma for r in rows])
    ratios = sigmas / np.sqrt(betas)
    fit = loglog_slope(betas, sigmas)
    ratio_max = float(ratios.max())
    return SmallBetaReport(ratio_max, fit, ratio_max <= SMALL_BETA_COEFF)


def sweep_csv_rows(table: SweepTable) -> list[dict]:
    """Rows keyed by the sweep CSV schema (the fields of SweepRow), ascending beta."""
    return [asdict(r) for r in table.rows]
