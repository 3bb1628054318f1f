"""Output checks.  Every operation's output is checked; a failed check fails it.

A check recomputes what it compares against through the program's public
functions (the sigma bracket, the discrete energy and gradient, the strong-
coupling fit) instead of trusting the columns the operation printed.  At
seed 0 the values are also compared with reference.json, whose tolerances
come from the O(h^2) discretisation error (see make_reference.py).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from bectension import analytic, asymptotics, gp_validation, solver
from bectension.grid import Grid1D, ProfilePair

GRAD_TOL = 1e-8  # the CLI's default --grad-tol; the benchmark never overrides it
MASS_TOL = 1e-6
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)  # sigma, gap, pg, ratio

    @property
    def ok(self) -> bool:
        return not self.problems


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]


def _flag(argv, name: str) -> str:
    return argv[list(argv).index(name) + 1]


def projected_gradient_norm(pair: ProfilePair, beta: float) -> float:
    """Max-norm of the box-projected gradient of the discrete energy."""
    gv, gphi = solver.discrete_gradient(pair, beta)
    pgv = np.where(pair.v <= 0.0, np.minimum(gv, 0.0),
                   np.where(pair.v >= 1.0, np.maximum(gv, 0.0), gv))
    pgphi = np.where(pair.phi <= 0.0, np.minimum(gphi, 0.0),
                     np.where(pair.phi >= np.pi, np.maximum(gphi, 0.0), gphi))
    return float(max(np.abs(pgv).max(), np.abs(pgphi).max()))


def load_dump(path: str) -> ProfilePair:
    t, v, phi = np.loadtxt(path, unpack=True)
    grid = Grid1D(float(t[-1]), t.size)
    if not np.allclose(grid.nodes, t, rtol=0.0, atol=1e-9 * grid.half_width):
        raise ValueError("dump nodes do not form a uniform symmetric grid")
    return ProfilePair(grid, v, phi)


def _in_bracket(beta: float, sigma: float, verdict: Verdict) -> None:
    bracket = analytic.sigma_bracket(beta)
    if not bracket.lower <= sigma <= bracket.upper:
        verdict.problems.append(
            f"sigma {sigma!r} outside [{bracket.lower!r}, {bracket.upper!r}] at beta {beta!r}")


def _check_sigma(argv, rows, dump, verdict: Verdict) -> None:
    beta = float(_flag(argv, "--beta"))
    if len(rows) != 1 or float(rows[0]["beta"]) != beta:
        verdict.problems.append(f"expected one row at beta {beta!r}")
        return
    sigma = float(rows[0]["sigma"])
    verdict.values["sigma"] = [sigma]
    _in_bracket(beta, sigma, verdict)
    if argv[0] == "profile":
        pair = load_dump(dump)
        pg = projected_gradient_norm(pair, beta)
        verdict.values["pg"] = [pg]
        if not pg <= GRAD_TOL:
            verdict.problems.append(f"dumped profile has projected gradient {pg:.3e} > {GRAD_TOL}")
        energy = solver.discrete_energy(pair, beta).total
        if not math.isclose(energy, sigma, rel_tol=1e-12):
            verdict.problems.append(f"dumped profile energy {energy!r} != reported sigma {sigma!r}")


def _check_sweep(argv, rows, dump, verdict: Verdict) -> None:
    a, b, n = _flag(argv, "--betas").removesuffix("-log").split(":")
    betas = np.logspace(math.log10(float(a)), math.log10(float(b)), int(n))
    if len(rows) != betas.size or not np.allclose(
            [float(r["beta"]) for r in rows], betas, rtol=1e-12, atol=0.0):
        verdict.problems.append(f"expected rows at beta {list(betas)}")
        return
    table = asymptotics.SweepTable([
        asymptotics.SweepRow(**{k: int(v) if k == "iters" else float(v) for k, v in r.items()})
        for r in rows
    ])
    sigmas = [r.sigma for r in table.rows]
    verdict.values["sigma"] = sigmas
    for row in table.rows:
        _in_bracket(row.beta, row.sigma, verdict)
    if any(s2 < s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        verdict.problems.append("sigma decreases somewhere along beta")
    report = asymptotics.large_beta_report(table)
    if not report.passed:
        verdict.problems.append(f"strong-coupling report fails: gap slope "
                                f"{report.gap_slope.slope:+.4f}, dip slope {report.dip_slope.slope:+.4f}")


def _check_gamma(argv, rows, dump, verdict: Verdict) -> None:
    beta = float(_flag(argv, "--beta"))
    eps = [float(e) for e in _flag(argv, "--eps-list").split(",")]
    if [float(r["eps"]) for r in rows] != eps:
        verdict.problems.append(f"expected one row per eps in {eps}")
        return
    gaps = [float(r["gap"]) for r in rows]
    verdict.values["gap"] = gaps
    if not all(abs(g2) < abs(g1) for g1, g2 in zip(gaps, gaps[1:])):
        verdict.problems.append(f"gap does not shrink as eps decreases: {gaps}")
    for r in rows:
        for key in ("mass_res_1", "mass_res_2"):
            if not float(r[key]) <= MASS_TOL:
                verdict.problems.append(f"{key} {r[key]} > {MASS_TOL} at eps {r['eps']}")
    # The default alpha1 = 1/2 puts the interface at t0 = 0, where the limit
    # energy is sigma * rho(0)^(3/2) = sigma * lambda^3.
    sigma = float(rows[0]["limit_energy"]) / gp_validation.TF_LAMBDA ** 3
    verdict.values["sigma"] = [sigma]
    _in_bracket(beta, sigma, verdict)


def _check_tf(argv, rows, dump, verdict: Verdict) -> None:
    dim = int(_flag(argv, "--dim"))
    if len(rows) != 1 or int(rows[0]["dim"]) != dim:
        verdict.problems.append(f"expected one row for dim {dim}")
        return
    row = rows[0]
    ratio = float(row["ratio"])
    verdict.values["ratio"] = [ratio]
    if row["concavity_pass"] != "true":
        verdict.problems.append("radial energy not strictly concave")
    if (row["broken"] == "true") != (ratio > 1.0):
        verdict.problems.append(f"broken={row['broken']} contradicts discriminant {ratio!r}")


CHECKS = {"sigma": _check_sigma, "profile": _check_sigma, "sweep": _check_sweep,
          "gamma": _check_gamma, "tf": _check_tf}


def check_op(argv, rc: int, stdout: str, dump: str | None = None,
             reference: dict | None = None) -> Verdict:
    """Check one operation; ``reference`` is its reference.json entry at seed 0."""
    verdict = Verdict()
    if rc != 0:
        verdict.problems.append(f"exit code {rc}")
        return verdict
    try:
        CHECKS[argv[0]](argv, parse_csv(stdout), dump, verdict)
    except (KeyError, ValueError, IndexError, TypeError, OSError) as exc:
        verdict.problems.append(f"output check raised {exc!r}")
        return verdict
    if reference is not None:
        for key, expected in reference.items():
            got = verdict.values.get(key, [])
            if len(got) != len(expected["values"]) or any(
                    not abs(g - e) <= tol
                    for g, e, tol in zip(got, expected["values"], expected["tols"])):
                verdict.problems.append(
                    f"{key} {got} differs from the reference {expected['values']} "
                    f"by more than {expected['tols']}")
    return verdict
