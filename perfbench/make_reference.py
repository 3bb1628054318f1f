"""Regenerate reference.json, the seed-0 values the checks compare against.

    python3 perfbench/make_reference.py > perfbench/reference.json

Run from the repository root.  Each value X_h that a seed-0 operation
reports (sigma, the gamma-table gaps) is computed once more on a grid of
half the spacing.  X_h converges at O(h^2), so its discretisation error is
about (4/3)|X_h - X_{h/2}| (Richardson).  The tolerance is four times that
error, floored at 1e-9: a change that moves X_h by an O(h^2) amount, such as
another quadrature of the same order, still passes, and a larger shift
fails.  The half-spacing solves skip the descent stage
(``descent_budget=1``), which moves sigma by at most 6e-11, far below every
tolerance.  The Thomas-Fermi discriminants involve no grid; their tolerance
is 1e-9.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import worker  # puts ./src on the path
import workloads
from bectension import gp_validation, solver
from bectension.grid import Grid1D

SAFETY = 4.0
FLOOR = 1e-9


def _sigma_half(beta: float) -> float:
    grid = solver.default_grid(beta)
    config = solver.SolverConfig(half_width=grid.half_width, spacing=grid.spacing / 2.0,
                                 descent_budget=1)
    return solver.solve(beta, config).sigma


def _gaps_half(eps_list, beta: float) -> list[float]:
    """gamma_table's loop on eta grids of half the default spacing."""
    sigma = _sigma_half(beta)
    gaps, prev = [], None
    for eps in eps_list:
        grid = Grid1D.from_spacing(gp_validation.TF_LAMBDA + 2.0, eps / 20.0)
        eta = gp_validation.solve_ground_state(eps, grid=grid)
        start = None
        if prev is not None:
            start = (np.interp(grid.nodes, prev.eta.grid.nodes, prev.v),
                     np.interp(grid.nodes, prev.eta.grid.nodes, prev.phi))
        prev = gp_validation.minimize_weighted_pair(eps, beta, sigma=sigma, eta=eta, start=start)
        gaps.append(prev.gap)
    return gaps


def _entry(values, half_values) -> dict:
    return {"values": list(values),
            "tols": [max(SAFETY * 4.0 / 3.0 * abs(x - y), FLOOR)
                     for x, y in zip(values, half_values)]}


def main() -> int:
    import checks
    reference = {"about": __doc__.split("\n\n")[2].replace("\n", " ")}
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 0):
            argv = list(op.argv)
            if op.name == "weak_profile":  # the same solve without the dump
                argv = ["sigma", *argv[1:3]]
            record = worker.run_op(argv)
            verdict = checks.check_op(argv, record["rc"], record["stdout"])
            if not verdict.ok:
                raise SystemExit(f"{op.name}: {verdict.problems}")
            values = verdict.values
            print(f"{op.name}: {values}", file=sys.stderr)
            if argv[0] == "sigma":
                beta = float(argv[2])
                reference[op.name] = {"sigma": _entry(values["sigma"], [_sigma_half(beta)])}
            elif argv[0] == "sweep":
                betas = [float(r.split(",")[0]) for r in record["stdout"].splitlines()[1:]]
                reference[op.name] = {
                    "sigma": _entry(values["sigma"], [_sigma_half(b) for b in betas])}
            elif argv[0] == "gamma":
                eps = [float(e) for e in argv[4].split(",")]
                reference[op.name] = {"gap": _entry(values["gap"], _gaps_half(eps, float(argv[2])))}
            else:
                reference[op.name] = {"ratio": {"values": values["ratio"], "tols": [FLOOR]}}
    json.dump(reference, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
