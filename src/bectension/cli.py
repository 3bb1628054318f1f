"""Command-line front end.

Data (CSV or JSON) goes to stdout or --output; everything human-readable
goes to stderr.  Exit codes: 0 success, 1 solver or I/O failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytic, asymptotics, gp_validation, solver, tf_geometry
from .grid import dump_profile


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit(rows: list[dict], fmt: str, path: str | None) -> None:
    """Write rows as CSV (header + rows) or a JSON document.

    Field order is the dict order of the first row; floats carry 17
    significant digits so parsing reproduces them bit-exactly.
    """
    if fmt == "csv":
        keys = list(rows[0])
        lines = [",".join(keys)] + [",".join(_fmt(row[k]) for k in keys) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        def clean(v):
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v
        doc = [{k: clean(v) for k, v in row.items()} for row in rows]
        text = json.dumps(doc[0] if len(doc) == 1 else doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def parse_beta_list(text: str) -> list[float]:
    """Expand 'a:b:n-log' into n logarithmically spaced values."""
    try:
        core, kind = text.rsplit("-", 1)
        a, b, n = core.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ValueError(f"cannot parse beta list {text!r}; expected a:b:n-log") from exc
    if kind != "log":
        raise ValueError(f"unknown beta-list kind {kind!r}; only 'log' is supported")
    if not (0.0 < a < math.inf and 0.0 < b < math.inf) or n < 1:
        raise ValueError("beta list endpoints must be positive and finite, and n >= 1")
    if n == 1:
        return [a]
    return list(np.logspace(math.log10(a), math.log10(b), n))


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bectension",
        description="Interface surface tension of segregated two-component condensates.",
    )
    parser.add_argument("--config", help="optional key = value config file; flags override")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write data here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--half-width", type=float, default=None)
    grid_opts.add_argument("--spacing", type=float, default=None)
    grid_opts.add_argument("--n-points", type=int, default=None)
    grid_opts.add_argument("--grad-tol", type=float, default=1e-8)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common, grid_opts],
                       help="single surface-tension solve with diagnostics")
    p.add_argument("--beta", type=float, required=True)

    p = sub.add_parser("sweep", parents=[common, grid_opts],
                       help="surface tension over a log grid of beta")
    p.add_argument("--betas", required=True, metavar="a:b:n-log")

    p = sub.add_parser("tf", parents=[common],
                       help="Thomas-Fermi geometry and symmetry breaking")
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, default=0.5)

    p = sub.add_parser("gamma", parents=[common],
                       help="sharp-interface validation table over eps")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps-list", required=True, help="comma-separated decreasing values")
    p.add_argument("--alpha1", type=float, default=0.5)

    p = sub.add_parser("profile", parents=[common, grid_opts],
                       help="solve and dump the optimal profile")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dump", required=True, help="profile dump path")

    p = sub.add_parser("bounds", parents=[common],
                       help="analytic bracket only, no solve")
    p.add_argument("--beta", type=float, required=True)
    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    values = _read_config_file(known.config)
    # Push file values as defaults into every subparser that knows the key.
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)  # noqa: SLF001
    )
    for sp in subparsers.choices.values():
        dests = {a.dest: a for a in sp._actions}  # noqa: SLF001
        overrides = {}
        for key, val in values.items():
            if key in dests:
                action = dests[key]
                overrides[key] = action.type(val) if action.type is not None else val
                action.required = False  # the file satisfies the requirement
        if overrides:
            sp.set_defaults(**overrides)


def _solver_config(args) -> solver.SolverConfig:
    return solver.SolverConfig(
        half_width=args.half_width,
        spacing=args.spacing,
        n_points=args.n_points,
        grad_tol=args.grad_tol,
    )


def _result_row(result: solver.SurfaceTensionResult) -> dict:
    bracket = analytic.sigma_bracket(result.beta)
    return {
        "beta": result.beta,
        "sigma": result.sigma,
        "inf_v": result.inf_v,
        "argmin_v": result.argmin_v,
        "lower": bracket.lower,
        "upper": bracket.upper,
        "el_res_v": result.el_residual_v,
        "el_res_phi": result.el_residual_phi,
        "equip_l2": result.equipartition_l2,
        "iters": result.iterations,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        _apply_config_defaults(parser, argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)

    try:
        if args.command == "bounds":
            bracket = analytic.sigma_bracket(args.beta)
            print(f"bracket at beta={args.beta:g}: [{bracket.lower:.12g}, {bracket.upper:.12g}]",
                  file=sys.stderr)
            emit([{"beta": args.beta, "lower": bracket.lower, "upper": bracket.upper}],
                 args.format, args.output)
            return 0

        if args.command == "sigma":
            result = solver.solve(args.beta, _solver_config(args))
            print(f"sigma(beta={args.beta:g}) = {result.sigma:.12g} "
                  f"(dip {result.inf_v:.6g} at t={result.argmin_v:.6g}, "
                  f"{result.iterations} iterations)", file=sys.stderr)
            emit([_result_row(result)], args.format, args.output)
            return 0

        if args.command == "sweep":
            table = asymptotics.beta_sweep(parse_beta_list(args.betas), _solver_config(args))
            for line in _sweep_reports(table):
                print(line, file=sys.stderr)
            emit(asymptotics.sweep_csv_rows(table), args.format, args.output)
            return 0

        if args.command == "tf":
            model = tf_geometry.TFModel(args.dim)
            report = tf_geometry.symmetry_breaking_report(model)
            concavity = tf_geometry.concavity_report(model)
            row = {  # a bad --alpha raises here, before anything is printed
                "dim": args.dim,
                "lambda": model.lam,
                "alpha": args.alpha,
                "radius_alpha": tf_geometry.radius_for_mass(args.alpha, model),
                "f_alpha": tf_geometry.radial_energy(args.alpha, model),
                "candidate_alpha": tf_geometry.nonradial_candidate_energy(args.alpha, model),
                "split_radius": report.split_radius,
                "radial_min": report.radial_min,
                "candidate": report.candidate,
                "ratio": report.ratio,
                "broken": report.broken,
                "derived_from_citation": report.derived_from_citation,
                "concavity_pass": concavity.passed,
            }
            print(f"dim {args.dim}: discriminant {report.ratio:.6g} "
                  f"({'broken' if report.broken else 'radial'}), "
                  f"concavity {'ok' if concavity.passed else 'FAILED'}", file=sys.stderr)
            emit([row], args.format, args.output)
            return 0

        if args.command == "gamma":
            try:
                eps_list = [float(tok) for tok in args.eps_list.split(",") if tok]
            except ValueError:
                parser.error(f"cannot parse eps list {args.eps_list!r}")
            rows = gp_validation.gamma_table(eps_list, args.beta, alpha1=args.alpha1)
            for row in rows:
                print(f"eps={row.eps:g}: gap {row.gap:+.6g} "
                      f"({abs(row.gap) / row.limit_energy:.2%} of limit)", file=sys.stderr)
            emit(gp_validation.gamma_csv_rows(rows), args.format, args.output)
            return 0

        if args.command == "profile":
            result = solver.solve(args.beta, _solver_config(args))
            dump_profile(result.pair, args.dump)
            print(f"profile for beta={args.beta:g} written to {args.dump} "
                  f"({result.grid.n_points} nodes)", file=sys.stderr)
            emit([_result_row(result)], args.format, args.output)
            return 0
    except ValueError as exc:  # input rejected where it is used: grid, beta, eps or alpha
        parser.error(str(exc))
    except solver.ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except asymptotics.SweepError as exc:
        print(f"sweep failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    return 2  # unreachable: subcommands are required


def _sweep_reports(table: asymptotics.SweepTable) -> list[str]:
    lines = [f"sweep: {len(table)} rows"]
    try:
        rep = asymptotics.large_beta_report(table)
        lines.append(
            f"strong coupling: gap slope {rep.gap_slope.slope:+.4f}, "
            f"dip slope {rep.dip_slope.slope:+.4f}, pass={rep.passed}"
        )
    except ValueError:
        pass
    try:
        rep = asymptotics.small_beta_report(table)
        lines.append(
            f"weak coupling: max sigma/sqrt(beta) {rep.ratio_max:.4f} "
            f"(bound {asymptotics.SMALL_BETA_COEFF}), slope {rep.measured_slope.slope:+.4f}, "
            f"pass={rep.passed}"
        )
    except ValueError:
        pass
    return lines


if __name__ == "__main__":
    sys.exit(main())
