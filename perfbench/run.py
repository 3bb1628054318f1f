"""bectension benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload sigma --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  Each run
times SETUP_PROBES fresh set-ups, then runs the workload in one fresh
worker process (worker.py) and checks every operation's output here
(checks.py).  Progress, per-operation times with the sigma, gap and
projected gradient they produced, and the machine record go to stderr.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json lists, the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  A fuller record, spans included, is
written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6  # plus the worker's own set-up: the median of seven
DEADLINE_S = 170.0  # a run must end within 180 s
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
# Per-layer metrics read off the untraced passes: operation -> metric name.
OP_TIMES = {"weak_profile": "weak_profile_s", "unit_sigma": "unit_sigma_s",
            "strong_sigma": "strong_sigma_s", "gamma": "gamma_s"}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its JSON report."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rows(record) -> int:
    return max(len(record["stdout"].strip().splitlines()) - 1, 0) if record["rc"] == 0 else 0


def _median_op(passes, name: str) -> float:
    times = [r["s"] for records in passes for r in records if r["op"] == name]
    return statistics.median(times) if times else 0.0


def end_to_end(report, setup) -> dict[str, float]:
    passes = report["passes"]
    walls = [sum(r["s"] for r in records) for records in passes]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(
            sum(_rows(r) for r in records) / wall for records, wall in zip(passes, walls)),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report) -> dict[str, float]:
    passes, traced = report["passes"], report["traced"]
    metrics = dict(report["layers"])
    metrics["cli.emit.bytes"] = sum(len(r["stdout"].encode()) for r in traced)
    metrics["trace.overhead_s"] = (sum(r["s"] for r in traced)
                                   - sum(r["s"] for r in report["repeat"]))
    for op, name in OP_TIMES.items():
        metrics[name] = _median_op(passes, op)
    sweeps = [_rows(r) / r["s"] for p in passes for r in p if r["op"] == "sweep"]
    metrics["sweep_rows_per_s"] = statistics.median(sweeps) if sweeps else 0.0
    return metrics


def check_all(report, seed: int, workload: str):
    """Check every operation of every pass; returns (attempted, failed, records)."""
    import checks
    reference = checks.load_reference() if seed == 0 else {}
    tagged = [(str(i), r) for i, p in enumerate(report["passes"]) for r in p]
    tagged += [(tag, r) for tag in ("traced", "repeat") for r in report.get(tag, [])]
    failed, out = 0, []
    for tag, r in tagged:
        verdict = checks.check_op(r["argv"], r["rc"], r["stdout"], r["dump"],
                                  reference.get(r["op"]))
        failed += not verdict.ok
        shown = "  ".join(f"{k}={','.join(f'{x:.10g}' for x in v)}"
                          for k, v in verdict.values.items())
        status = "ok" if verdict.ok else "FAILED: " + "; ".join(verdict.problems)
        print(f"{workload} pass {tag} {r['op']}: {r['s']:.3f} s  {shown}  {status}",
              file=sys.stderr)
        if not verdict.ok and r["stderr"]:
            print(r["stderr"].rstrip(), file=sys.stderr)
        out.append({"pass": tag, "op": r["op"], "argv": r["argv"], "rc": r["rc"], "s": r["s"],
                    "values": verdict.values, "problems": verdict.problems})
    return len(tagged), failed, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "bectension", "cli.py")):
        print(f"run.py: no bectension sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tmp = os.path.join(TMP_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        setup = [run_worker([*common, "--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]
        report = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--tmp", tmp], deadline)
        setup.append(report["setup_s"])
        attempted, failed, records = check_all(report, args.seed, args.workload)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"machine: {json.dumps(report['context'])}", file=sys.stderr)
    if args.trace:
        values, listed = per_layer(report), spec["per_layer"]
        traced_wall = sum(r["s"] for r in report["traced"])
        print(f"trace: {len(report['spans'])} spans, self times sum to "
              f"{report['self_time_sum_s']:.4f} s, traced wall {traced_wall:.4f} s, "
              f"overhead {values['trace.overhead_s']:.4f} s; kernel probe pairs "
              f"{json.dumps(report['probe'])}", file=sys.stderr)
    else:
        values, listed = end_to_end(report, setup), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": report["context"], "setup_s": setup,
              "operations": records, "metrics": metrics,
              "probe": report.get("probe"), "spans": report.get("spans")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
