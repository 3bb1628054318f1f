"""One fresh process: import the program, run a workload, report as JSON.

    python3 perfbench/worker.py --workload sigma --seed 0 --seconds 30 \
        --trace 0 --tmp .perfbench_tmp/x        # from the repository root
    python3 perfbench/worker.py --workload sigma --seed 0 --setup-only

run.py starts this; it is a script, not a library.  The program is driven
only through ``bectension.cli.main(argv)``, called in-process after the
import, so interpreter start-up and imports are paid once and reported as
set-up time.  Operations run one after another (a closed loop, one client),
in whole passes over the workload's operations, as many as fit in
``--seconds`` (at least one).  With ``--trace 1`` one more pass runs with
tracing on, on the inputs of the first pass, then an untraced repeat of it
and the kernel probe.  The last line of stdout is the report.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import bectension.cli as cli  # noqa: E402

import workloads  # noqa: E402

STDERR_KEEP = 2000  # characters of each operation's stderr kept in the report


def run_op(argv: list[str]) -> dict:
    """Call the CLI in-process; stdout and stderr are captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not a failed run
        rc = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "s": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-STDERR_KEEP:]}


def run_pass(ops, tmp: str, tag: str, tracer=None) -> list[dict]:
    """Run each operation once; the dump placeholder becomes a per-pass path."""
    records = []
    for index, op in enumerate(ops):
        dump = os.path.join(tmp, f"{op.name}-{tag}.txt")
        argv = [dump if a == workloads.DUMP else a for a in op.argv]
        if tracer is not None:
            tracer.op = index
        record = run_op(argv)
        record["op"] = op.name
        record["dump"] = dump if workloads.DUMP in op.argv else None
        records.append(record)
    return records


def _blas_threads():
    """OpenBLAS thread count through its C API; None if numpy's BLAS is another."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def context() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "l3_bytes": _l3_bytes(),
        "bec_threads": os.environ.get("BEC_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", help="directory for profile dumps")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"worker: imported {cli.__file__}, not the sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The sweep's default pool size is os.cpu_count(); cap it at the CPUs
    # this process may actually run on.
    os.environ["BEC_THREADS"] = str(min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))
    passes = []
    start = time.perf_counter()
    while True:  # whole passes, as many as fit in the window, at least one
        k = len(passes)
        pass_start = time.perf_counter()
        pass_ops = ops if k == 0 else workloads.generate(args.workload, args.seed, k)
        passes.append(run_pass(pass_ops, args.tmp, str(k)))
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    report = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "context": context(),
    }

    if args.trace:
        import checks
        import probe
        import tracing
        tracer = tracing.Tracer()
        with tracer.patched():
            report["traced"] = run_pass(ops, args.tmp, "traced", tracer)
        # The first pass pays one-off costs (first touches of fresh memory)
        # that the traced pass does not, so the overhead is measured against
        # an untraced repeat of the same inputs run after it.
        report["repeat"] = run_pass(ops, args.tmp, "repeat")
        results = [s.result for s in tracer.spans if s.result is not None]
        layers = tracing.layer_metrics(tracer.spans)
        probe_metrics, report["probe"] = probe.kernel_probe(results, checks.projected_gradient_norm)
        layers.update(probe_metrics)
        report["layers"] = layers
        report["self_time_sum_s"] = sum(tracing.self_times(tracer.spans))
        report["spans"] = tracer.records()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
