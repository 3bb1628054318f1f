"""Time two source trees on the benchmark's seed-0 operations, in pairs, in one process.

    python3 tools/paired_ops.py BASE CHANGE [-n 10] [--ops weak_profile,unit_sigma]

BASE and CHANGE are checkouts of this repository.  Each tree's
``src/bectension`` is imported under its own package name, so both run in
this process on the same interpreter, numpy and CPU.  Every round runs each
chosen operation once on each tree, back to back, in alternating order; the
operations are the seed-0 command lines of ``perfbench/workloads.py`` read
from BASE (by default all eight of the three workloads).  Per operation the
table gives each tree's min and median seconds, the median of the per-round
ratios CHANGE/BASE, and whether the two trees wrote the same stdout (and the
same profile dump) in every round.  Below the table, each operation whose
output differs lists the CSV columns that differ: the old -> new values of
an integer column such as ``iters``, else the largest relative and the
largest absolute difference; a differing profile dump gives the largest
absolute difference of each of its columns.
A pair of back-to-back runs shares the machine's load, so its ratio is
steadier than a ratio of two medians from separate processes.  Exit code 1
when an output differs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import importlib.util
import io
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np


def load_tree(root: str, name: str):
    """The ``cli`` module of ``root/src/bectension``, imported as package ``name``."""
    package = os.path.join(os.path.abspath(root), "src", "bectension")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def seed0_ops(root: str):
    """(name, argv) of every workload's seed-0 operations, from ``root``'s perfbench."""
    spec = importlib.util.spec_from_file_location(
        "_paired_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    spec.loader.exec_module(workloads)
    return [(op.name, list(op.argv)) for w in workloads.WORKLOADS
            for op in workloads.generate(w, 0)]


def run(cli, argv, dump):
    """Seconds and stdout of one in-process CLI call; its stderr is dropped."""
    argv = [dump if a == "{dump}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return seconds, out.getvalue()


def _all(parse, texts):
    """``parse`` of every text, or None if one of them does not parse."""
    try:
        return [parse(t) for t in texts]
    except ValueError:
        return None


def column_differences(base: str, change: str) -> list[str]:
    """One line per column that differs between two CSV texts with the same
    header and row count.  An integer column (such as ``iters``) lists
    ``a -> b`` per differing row, and so does a column of other text; a
    column of finite numbers gives its largest relative difference
    |b - a| / max(|a|, |b|) and its largest absolute difference |b - a|."""
    old, new = (list(csv.reader(io.StringIO(text))) for text in (base, change))
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return ["header or row count differs"]
    lines = []
    for j, name in enumerate(old[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], new[1:]) if a[j] != b[j]]
        if not pairs:
            continue
        texts = [t for pair in pairs for t in pair]
        floats = _all(float, texts)
        if _all(int, texts) is None and floats and all(map(math.isfinite, floats)):
            pairs = list(zip(floats[::2], floats[1::2]))
            worst = max(abs(b - a) / max(abs(a), abs(b)) if a != b else 0.0  # "0" -> "0.0"
                        for a, b in pairs)
            largest = max(abs(b - a) for a, b in pairs)
            lines.append(f"{name}: max relative difference {worst:.3g}, "
                         f"max absolute difference {largest:.3g}")
        else:
            lines.append(f"{name}: " + ", ".join(f"{a} -> {b}" for a, b in pairs))
    return lines


def dump_differences(base: str, change: str) -> list[str]:
    """One line with the largest absolute difference of each column of two
    profile dumps (``# t v phi`` header, one node per row)."""
    with open(base) as fh:
        names = fh.readline().lstrip("#").split()
    old, new = np.loadtxt(base, ndmin=2), np.loadtxt(change, ndmin=2)
    if old.shape != new.shape:
        return ["profile dump: row count differs"]
    worst = np.abs(new - old).max(axis=0)
    return ["profile dump: max " + ", ".join(f"|d{name}| {w:.3g}"
                                             for name, w in zip(names, worst))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("-n", "--rounds", type=int, default=10)
    parser.add_argument("--ops", help="comma-separated operation names (default: all eight)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"-n must be at least 1, got {args.rounds}")
    for root in (args.base, args.change):
        if not os.path.isfile(os.path.join(root, "src", "bectension", "__init__.py")):
            parser.error(f"{root} is not a checkout of this repository: no src/bectension")

    clis = {"base": load_tree(args.base, "_paired_base"),
            "change": load_tree(args.change, "_paired_change")}
    ops = seed0_ops(args.base)
    if args.ops:
        wanted = args.ops.split(",")
        unknown = set(wanted) - {name for name, _ in ops}
        if unknown:
            parser.error(f"unknown operations {sorted(unknown)}; choose from "
                         f"{', '.join(name for name, _ in ops)}")
        ops = [op for op in ops if op[0] in wanted]

    times = {(name, tree): [] for name, _ in ops for tree in clis}
    differing = {}  # name -> (base stdout, change stdout, dump lines) of the first differing round
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(args.rounds):
            order = list(clis) if rnd % 2 == 0 else list(clis)[::-1]
            for name, op_argv in ops:
                outputs = {}
                for tree in order:
                    dump = os.path.join(tmp, f"{tree}.txt")
                    seconds, outputs[tree] = run(clis[tree], op_argv, dump)
                    times[name, tree].append(seconds)
                dumps = [os.path.join(tmp, f"{tree}.txt") for tree in clis]
                dumps_equal = "{dump}" not in op_argv or filecmp.cmp(*dumps, shallow=False)
                if (outputs["base"] != outputs["change"] or not dumps_equal) \
                        and name not in differing:
                    differing[name] = (outputs["base"], outputs["change"],
                                       [] if dumps_equal else dump_differences(*dumps))

    print(f"{args.rounds} rounds; seconds min / median; ratio = median of change/base per round")
    print(f"{'operation':<14}{'base':>19}{'change':>19}{'ratio':>8}  output")
    for name, _ in ops:
        base, change = times[name, "base"], times[name, "change"]
        ratio = statistics.median(c / b for b, c in zip(base, change))
        print(f"{name:<14}{min(base):9.4f}{statistics.median(base):10.4f}"
              f"{min(change):9.4f}{statistics.median(change):10.4f}{ratio:8.3f}  "
              f"{'DIFFERS' if name in differing else 'same'}")
    for name, (base, change, dump_lines) in differing.items():
        print(f"{name} differs:")
        for line in (column_differences(base, change) if base != change else []) + dump_lines:
            print(f"  {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
