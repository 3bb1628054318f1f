"""Kernel probe: cost per node of the discrete energy and its gradient.

Runs after the traced pass, on the converged pairs its solves returned.  A
workload that solved no grid of a probed size gets the solver's initial pair
on that grid instead; the kernels do the same arithmetic on any pair.

The fields are 8 bytes per node, 1.6 MB at 200 001 nodes, so every array a
kernel touches fits in the last-level cache of the machine this was written
on (105 MB): these are in-cache rates, not memory bandwidth.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from bectension import solver

# label -> (target node count, beta whose default grid has that count)
SIZES = {"n4001": (4001, 1.0), "n200001": (200_001, 1e-4)}


def _seconds_per_call(fn, batch_s: float = 0.02, batches: int = 9) -> float:
    """Median over batches of the mean call time; a batch lasts about batch_s."""
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - t
        if elapsed >= batch_s:
            break
        reps *= 2
    samples = [elapsed / reps]
    for _ in range(batches - 1):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t) / reps)
    return statistics.median(samples)


def _pick(results, target: int, beta: float):
    near = [r for r in results if abs(r.grid.n_points - target) <= 0.1 * target]
    if near:
        best = min(near, key=lambda r: abs(r.grid.n_points - target))
        return best.pair, best.beta, "converged"
    grid = solver.default_grid(beta)
    return solver.initial_pair(beta, grid), beta, "initial"


def kernel_probe(results, projected_gradient_norm) -> tuple[dict[str, float], dict]:
    """Per-layer probe metrics, and per size the pair it used and its gradient norm."""
    metrics, notes = {}, {}
    for label, (target, beta_default) in SIZES.items():
        pair, beta, kind = _pick(results, target, beta_default)
        n = pair.grid.n_points
        energy_s = _seconds_per_call(lambda: solver.discrete_energy(pair, beta))
        gradient_s = _seconds_per_call(lambda: solver.discrete_gradient(pair, beta))
        metrics[f"solver.energy_ns_per_node.{label}"] = energy_s / n * 1e9
        metrics[f"solver.gradient_ns_per_node.{label}"] = gradient_s / n * 1e9
        notes[label] = {"nodes": n, "beta": beta, "pair": kind,
                        "projected_gradient": projected_gradient_norm(pair, beta)}
        if label == "n200001":
            # Computed bytes: the two fields read, plus the peak of the arrays
            # the call allocates (its temporaries and the two gradients).
            tracemalloc.start()
            try:
                solver.discrete_gradient(pair, beta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            metrics["solver.gradient_bytes_per_node_computed"] = (
                pair.v.nbytes + pair.phi.nbytes + peak) / n
    return metrics, notes
