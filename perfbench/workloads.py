"""Seeded command lines for the three benchmark workloads.

Each workload is a fixed list of CLI operations.  Seed 0 gives exactly the
reference command lines in every pass; any other seed multiplies every beta
and every eps by its own log-uniform factor within +-JITTER, drawn afresh
for each pass, so a change to the program cannot key on the exact workload
values.  The eps list stays strictly
decreasing and at most 0.1, as ``gamma`` requires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

JITTER = 0.03
DUMP = "{dump}"  # placeholder the worker replaces by a per-pass dump path

WORKLOADS = ("sigma", "sweep", "gamma")  # why each: BENCHMARK.json


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]


def generate(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The operations of one pass of a workload run, in execution order.

    Each pass of a run draws its own values, so a run's median spans several
    inputs: the iteration counts of the constrained solves, and with them the
    time of a pass, change by up to a third between nearby inputs.
    """
    rng = random.Random(f"{seed}/{pass_index}")

    def factor() -> float:
        return math.exp(rng.uniform(-math.log1p(JITTER), math.log1p(JITTER)))

    def num(text: str, f: float | None = None) -> str:
        if seed == 0:
            return text
        return repr(float(text) * (factor() if f is None else f))

    if workload == "sigma":
        return [
            Op("weak_profile", ("profile", "--beta", num("1e-4"), "--dump", DUMP)),
            Op("unit_sigma", ("sigma", "--beta", num("1"))),
            Op("strong_sigma", ("sigma", "--beta", num("1e5"))),
        ]
    if workload == "sweep":
        # The lower endpoint takes the smaller factor, so the span never drops
        # below five decades: the three top rows then span at least two
        # decades at beta >= 100, which the strong-coupling fit requires.
        low, high = sorted((factor(), factor()))
        return [Op("sweep", ("sweep", "--betas", f"{num('1', low)}:{num('1e5', high)}:6-log"))]
    if workload == "gamma":
        beta = num("1")
        eps = ",".join(num(e) for e in ("0.04", "0.02", "0.01"))
        return [
            Op("gamma", ("gamma", "--beta", beta, "--eps-list", eps)),
            Op("tf1", ("tf", "--dim", "1")),
            Op("tf2", ("tf", "--dim", "2")),
            Op("tf3", ("tf", "--dim", "3")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
