"""Tests of the benchmark itself: span self times, tracing, output checks, inputs.

    python3 -m pytest perfbench/tests      # from the repository root
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bectension import analytic, cli, grid  # noqa: E402

SIGMA_1 = (
    "beta,sigma,inf_v,argmin_v,lower,upper,el_res_v,el_res_phi,equip_l2,iters\n"
    "1,0.38748732429668531,0.79722680793477119,0,0.28602808757578596,0.45741570802413062,"
    "1.4857627103070925e-06,3.1141423277869507e-06,0.00095942072535059263,446\n"
)


def _span(name, start, end, parent=None, thread=0):
    return tracing.Span(name, start, end, parent, op=0, thread=thread)


def test_covered_is_the_union_clipped_to_the_span():
    assert tracing.covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12), (-1, 0.5)]) == 6.5
    assert tracing.covered(0.0, 1.0, []) == 0.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span("sweep", 0.0, 10.0),
        _span("solve", 1.0, 6.0, parent=0, thread=1),
        _span("solve", 2.0, 7.0, parent=0, thread=2),  # overlaps its sibling
        _span("refine", 2.0, 3.0, parent=1, thread=1),
    ]
    assert tracing.self_times(spans) == [4.0, 4.0, 5.0, 1.0]


def test_sequential_self_times_add_up_to_the_root():
    spans = [
        _span("main", 0.0, 10.0),
        _span("solve", 0.5, 2.0, parent=0),
        _span("refine", 1.0, 1.5, parent=1),
        _span("emit", 2.0, 5.0, parent=0),
    ]
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_patches_every_binding_and_restores_them():
    original = grid.dump_profile
    assert cli.dump_profile is original
    tracer = tracing.Tracer()
    with tracer.patched():
        assert cli.dump_profile is grid.dump_profile is not original
        analytic.sigma_bracket(1.0)
    assert cli.dump_profile is grid.dump_profile is original
    names = [s.name for s in tracer.spans]
    assert names == ["analytic.sigma_bracket", "analytic.minimize_plateau_objective"]
    assert tracer.spans[1].parent == 0


def test_spans_from_other_threads_attach_to_the_open_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("outer", outer)()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.spans[0].thread != tracer.spans[1].thread


def test_valid_output_passes_and_matches_the_reference():
    reference = checks.load_reference()["unit_sigma"]
    verdict = checks.check_op(["sigma", "--beta", "1"], 0, SIGMA_1, reference=reference)
    assert verdict.ok, verdict.problems
    assert verdict.values["sigma"] == [0.38748732429668531]


def test_corrupted_sigma_fails():
    reference = checks.load_reference()["unit_sigma"]
    shifted = SIGMA_1.replace("0.38748732429668531", "0.38748832429668531")  # +1e-6
    assert not checks.check_op(["sigma", "--beta", "1"], 0, shifted, reference=reference).ok
    outside = SIGMA_1.replace("0.38748732429668531", "0.5")  # above the bracket
    verdict = checks.check_op(["sigma", "--beta", "1"], 0, outside)
    assert not verdict.ok and "outside" in verdict.problems[0]


def test_nonzero_exit_fails():
    verdict = checks.check_op(["sigma", "--beta", "1"], 1, SIGMA_1)
    assert verdict.problems == ["exit code 1"]


def test_usage_error_is_a_nonzero_exit():
    import worker
    record = worker.run_op(["sigma", "--beta", "-1"])
    assert record["rc"] == 2
    assert not checks.check_op(record["argv"], record["rc"], record["stdout"]).ok


def test_seed_zero_gives_the_reference_command_lines():
    argv = {w: [op.argv for op in workloads.generate(w, 0)] for w in workloads.WORKLOADS}
    assert argv["sigma"] == [("profile", "--beta", "1e-4", "--dump", workloads.DUMP),
                             ("sigma", "--beta", "1"), ("sigma", "--beta", "1e5")]
    assert argv["sweep"] == [("sweep", "--betas", "1:1e5:6-log")]
    assert argv["gamma"][0] == ("gamma", "--beta", "1", "--eps-list", "0.04,0.02,0.01")


@pytest.mark.parametrize("seed", [1, 2, 99])
def test_other_seeds_jitter_every_value_by_a_few_percent(seed):
    gamma = workloads.generate("gamma", seed)[0].argv
    eps = [float(e) for e in gamma[4].split(",")]
    for got, base in zip(eps, (0.04, 0.02, 0.01)):
        assert got != base and abs(got / base - 1.0) <= workloads.JITTER
    assert eps == sorted(eps, reverse=True) and max(eps) <= 0.1
    a, b, _ = workloads.generate("sweep", seed)[0].argv[2].split(":")
    assert 0 < abs(float(a) - 1.0) <= 0.03 and 0 < abs(float(b) / 1e5 - 1.0) <= 0.03
    assert workloads.generate("gamma", seed) == workloads.generate("gamma", seed)
