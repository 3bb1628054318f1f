import dataclasses
import math

import numpy as np
import pytest

from bectension import analytic, asymptotics, solver


def synthetic_table(betas, sigma_fn, inf_v_fn):
    rows = [
        asymptotics.SweepRow(
            beta=b, sigma=sigma_fn(b), inf_v=inf_v_fn(b), argmin_v=0.0,
            lower=0.0, upper=1.0, el_res_v=0.0, el_res_phi=0.0,
            equip_l2=0.0, iters=1,
        )
        for b in betas
    ]
    return asymptotics.SweepTable(rows)


class TestLoglogSlope:
    def test_identity(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = asymptotics.loglog_slope(xs, xs)
        assert fit.slope == pytest.approx(1.0, abs=1e-14)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.n_points == 4

    def test_exact_power_law(self):
        xs = np.logspace(0, 4, 7)
        ys = 3.7 * xs**-0.25
        fit = asymptotics.loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-12)

    def test_noisy_sqrt(self):
        rng = np.random.default_rng(12)
        xs = np.logspace(-4, 0, 30)
        ys = np.sqrt(xs) * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = asymptotics.loglog_slope(xs, ys)
        assert fit.slope == pytest.approx(0.5, abs=0.02)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asymptotics.loglog_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            asymptotics.loglog_slope([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            asymptotics.loglog_slope([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


class TestBetaSweep:
    def test_single_beta_delegates(self, beta1_result):
        table = asymptotics.beta_sweep([1.0])
        assert len(table) == 1
        row = table.rows[0]
        assert row.sigma == pytest.approx(beta1_result.sigma, abs=1e-12)
        assert row.lower <= row.sigma <= row.upper
        assert (row.lower, row.upper) == dataclasses.astuple(analytic.sigma_bracket(1.0))

    def test_sigma_nondecreasing_and_bracketed(self):
        table = asymptotics.beta_sweep([0.1, 1.0, 10.0])
        sigmas = np.array([r.sigma for r in table.rows])
        assert np.all(np.diff(sigmas) > 0.0)
        h = 0.01
        for row in table.rows:
            assert row.lower - h <= row.sigma <= row.upper + h

    def test_repeated_beta_solved_once(self, monkeypatch, beta1_result):
        calls = []

        def counting_solve(beta, **options):
            calls.append(beta)
            return beta1_result

        monkeypatch.setattr(solver, "solve", counting_solve)
        table = asymptotics.beta_sweep([1.0, 1.0, 1.0])
        assert calls == [1.0]
        assert len(table) == 1

    def test_failures_carry_partial_table(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_HALF_STEPS", 2)
        with pytest.raises(asymptotics.SweepError) as err:
            asymptotics.beta_sweep([1.0, 2.0], half_width=5.0, spacing=0.05, grad_tol=1e-14)
        assert set(err.value.failures) == {1.0, 2.0}
        assert len(err.value.table) == 0
        for beta in (1.0, 2.0):
            assert f"beta={beta:g}: {err.value.failures[beta]}" in str(err.value)

    @pytest.mark.parametrize("options", [dict(grad_tol=0.0), dict(half_width=-1.0),
                                         dict(spacing=math.nan), dict(grad_tol=math.inf)])
    def test_rejects_bad_options_before_any_solve(self, monkeypatch, options):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the options were checked")

        monkeypatch.setattr(solver, "solve", no_solve)
        with pytest.raises(ValueError, match=f"^{next(iter(options))} must be positive"):
            asymptotics.beta_sweep([1.0, 2.0], **options)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotics.beta_sweep([1.0, 0.0])

    @pytest.mark.parametrize("betas", [[1.0, math.nan, 10.0], [math.inf], [1.0, -math.inf],
                                       [-2.0, 1.0]])
    def test_rejects_non_finite_before_any_solve(self, monkeypatch, betas):
        calls = []

        def counting_solve(beta, **options):
            calls.append(beta)
            raise AssertionError("solved before the beta list was checked")

        monkeypatch.setattr(solver, "solve", counting_solve)
        with pytest.raises(ValueError, match="positive and finite"):
            asymptotics.beta_sweep(betas)
        assert calls == []


class TestLargeBetaReport:
    def test_synthetic_quarter_rate(self):
        betas = np.logspace(2, 5, 4)
        table = synthetic_table(
            betas,
            lambda b: analytic.SIGMA_INFINITY - b**-0.25,
            lambda b: 0.9 * b**-0.25,
        )
        rep = asymptotics.large_beta_report(table)
        assert rep.passed
        assert rep.gap_slope.slope == pytest.approx(-0.25, abs=1e-12)
        assert rep.dip_slope.slope == pytest.approx(-0.25, abs=1e-12)

    def test_wrong_rate_fails(self):
        betas = np.logspace(2, 5, 4)
        table = synthetic_table(
            betas,
            lambda b: analytic.SIGMA_INFINITY - b**-0.5,
            lambda b: b**-0.25,
        )
        assert not asymptotics.large_beta_report(table).passed

    def test_insufficient_span(self):
        betas = [100.0, 300.0, 900.0]
        table = synthetic_table(betas, lambda b: 0.9, lambda b: 0.1)
        with pytest.raises(ValueError):
            asymptotics.large_beta_report(table)


class TestSmallBetaReport:
    def test_synthetic_sqrt(self):
        betas = [1e-4, 1e-3, 1e-2]
        table = synthetic_table(betas, lambda b: 0.9 * math.sqrt(b), lambda b: 1.0)
        rep = asymptotics.small_beta_report(table)
        assert rep.passed
        assert rep.ratio_max == pytest.approx(0.9, rel=1e-12)
        assert rep.measured_slope.slope == pytest.approx(0.5, abs=1e-12)

    def test_bound_violation_fails(self):
        betas = [1e-4, 1e-3, 1e-2]
        table = synthetic_table(betas, lambda b: 2.0 * math.sqrt(b), lambda b: 1.0)
        assert not asymptotics.small_beta_report(table).passed

    def test_insufficient_rows(self):
        table = synthetic_table([1e-3, 1e-2], lambda b: b, lambda b: 1.0)
        with pytest.raises(ValueError):
            asymptotics.small_beta_report(table)


def test_csv_rows_schema():
    table = synthetic_table([2.0, 1.0], lambda b: b, lambda b: b)
    rows = asymptotics.sweep_csv_rows(table)
    assert [r["beta"] for r in rows] == [1.0, 2.0]  # sorted ascending
    assert list(rows[0].keys()) == [f.name for f in dataclasses.fields(asymptotics.SweepRow)]
