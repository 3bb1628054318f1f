import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from bectension import solver


def mm_half_line_oracle(m, half_length=40.0, h=0.005):
    """Independent numerical minimization of the half-line transition cost.

    Discretizes int_0^L v'^2 + (1/2)(1-v^2)^2 with v(0)=m pinned and the far
    end free, and minimizes with scipy's L-BFGS-B from an off-optimal start.
    """
    n = int(half_length / h) + 1
    t = np.linspace(0.0, half_length, n)
    wts = np.ones(n)
    wts[0] = wts[-1] = 0.5

    def fun(vin):
        v = np.concatenate(([m], vin))
        dv = np.diff(v) / h
        f = h * np.sum(dv * dv) + h * np.sum(wts * 0.5 * (1.0 - v**2) ** 2)
        g = np.zeros(n)
        g[:-1] -= 2.0 * dv
        g[1:] += 2.0 * dv
        g += -2.0 * h * wts * v * (1.0 - v**2)
        return f, g[1:]

    v0 = np.tanh(t / 1.3 + np.arctanh(min(m, 0.999999)))
    res = scipy_minimize(fun, v0[1:], jac=True, method="L-BFGS-B",
                         options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-12})
    return res.fun


@pytest.fixture(scope="session")
def beta1_result():
    """Converged default solve at beta=1, shared across the suite."""
    return solver.solve(1.0)


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized default solves keyed by beta (acceptance reuses many)."""
    cache = {}

    def get(beta):
        if beta not in cache:
            cache[beta] = solver.solve(beta)
        return cache[beta]

    return get


@pytest.fixture(scope="session")
def transition_cost_oracle():
    """Memoized ``mm_half_line_oracle`` keyed by depth m (two tests share it)."""
    cache = {}

    def get(m):
        if m not in cache:
            cache[m] = mm_half_line_oracle(m)
        return cache[m]

    return get


@pytest.fixture
def count_trig():
    """``count_trig(f, *args, **kwargs)`` calls f while np.sin and np.cos count
    the elements they are given; returns f's result and that count."""

    def count(f, *args, **kwargs):
        counted = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("sin", "cos"):
                def counting(x, *a, _f=getattr(np, name), **kw):
                    counted.append(np.size(x))
                    return _f(x, *a, **kw)

                patch.setattr(np, name, counting)
            result = f(*args, **kwargs)
        return result, sum(counted)

    return count
