import dataclasses
import math
import pickle

import numpy as np
import pytest

from delaysde import rng
from delaysde.harnack import (
    DegenerateVarianceError,
    ExplosionBeforeHorizonError,
    check_gradient_estimate,
    check_log_harnack,
)
from delaysde.measure import constant_segment, make_measure
from delaysde.model import make_functional, make_model
from delaysde.zvonkin import solve_u, transformed_model

H = 2.0**-7


@pytest.fixture(scope="module")
def nu():
    return make_measure("exponential", 1.0, H, lam=1.0)


@pytest.fixture(scope="module")
def tm(nu):
    return transformed_model(make_model("linear_delay", measure=nu), nu, None)


@pytest.fixture(scope="module")
def direction(nu):
    d = np.zeros((nu.n_cells + 1, 1))
    d[-1, 0] = 1.0  # unit mass at theta = 0; segment norm 1
    return d


def test_explosion_error_pickle_roundtrip():
    """A worker process can hand the error back to its parent intact."""
    err = ExplosionBeforeHorizonError(0.5)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ExplosionBeforeHorizonError
    assert back.fraction == 0.5
    assert str(back) == str(err) == "50.00% of paths hit their lifetime before the horizon"


def test_log_harnack_chain_passes(nu, tm):
    f, _ = make_functional("tanh0_pos", nu)
    xi = constant_segment(nu, 1.0).values
    c = 0.1 / math.sqrt(nu.total_mass() + 1.0)
    rep = check_log_harnack(tm, nu, f, xi, xi + c, 0.5, H, 6.0, 256, 5)
    assert rep.verdict == "pass"
    assert rep.coupled_fraction == 1.0
    assert rep.lhs <= rep.rhs + 3.0 * max(rep.lhs_stderr, 1e-12)
    assert rep.jensen_ok
    assert abs(rep.mean_R - 1.0) <= 3.5 * rep.stderr_R


def test_log_harnack_equal_starts_reduces_to_jensen(nu, tm):
    f, _ = make_functional("tanh0_pos", nu)
    xi = constant_segment(nu, 1.0).values
    rep = check_log_harnack(tm, nu, f, xi, xi.copy(), 0.25, H, 2.0, 64, 1)
    assert rep.entropy == 0.0
    assert rep.jensen_ok
    assert rep.verdict == "pass"


def test_log_harnack_short_horizon_chain(nu, tm):
    """Horizon below the delay span: the sampled inequality chain still holds,
    only the constant-form bound is out of scope there."""
    f, _ = make_functional("tanh0_pos", nu)
    xi = constant_segment(nu, 1.0).values
    rep = check_log_harnack(tm, nu, f, xi, xi + 0.05, 0.25, H, 8.0, 128, 9)
    assert rep.verdict in ("pass", "inconclusive")
    if rep.verdict == "pass":
        assert rep.lhs <= rep.rhs + 3.0 * max(rep.lhs_stderr + rep.log_pf_stderr, 1e-12)


def test_log_harnack_needs_positive_f(nu, tm):
    f, _ = make_functional("coord0")  # changes sign
    xi = constant_segment(nu, 1.0).values
    with pytest.raises(ValueError):
        check_log_harnack(tm, nu, f, xi, xi + 0.05, 0.25, H, 2.0, 32, 0)


def test_log_harnack_fitted_rhs(nu, tm):
    f, _ = make_functional("tanh0_pos", nu)
    xi = constant_segment(nu, 1.0).values
    rep = check_log_harnack(tm, nu, f, xi, xi + 0.05, 0.25, H, 6.0, 64, 2, C_fitted=1.0)
    d0 = 0.05
    dseg_sq = 0.05**2 * (nu.total_mass() + 1.0)
    assert rep.fitted_rhs == pytest.approx(rep.log_pf + d0**2 / 0.25 + dseg_sq)


def test_log_harnack_chunks_give_the_one_chunk_report(nu, monkeypatch):
    """Pairs run in chunks give the report of one batch, field by field."""
    m = make_model("reference", measure=nu)
    tm = transformed_model(m, nu, solve_u(m, 16.0, 1.5, n_x=201, n_t=13))
    f, _ = make_functional("tanh0_pos", nu)
    xi = tm.seg_to_transformed(0.0, constant_segment(nu, 0.5).values[None], nu.h)[0]
    args = (tm, nu, f, xi, xi + 0.1, 0.5, H, 5.0, 100, 11)
    whole = check_log_harnack(*args, C_fitted=1.0)
    monkeypatch.setattr(rng, "STORED_ROW_CHUNK", 32)
    chunked = check_log_harnack(*args, C_fitted=1.0)
    assert dataclasses.asdict(chunked) == dataclasses.asdict(whole)
    assert whole.setting["n"] == 100


def test_gradient_ou_oracle_exact(nu, direction):
    """Linear functional, CRN central differences: the FD derivative of the
    OU semigroup is e^{-lam (T + r0)} to rounding."""
    m = make_model("ou", lam=1.0)
    f, _ = make_functional("coord0")
    rep = check_gradient_estimate(
        m, nu, f, constant_segment(nu, 1.0).values, direction, 0.5, H, 0.01, 512, 3
    )
    assert abs(rep.D - math.exp(-1.5)) < 1e-12
    assert rep.V > 0.0
    assert rep.passed is None


def test_gradient_pass_rule_with_constant(nu, direction):
    m = make_model("ou", lam=1.0)
    f, _ = make_functional("coord0")
    args = (m, nu, f, constant_segment(nu, 1.0).values, direction, 0.5, H, 0.01, 512, 3)
    loose = check_gradient_estimate(*args, C_hat=10.0)
    assert loose.passed is True
    tight = check_gradient_estimate(*args, C_hat=1e-6)
    assert tight.passed is False
    assert loose.ratio == tight.ratio


def test_gradient_validates_inputs(nu, direction):
    m = make_model("ou")
    f, _ = make_functional("coord0")
    xi = constant_segment(nu, 1.0).values
    with pytest.raises(ValueError):
        check_gradient_estimate(m, nu, f, xi, direction, 0.5, H, 1e-4, 32, 0)
    with pytest.raises(ValueError):
        check_gradient_estimate(m, nu, f, xi, 2.0 * direction, 0.5, H, 0.01, 32, 0)


def test_gradient_variance_floor_error(nu, direction):
    # no noise: V = 0 while the deterministic derivative is positive
    m = make_model("zero", lam=1.0)
    f, _ = make_functional("coord0")
    with pytest.raises(DegenerateVarianceError):
        check_gradient_estimate(
            m, nu, f, constant_segment(nu, 1.0).values, direction, 0.5, H, 0.01, 16, 0
        )
