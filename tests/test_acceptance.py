"""Acceptance suite: the ten headline properties at pinned seeds and tolerances.

Each test emits one pass/fail verdict line through the acceptance_report
fixture; conftest echoes the collected lines after the pytest summary so they
are visible even under output capture.  Heavy shared artifacts (the
drift-regularizing u tables, the entropy-cost fit) live in module fixtures.
"""

import math
import time

import numpy as np
import pytest

from delaysde.bihari import apriori_check, bihari_bound
from delaysde.coupling import CouplingConfig, fit_entropy_cost, run_coupling_batch
from delaysde.girsanov import direct_estimate, weak_estimate
from delaysde.harnack import check_gradient_estimate, check_log_harnack
from delaysde.measure import batch_seg_norm, constant_segment, make_measure
from delaysde.model import make_functional, make_model
from delaysde.rng import batch_increments
from delaysde.solver import SolverConfig, simulate
from delaysde.zvonkin import (
    simulate_transformed,
    solve_u,
    theta_inverse,
    transformed_model,
    verify_decay,
)
from helpers import coarsen_increments

H8 = 2.0**-8
R0 = 1.0


@pytest.fixture(scope="module")
def nu8():
    return make_measure("exponential", R0, H8, lam=1.0)


@pytest.fixture(scope="module")
def ref8(nu8):
    return make_model("reference", measure=nu8)


@pytest.fixture(scope="module")
def sol_horizon2(ref8):
    """u table covering [0, T + r0] for the T = 1 coupling experiments."""
    return solve_u(ref8, 16.0, 2.0)


@pytest.fixture(scope="module")
def entropy_fit(nu8, ref8, sol_horizon2):
    """Six log-Harnack settings (T x distance) plus the entropy-cost fit.

    Distance 0.1 is placed at theta = 0 (probing the |xi(0)-eta(0)|^2/T term,
    bridging rate scaled as K^2 T = 16); distance 0.2 is placed on the strict
    history (paths meet at t = 0, probing the pure segment-norm term).
    """
    tm = transformed_model(ref8, nu8, sol_horizon2)
    f, _ = make_functional("tanh0_pos", nu8)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu8, 0.5).values[None], nu8.h)[0]
    hist_scale = math.sqrt(nu8.total_mass())
    reports, f1, f2, vals = [], [], [], []
    for T in (0.25, 0.5, 1.0):
        K = 4.0 / math.sqrt(T)
        for dist, kind in ((0.1, "endpoint"), (0.2, "history")):
            eta_t = xi_t.copy()
            if kind == "endpoint":
                eta_t[-1] += dist
                d0 = dist
            else:
                eta_t[:-1] += dist / hist_scale
                d0 = 0.0
            nrm = float(batch_seg_norm(nu8, (eta_t - xi_t)[None])[0])
            assert abs(nrm - dist) < 1e-12
            rep = check_log_harnack(tm, nu8, f, xi_t, eta_t, T, H8, K, 4000, 2025)
            reports.append((T, dist, kind, rep))
            f1.append(d0**2 / T)
            f2.append(dist**2)
            vals.append(rep.entropy)
    return reports, fit_entropy_cost(f1, f2, vals)


def test_criterion_1_gaussian_oracle(acceptance_report):
    t0 = time.monotonic()
    nu = make_measure("exponential", R0, H8, lam=1.0)
    m = make_model("ou", lam=1.0, sigma=1.0)
    xi = constant_segment(nu, 1.0)
    n = 100_000
    # only the terminal row is read, so the batch keeps a ring of n0 + 2 rows
    batch = simulate(m, nu, xi, SolverConfig(h=H8, t_end=1.0), 1, n, keep_path=False)
    x = batch.states[:, -1, 0]
    mean_t, var_t = math.exp(-1.0), (1.0 - math.exp(-2.0)) / 2.0
    mean_err = abs(x.mean() - mean_t)
    var_err = abs(x.var() - var_t)
    mean_tol = 3.0 * math.sqrt(var_t / n)
    var_tol = 3.0 * var_t * math.sqrt(2.0 / (n - 1))
    elapsed = time.monotonic() - t0
    acceptance_report(
        1,
        mean_err <= mean_tol and var_err <= var_tol and elapsed < 60.0,
        f"OU terminal mean off {mean_err:.2e} (tol {mean_tol:.2e}), "
        f"variance off {var_err:.2e} (tol {var_tol:.2e}), {elapsed:.1f}s",
    )


def test_criterion_2_girsanov_cross_validation(nu8, ref8, acceptance_report):
    xi = constant_segment(nu8, 1.0)
    f, _ = make_functional("tanh0")
    cfg = SolverConfig(h=H8, t_end=1.0)
    n = 100_000
    direct, d_se = direct_estimate(ref8, nu8, xi, f, 1.0, cfg, 51, n)
    west = weak_estimate(ref8, nu8, xi, f, 1.0, cfg, 52, n)
    comb = math.sqrt(d_se**2 + west.stderr**2)
    agree = abs(direct - west.unnormalized) <= 3.0 * comb
    mart = abs(west.mean_R - 1.0) <= 3.0 * west.stderr_R
    acceptance_report(
        2,
        agree and mart and not west.warnings,
        f"direct {direct:.5f} vs reweighted {west.unnormalized:.5f} "
        f"(3 sigma {3 * comb:.5f}); E[R] {west.mean_R:.4f} +- {west.stderr_R:.4f}",
    )


def test_criterion_3_strong_order(acceptance_report):
    h_fine = 2.0**-12
    n = 128
    nu_f = make_measure("exponential", R0, h_fine, lam=1.0)
    m = make_model("linear_delay", measure=nu_f)
    xi_f = constant_segment(nu_f, 1.0)
    dwf = batch_increments(41, 0, n, int(round(1.0 / h_fine)), 1, h_fine)
    ref = simulate(m, nu_f, xi_f, SolverConfig(h=h_fine, t_end=1.0), 41, n, dW=dwf)
    errs, hs = [], []
    for k in (64, 32, 16, 8):  # h in {2^-6 .. 2^-9}
        h = h_fine * k
        nu = make_measure("exponential", R0, h, lam=1.0)
        xi = constant_segment(nu, 1.0)
        batch = simulate(m, nu, xi, SolverConfig(h=h, t_end=1.0), 41, n,
                         dW=coarsen_increments(dwf, k))
        err = np.sqrt(np.mean(np.sum((batch.states[:, -1] - ref.states[:, -1]) ** 2, axis=1)))
        errs.append(float(err))
        hs.append(h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    acceptance_report(3, slope >= 0.9, f"strong-error slope {slope:.3f} over h=2^-6..2^-9 (need >= 0.9)")


def test_criterion_4_zvonkin_decay(ref8, acceptance_report):
    rep = verify_decay(ref8, [2.0, 4.0, 8.0, 16.0, 32.0], 1.0)
    star_ratios = rep.solutions[rep.lam_star].ratios if rep.lam_star is not None else [2.0]
    geometric = bool(star_ratios) and max(star_ratios) < 1.0
    acceptance_report(
        4,
        rep.monotone and rep.lam_star is not None and geometric,
        f"norms monotone={rep.monotone}, grad-u <= 1/2 from lam={rep.lam_star}, "
        f"worst Picard ratio there {max(star_ratios):.3f}",
    )


def test_criterion_5_transform_equivalence(ref8, acceptance_report):
    sol = solve_u(ref8, 16.0, 1.0, n_x=601, n_t=129)
    h_fine, n, seed = 2.0**-9, 32, 7
    dwf = batch_increments(seed, 0, n, int(round(1.0 / h_fine)), 1, h_fine)
    errs = []
    for k in (16, 8, 4, 2):  # h in {2^-5 .. 2^-8}
        h = h_fine * k
        nu = make_measure("exponential", R0, h, lam=1.0)
        tm = transformed_model(ref8, nu, sol)
        xi = constant_segment(nu, 0.5)
        cfg = SolverConfig(h=h, t_end=1.0, scheme="euler-maruyama")
        dw = coarsen_increments(dwf, k)[:, : int(round(1.0 / h))]
        plain = simulate(ref8, nu, xi, cfg, seed, n, dW=dw)
        xi_t = tm.seg_to_transformed(0.0, xi.values[None], nu.h)[0]
        states, _ = simulate_transformed(tm, nu, xi_t, cfg, seed, n, dW=dw)
        n0 = nu.n_cells
        sup = np.zeros(n)
        for j in range(n0, states.shape[1]):
            back = theta_inverse(sol, (j - n0) * h, states[:, j])
            sup = np.maximum(sup, np.abs(back - plain.states[:, j]).max(axis=1))
        errs.append(float(sup.mean()))
    ratios = [errs[i + 1] / errs[i] for i in range(3)]
    acceptance_report(
        5,
        all(r <= 0.75 for r in ratios),
        "equivalence error ratios per halving "
        + "/".join(f"{r:.3f}" for r in ratios)
        + " (need each <= 0.75)",
    )


def test_criterion_6_coupling_success(ref8, sol_horizon2, acceptance_report):
    h = 2.0**-10
    nu = make_measure("exponential", R0, h, lam=1.0)
    tm = transformed_model(ref8, nu, sol_horizon2)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu, 0.5).values[None], nu.h)[0]
    offset = 0.1 / math.sqrt(nu.total_mass() + 1.0)
    eta_t = xi_t + offset
    assert abs(float(batch_seg_norm(nu, (eta_t - xi_t)[None])[0]) - 0.1) < 1e-12
    cc = CouplingConfig(T=1.0, h=h, K=4.0)
    n, chunk = 10_000, 2000
    equal = []
    log_r = []
    for start in range(0, n, chunk):
        res = run_coupling_batch(tm, nu, xi_t, eta_t, cc, 7, chunk, path_offset=start)
        equal.append(res.terminal_segments_equal())
        log_r.append(res.log_R)
    equal = np.concatenate(equal)
    r = np.exp(np.concatenate(log_r))
    frac = float(equal.mean())
    mean_r = float(r.mean())
    se_r = float(r.std(ddof=1) / math.sqrt(n))
    acceptance_report(
        6,
        frac >= 0.99 and abs(mean_r - 1.0) <= 3.0 * se_r,
        f"terminal segments equal on {frac:.2%} of {n} seeds; "
        f"E[R] {mean_r:.4f} +- {se_r:.4f}",
    )


def test_criterion_7_log_harnack(entropy_fit, acceptance_report):
    reports, fit = entropy_fit
    all_pass = all(rep.verdict == "pass" for _, _, _, rep in reports)
    coupled = min(rep.coupled_fraction for _, _, _, rep in reports)
    ok_fit = fit.c1 > 0.0 and fit.c2 > 0.0 and fit.rel_residual <= 0.20
    worst = min(rep.margin_sigma for _, _, _, rep in reports)
    acceptance_report(
        7,
        all_pass and coupled == 1.0 and ok_fit,
        f"6/6 chain checks pass (worst margin {worst:.1f} sigma); "
        f"entropy fit c1={fit.c1:.3f}, c2={fit.c2:.4f}, residual {fit.rel_residual:.1%}",
    )


def test_criterion_8_gradient_estimate(nu8, ref8, entropy_fit, acceptance_report):
    _, fit = entropy_fit
    c_hat = fit.c1 + fit.c2
    direction = np.zeros((nu8.n_cells + 1, 1))
    direction[-1, 0] = 1.0
    m_ou = make_model("ou", lam=1.0)
    f_lin, _ = make_functional("coord0")
    eps = 0.01
    rep_ou = check_gradient_estimate(
        m_ou, nu8, f_lin, constant_segment(nu8, 1.0).values, direction, 1.0, H8, eps, 20_000, 3
    )
    oracle = math.exp(-1.0 * (1.0 + R0))
    ou_ok = abs(rep_ou.D - oracle) <= 2.0 * eps**2 + 3.0 * rep_ou.D_stderr
    f_pos, _ = make_functional("tanh0_pos", nu8)
    xi = constant_segment(nu8, 0.5).values
    ratios = []
    ref_ok = True
    for T in (0.25, 0.5, 1.0):
        rep = check_gradient_estimate(
            ref8, nu8, f_pos, xi, direction, T, H8, eps, 8000, 31, C_hat=c_hat
        )
        ratios.append(rep.ratio)
        ref_ok = ref_ok and rep.passed
    acceptance_report(
        8,
        ou_ok and ref_ok,
        f"OU derivative {rep_ou.D:.6f} vs oracle {oracle:.6f}; reference ratios "
        + "/".join(f"{r:.3f}" for r in ratios)
        + f" under C-hat={c_hat:.3f}",
    )


def test_criterion_9_bihari_bound(nu8, acceptance_report):
    m = make_model("linear_delay", measure=nu8)
    xi = constant_segment(nu8, 1.0)
    rep = apriori_check(m, nu8, xi, SolverConfig(h=H8, t_end=1.0), 1.0, 10_000, 5)
    closed = bihari_bound(lambda s: 0.5 * (1.0 + s), 0.0, 1.0, 0.0, 1.0)
    closed_err = abs(closed - (2.0 * math.e - 1.0))
    acceptance_report(
        9,
        rep.pass_fraction >= 0.999 and closed_err <= 1e-8,
        f"a-priori bound holds on {rep.pass_fraction:.2%} of {rep.n_paths} paths "
        f"(worst margin {rep.worst_margin:.3g}); closed-form inverse off by {closed_err:.2e}",
    )


def test_criterion_10_determinism(tmp_path, acceptance_report, pin_stored_row_chunk):
    from delaysde.cli import main

    sim_cfg = tmp_path / "sim.ini"
    sim_cfg.write_text(
        "[experiment]\nscenario = simulate\nn_paths = 2100\nbase_seed = 3\n"
        "[model]\nname = ou\n[measure]\nkind = exponential\nr0 = 1.0\nlam = 1.0\n"
        "[solver]\nh = 0.015625\nt_end = 1.0\n"
    )
    cpl_cfg = tmp_path / "cpl.ini"
    cpl_cfg.write_text(
        "[experiment]\nscenario = couple\nn_paths = 1100\nbase_seed = 3\n"
        "[model]\nname = linear_delay\n[measure]\nkind = exponential\nr0 = 1.0\nlam = 1.0\n"
        "[solver]\nh = 0.0078125\nt_end = 1.0\n"
        "[coupling]\nT = 0.5\nK = 6.0\ndistance0 = 0.05\ndistance_seg = 0.05\n"
    )
    ok = True
    details = []
    for label, cfg, scen in (("simulate", sim_cfg, "simulate"), ("couple", cpl_cfg, "couple")):
        if label == "couple":  # 1100 pairs span two chunks, so 8 workers start a pool
            stored_chunks = pin_stored_row_chunk()
        outputs = []
        for tag, workers in (("w1", "1"), ("w8", "8"), ("w1b", "1")):
            out = tmp_path / f"{label}-{tag}"
            code = main([scen, "--config", str(cfg), "--out", str(out), "--workers", workers])
            ok = ok and code == 0
            outputs.append(
                (out / "result.json").read_bytes() + (out / "verdict.json").read_bytes()
            )
        same = outputs[0] == outputs[1] == outputs[2]
        ok = ok and same
        details.append(f"{label}: workers 1/8 and rerun byte-identical={same}")
    assert stored_chunks == [2, 2, 2]
    acceptance_report(10, ok, "; ".join(details))
