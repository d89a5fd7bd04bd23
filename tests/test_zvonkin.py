import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from delaysde import coupling, zvonkin
from delaysde.coupling import CouplingConfig, run_coupling_batch
from delaysde.girsanov import solve_qqt
from delaysde.measure import (
    Rows,
    batch_seg_norm,
    constant_segment,
    delay_averages,
    make_measure,
)
from delaysde.model import ModelSpec, OperatorA, _const_Q, _zero_B, make_model
from delaysde.solver import SolverConfig, simulate
from delaysde.zvonkin import (
    CoverageError,
    DivergenceError,
    InverseConvergenceError,
    ZvonkinSolution,
    needs_transform,
    picard_u,
    simulate_transformed,
    solve_u,
    start_transformed,
    theta,
    theta_inverse,
    theta_inverse_ud,
    theta_segment,
    transformed_coefficients,
    transformed_model,
    verify_decay,
)

RATES = np.array([1.0])


def _ou_gathers(grids, rates, sigma, z, k, dt):
    """Per grid axis, the (cell index, blend weight) of the Gauss-Hermite nodes
    E x + sd z of P0 over k steps of dt, clipped to the uniform grid: the
    gather form P0 took before its CSR operators, kept with _apply_gathers as
    their oracle."""
    gathers = []
    for x, rate, sd in zip(grids, rates, zvonkin._ou_sd(rates, sigma, k * dt)):
        E = math.exp(-rate * k * dt)
        q = np.clip(E * x[:, None] + sd * z[None, :], x[0], x[-1]).ravel()
        idx = zvonkin._uniform_cells(x, q)
        gathers.append((idx, (q - x[idx]) / (x[idx + 1] - x[idx])))
    return gathers


def _apply_gathers(vals, gathers, w):
    """P0 on the grid one axis at a time from the gathers of _ou_gathers."""
    for a, (idx, frac) in enumerate(gathers):
        frac = frac.reshape(-1, *(1,) * (vals.ndim - a - 1))
        blend = vals.take(idx, axis=a)
        blend *= 1.0 - frac
        blend += vals.take(idx + 1, axis=a) * frac
        blend = blend.reshape(*vals.shape[: a + 1], len(w), *vals.shape[a + 1 :])
        vals = np.tensordot(blend, w, axes=([a + 1], [0]))
    return vals


def _old_semigroup(disc, quad_order):
    """disc.semigroup through the gathers of _ou_gathers."""
    z, w = zvonkin._hermite(quad_order)
    gathers = [
        _ou_gathers(disc.grids, disc.rates, disc.sigma, z, k, disc.dt)
        for k in range(1, len(disc.s_grid))
    ]
    return lambda k, vals: _apply_gathers(vals, gathers[k - 1], w)


def ou_apply(vals, grids, rates, sigma, dt, quad_order=24):
    """(P0_dt g) on the grid for componentwise g given by `vals` (*shape, c).

    Gauss-Hermite in each noise direction, applied axis by axis; interpolation
    queries are clipped to the grid (constant extension past the edges).
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return vals.copy()
    z, w = zvonkin._hermite(quad_order)
    ops = zvonkin._ou_operators(grids, np.asarray(rates, dtype=float), sigma, z, w, dt, 1)
    return zvonkin._apply_ou(vals, ops[0])


def theta_inverse_segment(sol, t, seg, h):
    return _pull_back_segment(sol, t, seg, h)[0]


def _pull_back_segment(sol, t, seg, h):
    """theta_inverse_segment, and the ud of theta_inverse_ud at its last node
    (time t)."""
    out = np.empty_like(seg)
    for i, ti in enumerate(zvonkin._seg_times(t, seg.shape[1], h)):
        out[:, i], ud = theta_inverse_ud(sol, ti, seg[:, i])
    return out, ud


def measure_K(tm, nu, T, box=3.0, n_samples=2000, seed=0) -> dict:
    """Sampled bounds of the coupling rate: sup |Q|, sup |(QQ*)^{-1}|, and
    the segment-Lipschitz constant of the transformed drift.

    The samples are transformed states and windows; the coefficients are
    transformed_coefficients at their pull-backs.  A null cell has weight 0
    in the pulled-back average and in the segment norm, so the values sampled
    there do not change the bounds.
    """
    rng = np.random.default_rng(seed)
    sol, d = tm.sol, tm.base.d
    n0 = nu.n_cells

    def drift(t, seg):
        inv, ud = (seg, None) if sol is None else _pull_back_segment(sol, t, seg, nu.h)
        return transformed_coefficients(tm, t, seg[:, -1], inv[:, -1], ud, nu.average(inv))[0]

    q_sup = qinv_sup = lip = 0.0
    for t in np.linspace(0.0, T, 9):
        x = rng.uniform(-box, box, (n_samples, d))
        x_inv, ud = (x, None) if sol is None else theta_inverse_ud(sol, t, x)
        Q = transformed_coefficients(tm, t, x, x_inv, ud, None)[1].reshape(n_samples, d, -1)
        QQt = np.einsum("nik,njk->nij", Q, Q)
        ev = np.linalg.eigvalsh(QQt)
        q_sup = max(q_sup, float(np.sqrt(ev[:, -1].max())))
        qinv_sup = max(qinv_sup, float(1.0 / ev[:, 0].min()))
        xi = (box / 2) * rng.standard_normal((n_samples, n0 + 1, d))
        eta = xi + 0.3 * rng.standard_normal(xi.shape)
        num = np.linalg.norm(drift(t, xi) - drift(t, eta), axis=1)
        den = batch_seg_norm(nu, xi - eta)
        lip = max(lip, float((num / np.maximum(den, 1e-300)).max()))
    return {"Q_sup": q_sup, "QQt_inv_sup": qinv_sup, "B_lip": lip}


def _old_ou_apply(vals, grids, rates, sigma, dt, quad_order=24):
    """ou_apply before it went axis by axis, kept as its oracle: np.interp in
    d=1, RegularGridInterpolator over all quad_order^d tensor nodes in d>1."""
    d = len(grids)
    z, w = zvonkin._hermite(quad_order)
    E = np.exp(-np.asarray(rates, dtype=float) * dt)
    sd = zvonkin._ou_sd(np.asarray(rates, dtype=float), sigma, dt)
    shape = vals.shape[:-1]
    nc = vals.shape[-1]
    if d == 1:
        x = grids[0]
        q = np.clip(E[0] * x[:, None] + sd[0] * z[None, :], x[0], x[-1])
        out = np.empty((len(x), nc))
        for c in range(nc):
            out[:, c] = np.interp(q.ravel(), x, vals[:, c]).reshape(len(x), -1) @ w
        return out
    znodes = np.array(list(itertools.product(*([z] * d))))  # (nq^d, d)
    wnodes = np.prod(np.array(list(itertools.product(*([w] * d)))), axis=1)
    pts = np.array(np.meshgrid(*grids, indexing="ij")).reshape(d, -1).T  # (N, d)
    q = E * pts[:, None, :] + sd * znodes[None, :, :]
    for k in range(d):
        np.clip(q[:, :, k], grids[k][0], grids[k][-1], out=q[:, :, k])
    out = np.empty((pts.shape[0], nc))
    for c in range(nc):
        itp = RegularGridInterpolator(grids, vals[..., c])
        out[:, c] = itp(q.reshape(-1, d)).reshape(pts.shape[0], -1) @ wnodes
    return out.reshape(*shape, nc)


@pytest.fixture(scope="module")
def nu6():
    return make_measure("exponential", 1.0, 2.0**-6, lam=1.0)


@pytest.fixture(scope="module")
def ref6(nu6):
    return make_model("reference", measure=nu6)


@pytest.fixture(scope="module")
def sol_small(ref6):
    return solve_u(ref6, 16.0, 1.0, n_x=201, n_t=33)


@pytest.fixture(scope="module")
def sol_d2(nu6):
    m = make_model("reference", measure=nu6, d=2)
    return solve_u(m, 16.0, 1.0, n_x=13, n_t=5, quad_order=6)


def test_ou_apply_constant_and_linear():
    g = np.linspace(-10.0, 10.0, 801)
    dt = 0.3
    E = math.exp(-dt)
    ones = ou_apply(np.ones((801, 1)), [g], RATES, 1.0, dt)
    np.testing.assert_allclose(ones, 1.0, atol=1e-13)
    lin = ou_apply(g[:, None], [g], RATES, 1.0, dt)
    inner = np.abs(g) < 5.0  # away from the clipped edges
    np.testing.assert_allclose(lin[inner, 0], E * g[inner], atol=1e-12)


def test_ou_apply_second_moment():
    g = np.linspace(-10.0, 10.0, 801)
    dt = 0.3
    E = math.exp(-dt)
    var = (1.0 - math.exp(-2.0 * dt)) / 2.0
    out = ou_apply((g**2)[:, None], [g], RATES, 1.0, dt)
    inner = np.abs(g) < 5.0
    np.testing.assert_allclose(out[inner, 0], E**2 * g[inner] ** 2 + var, atol=5e-4)


def test_ou_apply_zero_time_identity():
    g = np.linspace(-2.0, 2.0, 21)
    vals = np.sin(g)[:, None]
    np.testing.assert_array_equal(ou_apply(vals, [g], RATES, 1.0, 0.0), vals)
    with pytest.raises(ValueError):
        ou_apply(vals, [g], RATES, 1.0, -0.1)


def test_ou_apply_two_dimensional_separable():
    g = np.linspace(-8.0, 8.0, 161)
    dt = 0.2
    E = math.exp(-dt)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    vals = (xx + yy)[..., None]
    out = ou_apply(vals, [g, g], np.array([1.0, 1.0]), 1.0, dt, quad_order=12)
    inner = (np.abs(xx) < 4) & (np.abs(yy) < 4)
    np.testing.assert_allclose(out[..., 0][inner], E * (xx + yy)[inner], atol=1e-10)


def test_ou_operators_find_the_searchsorted_cells(ref6):
    """The arithmetic cell of _ou_operators, the index array its A and B
    share, is np.searchsorted(x, q) - 1, clipped to the cells, on every
    Gauss-Hermite offset of the test grids and of the solve's grid, on the
    nodes themselves and next to them, and for queries clipped at either
    end."""
    z, w = zvonkin._hermite(24)
    spans = ((10.0, 801), (2.0, 21), (8.0, 161), (3.0, 81), (5.0, 8))
    grids = [np.linspace(-a, a, n) for a, n in spans]
    grids += zvonkin._discretize(ref6, 16.0, 1.0, 6.0, 101, 17, 24).grids
    for x in grids:
        def cells(q):
            return np.clip(np.searchsorted(x, q) - 1, 0, len(x) - 2)

        for dt in (0.01, 0.2, 0.3, 2.0):
            sd = zvonkin._ou_sd(np.array([1.0]), 1.0, dt)[0]
            q = np.clip(math.exp(-dt) * x[:, None] + sd * z[None, :], x[0], x[-1]).ravel()
            if dt == 0.01:
                assert q.min() == x[0] and q.max() == x[-1]  # clipped at both ends
            ((A, B),), = zvonkin._ou_operators([x], np.array([1.0]), 1.0, z, w, dt, 1)
            assert A.indices.dtype == np.int32 and np.shares_memory(A.indices, B.indices)
            np.testing.assert_array_equal(A.indices, cells(q))
        near = np.concatenate([x, np.nextafter(x, -np.inf)[1:], np.nextafter(x, np.inf)[:-1]])
        np.testing.assert_array_equal(zvonkin._uniform_cells(x, near), cells(near))


@pytest.mark.parametrize("d, kw", [
    (1, dict(n_x=101, n_t=17, quad_order=24)),
    (2, dict(n_x=21, n_t=9, quad_order=12)),
    (3, dict(n_x=7, n_t=5, quad_order=6)),
])
def test_semigroup_matches_old_gathers(nu6, d, kw):
    """Every offset's A @ v + B @ dv along each axis is the gathers' linear
    interpolation at the same clipped nodes, to 1e-15 of max |v|."""
    m = make_model("reference", measure=nu6, d=d)
    disc = zvonkin._discretize(m, 16.0, 1.0, 6.0, kw["n_x"], kw["n_t"], kw["quad_order"])
    old = _old_semigroup(disc, kw["quad_order"])
    rng = np.random.default_rng(6)
    for k in range(1, len(disc.s_grid)):
        vals = rng.standard_normal(disc.b_tab.shape[1:])
        new = disc.semigroup(k, vals)
        assert new.shape == vals.shape
        np.testing.assert_allclose(new, old(k, vals), rtol=0, atol=1e-15 * np.abs(vals).max())


@pytest.mark.parametrize("sizes, rates", [
    ((81,), [1.0]),
    ((21, 17), [1.0, 0.5]),
    ((9, 7, 8), [1.0, 0.5, 2.0]),
])
def test_ou_apply_matches_old_tensor_quadrature(sizes, rates):
    """Axis by axis equals the old quadrature over all tensor nodes, on grids
    whose axes differ in length, range and rate."""
    grids = [np.linspace(-3.0 - k, 3.0 + k, n) for k, n in enumerate(sizes)]
    mesh = np.meshgrid(*grids, indexing="ij")
    vals = np.stack([np.sin(sum(mesh)), np.tanh(mesh[0] * mesh[-1])], axis=-1)
    for dt in (0.05, 0.3):
        new = ou_apply(vals, grids, np.array(rates), 0.8, dt, quad_order=6)
        old = _old_ou_apply(vals, grids, np.array(rates), 0.8, dt, quad_order=6)
        assert new.shape == vals.shape
        np.testing.assert_allclose(new, old, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d, kw", [
    (1, dict(n_x=101, n_t=17)),
    (2, dict(n_x=13, n_t=5, quad_order=6)),
])
def test_solve_u_and_picard_u_match_old_gathers(nu6, monkeypatch, d, kw):
    """The sweep and the Picard iterates through the CSR operators match a
    run through the old gathers: the tables to 1e-14, the ratios to 1e-9
    relative at lam = 16, the lam of the CLI's transform.  A ratio divides
    two sup-norm updates, the last below tol = 1e-8, and the reordered sums
    move an iterate by a few units of 1e-17; at lam = 4, where |u| ~ 0.25
    and the sweeps run longer, that is a few 1e-9 of the last ratios."""
    m = make_model("reference", measure=nu6, d=d)
    lams = {16.0: 1e-9, 4.0: 1e-8}
    new_s = solve_u(m, 16.0, 1.0, **kw)
    new_p = {lam: picard_u(m, lam, 1.0, **kw) for lam in lams}
    discretize = zvonkin._discretize
    calls = []

    def with_old_gathers(*args):
        disc = discretize(*args)
        old = _old_semigroup(disc, args[-1])
        disc.semigroup = lambda k, vals: calls.append(k) or old(k, vals)
        return disc

    monkeypatch.setattr(zvonkin, "_discretize", with_old_gathers)
    old_s = solve_u(m, 16.0, 1.0, **kw)
    assert calls
    np.testing.assert_allclose(new_s.u_tab, old_s.u_tab, rtol=0, atol=1e-14)
    for lam, rtol in lams.items():
        old_p = picard_u(m, lam, 1.0, **kw)
        np.testing.assert_allclose(new_p[lam].u_tab, old_p.u_tab, rtol=0, atol=1e-14)
        assert len(new_p[lam].ratios) == len(old_p.ratios) > 3
        np.testing.assert_allclose(new_p[lam].ratios, old_p.ratios, rtol=rtol)


def _solve_u_factoring_every_level(m, lam, T, x_max=6.0, n_x=401, n_t=65, quad_order=24):
    """u of solve_u's sweep with a fresh splu of the level operator on every
    level, as the sweep ran before it kept one factorization per drift
    level; kept as its oracle."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    disc = zvonkin._discretize(m, lam, T, x_max, n_x, n_t, quad_order)
    grids, b_tab = disc.grids, disc.b_tab
    d = len(grids)
    n = b_tab[0].size // d
    half = 0.5 * disc.dt
    grads = [zvonkin._gradient_matrix(grids, k) for k in range(d)]
    u = np.zeros(b_tab.shape)
    g = np.empty_like(u)
    g[-1] = b_tab[-1]
    for i in range(n_t - 2, -1, -1):
        b = b_tab[i].reshape(n, d)
        op = sparse.identity(n) - half * sum(grads[k].multiply(b[:, k : k + 1]) for k in range(d))
        rhs = half * b + disc.tail(g, i).reshape(n, d)
        u[i] = splu(sparse.csc_matrix(op)).solve(rhs).reshape(u[i].shape)
        g[i] = zvonkin._g_of(b_tab[i : i + 1], u[i : i + 1], grids)[0]
    return u


@pytest.mark.parametrize("d, kw", [
    (1, dict(n_x=101, n_t=17)),
    (2, dict(n_x=13, n_t=5, quad_order=6)),
])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_solve_u_factors_each_distinct_drift_level_once(nu6, monkeypatch, d, kw, homogeneous):
    """solve_u factors the level operator again only where b changes: once
    for a catalog drift, on every level for b(t, x) = (1 + t) tanh(x); its u
    has the bits of a factorization per level either way."""
    import scipy.sparse.linalg

    m = make_model("reference", measure=nu6, d=d)
    if not homogeneous:
        m = dataclasses.replace(m, b=lambda t, x: (1.0 + t) * np.tanh(x))
    splu = scipy.sparse.linalg.splu
    factored = []
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a: factored.append(a) or splu(a))
    sol = solve_u(m, 16.0, 1.0, **kw)
    assert len(factored) == (1 if homogeneous else kw["n_t"] - 1)
    monkeypatch.undo()
    np.testing.assert_array_equal(sol.u_tab, _solve_u_factoring_every_level(m, 16.0, 1.0, **kw))


def test_u_solve_peaks_near_its_operators():
    """At the CLI couple geometry (r0 1, T 0.5 + r0, default grid: 860
    nodes, 24 Gauss-Hermite nodes, 64 offsets), _discretize and the sweep
    peak below 1.25 x the bytes of the operators and below the 21.1 MB the
    gather tables took, so the operators hold no second copy and the
    sweep's own arrays stay small beside them."""
    import tracemalloc

    nu = make_measure("exponential", 1.0, 2.0**-8, lam=1.0)
    m = make_model("reference", measure=nu)
    disc = zvonkin._discretize(m, 16.0, 1.5, 6.0, 401, 65, 24)
    arrays = [a for axes in disc.ops for pair in axes for M in pair for a in (M.data, M.indices, M.indptr)]
    # each buffer once: A's weights and row pointers and the shared index arrays
    ops_bytes = sum({a.__array_interface__["data"][0]: a.nbytes for a in arrays}.values())
    del disc, arrays
    assert ops_bytes == pytest.approx(860 * 24 * 64 * 12, rel=0.02)
    tracemalloc.start()
    try:
        solve_u(m, 16.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * ops_bytes and peak < 21.1e6


def test_solve_u_zero_drift_is_zero():
    sol = solve_u(make_model("ou"), 4.0, 1.0, n_x=101, n_t=17)
    assert sol.u_sup == 0.0
    assert sol.du_sup == 0.0


def test_solve_u_crude_sup_bound(sol_small, ref6):
    """From the fixed point: ||u|| <= (||grad u|| ||b|| + ||b||) / lam."""
    bound = (sol_small.du_sup * ref6.b_sup + ref6.b_sup) / sol_small.lam
    assert 0.0 < sol_small.u_sup <= bound
    assert sol_small.du_sup <= 0.5
    assert sol_small.ratios == []  # the direct solve has no contraction history


@pytest.mark.parametrize("d, kw", [
    (1, dict(n_x=101, n_t=17)),
    (2, dict(n_x=13, n_t=5, quad_order=6)),
])
def test_solve_u_is_picard_fixed_point(nu6, d, kw):
    """The backward sweep solves the discrete equation Picard iterates on."""
    m = make_model("reference", measure=nu6, d=d)
    sol = solve_u(m, 4.0, 1.0, **kw)
    pic = picard_u(m, 4.0, 1.0, **kw)
    assert pic.ratios and max(pic.ratios) < 1.0
    assert sol.u_sup > 0.0
    np.testing.assert_allclose(sol.u_tab, pic.u_tab, rtol=0, atol=1e-7)


def test_solve_u_separable_d2_matches_d1(nu6):
    """The d=2 reference drift acts componentwise, so each component of its u
    is the d=1 u in that coordinate and the cross derivatives vanish (up to
    rounding in the tensor quadrature)."""
    kw = dict(n_x=13, n_t=5, quad_order=6)
    u1 = solve_u(make_model("reference", measure=nu6), 16.0, 1.0, **kw).u_tab[..., 0]
    sol2 = solve_u(make_model("reference", measure=nu6, d=2), 16.0, 1.0, **kw)
    shape = (5, u1.shape[1], u1.shape[1])
    assert sol2.u_tab.shape == (*shape, 2)
    np.testing.assert_allclose(sol2.u_tab[..., 0], np.broadcast_to(u1[:, :, None], shape), atol=1e-12)
    np.testing.assert_allclose(sol2.u_tab[..., 1], np.broadcast_to(u1[:, None, :], shape), atol=1e-12)
    assert np.abs(sol2.du_tab[..., 0, 1]).max() < 1e-12
    assert np.abs(sol2.du_tab[..., 1, 0]).max() < 1e-12
    assert sol2.u_sup > 0.0


def test_solve_u_terminal_condition(sol_small):
    # u(T, .) = 0
    assert np.abs(sol_small.u_tab[-1]).max() == 0.0


def test_solve_u_input_validation(ref6):
    with pytest.raises(ValueError):
        solve_u(ref6, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_u(make_model("zero"), 4.0, 1.0)  # degenerate diffusion


def test_solve_u_divergence_reported():
    def b(t, x):
        return 50.0 * np.tanh(5.0 * x)

    m = ModelSpec("steep", 1, 1, OperatorA([1.0]), b, _zero_B, _const_Q(1.0, 1, 1),
                  Q_bounds={"Q": 1.0})
    with pytest.raises(DivergenceError):
        solve_u(m, 0.05, 1.0, n_x=101, n_t=17)
    with pytest.raises(DivergenceError):
        picard_u(m, 0.05, 1.0, n_x=101, n_t=17)


def test_theta_roundtrip(sol_small):
    x = np.linspace(-3.0, 3.0, 41)[:, None]
    for t in (0.0, 0.37, 1.0):
        y = theta(sol_small, t, x)
        back = theta_inverse(sol_small, t, y)
        assert np.abs(back - x).max() < 1e-10


def _fixed_point_inverse(sol, t, y, tol=1e-12, max_iter=200):
    """The Theta^{-1} fixed-point loop that d=1 used before the exact
    inverse, and d>1 before it stopped row by row, kept as their oracle: it
    stops on the batch maximum of the update."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    x = y.copy()
    for _ in range(max_iter):
        xn = y - sol.eval_u(t, x)
        if np.abs(xn - x).max() < tol:
            return xn
        x = xn
    raise AssertionError("oracle fixed point did not converge")


def _table_solution(u_nodes, u_last=None):
    """A d=1 solution on the grid -2..2 with u(0, .) = u_nodes and u(1, .) =
    u_last, by default u_nodes as well."""
    g = np.linspace(-2.0, 2.0, len(u_nodes))
    u = np.stack([u_nodes, u_nodes if u_last is None else u_last]).astype(float)[..., None]
    du = np.gradient(u, g, axis=1)[..., None]
    return ZvonkinSolution(1.0, 1.0, RATES, 1.0, np.array([0.0, 1.0]), [g], u, du)


@pytest.mark.parametrize("t", [5.0 / 32.0, 0.37, -0.5, 1.5])  # level node, between, clamped
def test_theta_inverse_matches_fixed_point_oracle(sol_small, t):
    g = sol_small.grids[0]
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 400), g[(np.abs(g) < 4.0)]])[:, None]
    y = theta(sol_small, t, x)
    exact = theta_inverse(sol_small, t, y)
    np.testing.assert_allclose(exact, _fixed_point_inverse(sol_small, t, y), rtol=0, atol=1e-12)
    np.testing.assert_allclose(exact, x, rtol=0, atol=1e-12)


def test_eval_u_du_matches_separate_lookups(sol_small, sol_d2):
    """eval_u_du is eval_u and eval_du from one lookup, and theta_inverse_ud
    is theta_inverse followed by eval_u_du at the root, bit for bit: on a
    time level, between two, clamped, in d=1 also with y on every node of
    Theta(t, .), where the nudge decides the cell, up to the right edge."""
    rng = np.random.default_rng(4)
    for sol in (sol_small, sol_d2):
        d, g = sol.d, sol.grids[0]
        nodes = np.stack([g, g[::-1]], axis=1)[:, :d]
        x = np.concatenate([rng.uniform(g[0], g[-1], (500, d)), nodes, np.full((1, d), g[-1])])
        for t in (0.0, 5.0 / 32.0, 0.37, -0.5, 1.5):
            u, du = sol.eval_u_du(t, x)
            assert u.shape == (len(x), d) and du.shape == (len(x), d, d)
            np.testing.assert_allclose(u, sol.eval_u(t, x), rtol=0, atol=1e-14)
            np.testing.assert_allclose(du, sol.eval_du(t, x), rtol=0, atol=1e-14)
            y = theta(sol, t, x[np.abs(x).max(axis=1) < 3.0])
            if d == 1:  # the nodes that y may take, and the largest y
                on = g + sol._level(t)[0, :-1]
                edge = min(on[-1], g[-1])
                y = np.concatenate([y, on[(on >= g[0]) & (on <= g[-1])][:, None], [[edge]]])
            root, ud = theta_inverse_ud(sol, t, y)
            np.testing.assert_array_equal(root, theta_inverse(sol, t, y))
            np.testing.assert_array_equal(ud, _stacked_ud(*sol.eval_u_du(t, root)))
        assert np.shares_memory(sol.u_tab, sol._ud) and np.shares_memory(sol.du_tab, sol._ud)


def _old_eval_tab(sol, tab, t, x):
    """The d>1 lookup before one corner gather served every d, kept as its
    oracle: one RegularGridInterpolator per component and time level."""
    i, j, frac = sol._time_blend(t)
    comp_shape = tab.shape[1 + sol.d :]
    flat = tab.reshape(tab.shape[0], *tab.shape[1 : 1 + sol.d], -1)
    out = np.empty((x.shape[0], flat.shape[-1]))
    for c in range(flat.shape[-1]):
        lo = RegularGridInterpolator(sol.grids, flat[i, ..., c])(x)
        if frac:
            hi = RegularGridInterpolator(sol.grids, flat[j, ..., c])(x)
            lo = (1 - frac) * lo + frac * hi
        out[:, c] = lo
    return out.reshape(x.shape[0], *comp_shape)


def test_d2_lookup_matches_old_grid_interpolator(sol_d2):
    """In d=2 the corner gather is multilinear interpolation, also on the
    nodes and the far edges of the grid."""
    rng = np.random.default_rng(7)
    g = sol_d2.grids[0]
    edges = np.array([[g[-1], g[0]], [g[0], g[-1]], [g[-1], g[-1]], [g[3], g[-1]]])
    x = np.concatenate([rng.uniform(g[0], g[-1], (400, 2)), np.stack([g, g[::-1]], axis=1), edges])
    for t in (0.0, 0.25, 0.37, -0.5, 1.5):  # level node, level node, between, clamped
        u, du = sol_d2.eval_u_du(t, x)
        for new, tab in ((u, sol_d2.u_tab), (du, sol_d2.du_tab)):
            np.testing.assert_allclose(new, _old_eval_tab(sol_d2, tab, t, x), rtol=0, atol=1e-14)


def test_d2_theta_inverse_rows_are_batch_members(sol_d2):
    """Each row of the d=2 fixed point stops on its own update, so it has the
    bits of its single-row inverse; the batch agrees with the old loop that
    stopped on the batch maximum to that loop's tolerance."""
    rng = np.random.default_rng(8)
    x = rng.uniform(-3.0, 3.0, (256, 2))
    t = 0.37
    y = theta(sol_d2, t, x)
    batch = theta_inverse(sol_d2, t, y)
    single = np.concatenate([theta_inverse(sol_d2, t, y[i : i + 1]) for i in range(len(y))])
    np.testing.assert_array_equal(batch, single)
    np.testing.assert_allclose(batch, _fixed_point_inverse(sol_d2, t, y), rtol=0, atol=1e-12)
    np.testing.assert_allclose(batch, x, rtol=0, atol=1e-12)


def test_lookup_is_np_interp_bit_for_bit(sol_small):
    """On a time level the d=1 lookup is np.interp of u and of du, also on and
    next to the nodes, where rounding puts floor((x - x0)/dx) in the cell
    below (on the solved grid) or above (on the 11-node grid)."""
    rng = np.random.default_rng(5)
    for sol, i in ((sol_small, 7), (_table_solution(rng.uniform(-0.3, 0.3, 11)), 0)):
        g = sol.grids[0]
        x = np.concatenate([
            g, np.nextafter(g, -np.inf)[1:], np.nextafter(g, np.inf)[:-1],
            rng.uniform(g[0], g[-1], 200),
        ])
        u, du = sol.eval_u_du(sol.s_grid[i], x[:, None])
        np.testing.assert_array_equal(u[:, 0], np.interp(x, g, sol.u_tab[i, :, 0]))
        np.testing.assert_array_equal(du[:, 0, 0], np.interp(x, g, sol.du_tab[i, :, 0, 0]))


def _old_theta_inverse_ud(sol, t, y):
    """The d=1 theta_inverse_ud before the bin table and the time-first
    lookup, kept as their oracle: np.interp's binary search over the nodes
    of Theta(t, .), then np.interp of u and of du on each time level at the
    root, blended in time last."""
    g = sol.grids[0]
    i, j, frac = sol._time_blend(t)
    u = sol.u_tab[i, :, 0]
    x = np.interp(y[:, 0], g + ((1 - frac) * u + frac * sol.u_tab[j, :, 0] if frac else u), g)

    def level(lv):
        return np.stack([np.interp(x, g, sol.u_tab[lv, :, 0]), np.interp(x, g, sol.du_tab[lv, :, 0, 0])])

    ud = level(i)
    if frac:
        ud = (1 - frac) * ud + frac * level(j)
    return x[:, None], ud


def _steep(n, start, slope):
    """u on n nodes of -2..2: 0 up to node start, then slope over ten cells,
    then constant."""
    dx = 4.0 / (n - 1)
    return slope * dx * np.clip(np.arange(n) - start, 0, 10)


@pytest.mark.parametrize("case", ["solved", "crowded", "steep", "random"])
def test_theta_inverse_ud_matches_interp_oracle(sol_small, monkeypatch, case):
    """The bin-table root is np.interp's bit for bit, and its ud is the old
    x-first lookup's to 1e-15 and eval_u_du's at the root bit for bit.  y
    lies on every node of Theta(t, .), on its last node, just below each
    node (where the root may round onto the next grid node), across its
    narrowest cell and at random; batches have one row (binary search) and
    2048 (bins); t is on a time level, between two, and clamped.  A u of
    slope -0.95 over ten cells makes those cells 20 times narrower than the
    rest: the bin table stays capped and the rows step through the crowded
    bins.  At slope -0.999 a bin holds more nodes than a binary search takes
    steps, and the search takes over."""
    rng = np.random.default_rng(9)
    if case == "solved":
        sol, ts = sol_small, (5.0 / 32.0, 0.37, -0.5, 1.5)
    elif case == "crowded":
        sol, ts = _table_solution(_steep(41, 10, -0.95), _steep(41, 25, -0.96)), (0.0, 0.37, -0.5, 1.5)
    elif case == "steep":
        sol, ts = _table_solution(_steep(41, 10, -0.999), _steep(41, 25, -0.9995)), (0.0, 0.37, -0.5, 1.5)
    else:
        sol, ts = _table_solution(rng.uniform(-0.15, 0.15, 11), rng.uniform(-0.15, 0.15, 11)), (0.0, 0.6, 1.5)
    g = sol.grids[0]
    sizes, fullest = [], []
    real_bincount = np.bincount

    def bincount(a, *args, **kwargs):
        out = real_bincount(a, *args, **kwargs)
        sizes.append(len(out))
        fullest.append(out.max())
        return out

    monkeypatch.setattr(np, "bincount", bincount)
    for t in ts:
        nodes = g + sol._level(t)[0, :-1]
        k = int(np.argmin(np.diff(nodes)))
        narrow = nodes[k] + np.array([0.0, 0.25, 0.5, 0.75]) * (nodes[k + 1] - nodes[k])
        below = np.nextafter(nodes[1:], -np.inf)  # roots that may round onto the next node
        y = np.concatenate([nodes, [nodes[-1]], below, narrow])
        lo, hi = max(nodes[0], g[0]), min(nodes[-1], g[-1])
        y = y[(y >= lo) & (y <= hi)]
        y = np.concatenate([y, rng.uniform(lo, hi, 2048 - len(y))])[:, None]
        if case in ("crowded", "steep"):
            assert y.max() == nodes[-1]
        want_x, want_ud = _old_theta_inverse_ud(sol, t, y)
        root, ud = theta_inverse_ud(sol, t, y)
        np.testing.assert_array_equal(root, want_x)
        np.testing.assert_allclose(ud, want_ud, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(ud, _stacked_ud(*sol.eval_u_du(t, root)))
        for i in range(0, len(y), 7):
            one, ud_one = theta_inverse_ud(sol, t, y[i : i + 1])
            np.testing.assert_array_equal(one, root[i : i + 1])
            np.testing.assert_array_equal(ud_one, ud[:, i : i + 1])
    assert sizes and max(sizes) <= zvonkin._BINS_PER_NODE * len(g) + 1
    depth = len(g).bit_length()
    if case == "crowded":
        assert 1 < max(fullest) <= depth
    elif case == "steep":
        assert max(fullest) > depth


def test_theta_inverse_root_outside_grid_raises():
    sol = _table_solution(np.full(5, 0.5))  # Theta(t, x) = x + 1/2
    np.testing.assert_allclose(theta_inverse(sol, 0.3, np.array([[1.0]])), [[0.5]], atol=1e-15)
    with pytest.raises(CoverageError):
        theta_inverse(sol, 0.3, np.array([[-1.9]]))  # y on the grid, root -2.4 is not


@pytest.mark.parametrize("drop", [1.0, 1.5])
def test_theta_inverse_nonmonotone_table_raises(drop):
    """A cell slope of u at or below -1 makes Theta(t, .) flat or decreasing."""
    sol = _table_solution([0.0, 0.0, 0.0, -drop, -drop])
    with pytest.raises(InverseConvergenceError):
        theta_inverse(sol, 0.5, np.array([[0.5]]))


def test_theta_segment_roundtrip(sol_small, nu6):
    rng = np.random.default_rng(0)
    seg = rng.uniform(-2.0, 2.0, (3, nu6.n_cells + 1, 1))
    fwd = theta_segment(sol_small, 0.5, seg, nu6.h)
    back = theta_inverse_segment(sol_small, 0.5, fwd, nu6.h)
    assert np.abs(back - seg).max() < 1e-10


def test_time_clamp_before_zero(sol_small):
    x = np.array([[0.5]])
    np.testing.assert_array_equal(sol_small.eval_u(-0.7, x), sol_small.eval_u(0.0, x))
    np.testing.assert_array_equal(sol_small.eval_u(5.0, x), sol_small.eval_u(sol_small.T, x))


def test_coverage_error_outside_grid(sol_small):
    far = np.array([[1e6]])
    with pytest.raises(CoverageError):
        sol_small.eval_u(0.0, far)
    with pytest.raises(CoverageError):
        theta_inverse(sol_small, 0.0, far)


def test_identity_transform_matches_plain_euler(nu6):
    """sol=None folds A into the delay drift; the step arithmetic is unchanged."""
    m = make_model("linear_delay", measure=nu6)
    tm = transformed_model(m, nu6, None)
    xi = constant_segment(nu6, 1.0)
    cfg = SolverConfig(h=2.0**-6, t_end=0.5, scheme="euler-maruyama")
    plain = simulate(m, nu6, xi, cfg, 4, 8)
    states, dW = simulate_transformed(tm, nu6, xi.values, cfg, 4, 8)
    np.testing.assert_array_equal(states, plain.states)
    np.testing.assert_array_equal(dW, plain.dW)


@pytest.mark.parametrize("runner", ["simulate_transformed", "run_coupling_batch"])
@pytest.mark.parametrize("shape", ["one-path", "surplus-steps"])
def test_runners_reject_misshapen_noise(nu6, runner, shape):
    """A caller's dW must have shape (n_paths, steps, dbar): one path's noise
    would be shared by every path, and surplus steps would be ignored."""
    tm = transformed_model(make_model("linear_delay", measure=nu6), nu6, None)
    xi = constant_segment(nu6, 1.0).values
    n, T = 5, 0.125
    if runner == "simulate_transformed":
        steps = 8
        cfg = SolverConfig(h=nu6.h, t_end=T)

        def run(dW):
            return simulate_transformed(tm, nu6, xi, cfg, 2, n, dW=dW)
    else:
        steps = 8 + nu6.n_cells
        cc = CouplingConfig(T=T, h=nu6.h, K=4.0)

        def run(dW):
            return run_coupling_batch(tm, nu6, xi, xi + 0.1, cc, 2, n, dW=dW)

    run(np.zeros((n, steps, 1)))
    bad = np.zeros((1, steps, 1)) if shape == "one-path" else np.zeros((n, steps + 7, 1))
    with pytest.raises(ValueError, match="dW shape"):
        run(bad)


def test_identity_transform_refuses_a_nonzero_drift(nu6):
    """The identity transform drops b, so it must not carry a model whose
    drift is non-zero: the cubic model would otherwise run drift-free."""
    with pytest.raises(ValueError, match="non-zero drift"):
        transformed_model(make_model("cubic"), nu6, None)


def test_needs_transform_probes_two_points_in_d2(nu6):
    """The drift probe reads (0.25, 0.25) and (2, 2) in d=2 as in d=1: a drift
    that vanishes on |x| <= 1 is still found non-zero."""
    def kink(t, x):
        return np.maximum(np.abs(x) - 1.0, 0.0)

    m = ModelSpec("kink", 2, 2, OperatorA([1.0, 1.0]), kink, _zero_B, _const_Q(1.0, 2, 2),
                  Q_bounds={"Q": 1.0})
    assert needs_transform(m)
    with pytest.raises(ValueError, match="non-zero drift"):
        transformed_model(m, nu6, None)


def test_simulate_transformed_stores_paths_time_major(nu6, sol_small, ref6):
    tm = transformed_model(ref6, nu6, sol_small)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu6, 0.5).values[None], nu6.h)[0]
    cfg = SolverConfig(h=nu6.h, t_end=0.25)
    states, dW = simulate_transformed(tm, nu6, xi_t, cfg, 3, 5)
    assert states.shape == (5, nu6.n_cells + 17, 1)
    assert states.transpose(1, 0, 2).flags.c_contiguous
    assert dW.transpose(1, 0, 2).flags.c_contiguous


def test_transformed_model_requires_linear_part(nu6, sol_small, ref6):
    m_flat = ModelSpec("flat", 1, 1, None, lambda t, x: np.zeros_like(x), _zero_B,
                       _const_Q(1.0, 1, 1))
    with pytest.raises(ValueError):
        transformed_model(m_flat, nu6, None)


def test_transformed_drift_is_lipschitz_in_segment(nu6, ref6, sol_small):
    """The raw sqrt drift has unbounded difference quotients near 0; the
    transformed delay drift must show a finite sampled Lipschitz constant."""
    tm = transformed_model(ref6, nu6, sol_small)
    K = measure_K(tm, nu6, 1.0, n_samples=500, seed=1)
    assert 0.0 < K["Q_sup"] < 2.0
    assert 0.0 < K["QQt_inv_sup"] < 2.0
    assert 0.0 < K["B_lip"] < 4.0


def test_transform_equivalence_single_h(nu6, ref6, sol_small):
    """Integrating in transformed coordinates and pulling back stays close to
    the direct integration under shared noise."""
    tm = transformed_model(ref6, nu6, sol_small)
    xi = constant_segment(nu6, 0.5)
    cfg = SolverConfig(h=2.0**-6, t_end=0.5, scheme="euler-maruyama")
    plain = simulate(ref6, nu6, xi, cfg, 8, 4)
    xi_t = tm.seg_to_transformed(0.0, xi.values[None], nu6.h)[0]
    states, _ = simulate_transformed(tm, nu6, xi_t, cfg, 8, 4)
    n0 = nu6.n_cells
    err = 0.0
    for k in range(n0, states.shape[1]):
        t = (k - n0) * cfg.h
        back = theta_inverse(sol_small, t, states[:, k])
        err = max(err, float(np.abs(back - plain.states[:, k]).max()))
    assert err < 0.05


@pytest.mark.parametrize("case", ["d1", "identity", "d2"])
def test_coupled_x_chain_is_simulate_transformed(nu6, sol_small, sol_d2, case):
    """X of the coupled pair follows the transformed equation itself: under
    shared noise it matches simulate_transformed bit for bit on [0, T + r0],
    with a solved u in d=1 and d=2 and with the identity transform."""
    d = 2 if case == "d2" else 1
    name = "linear_delay" if case == "identity" else "reference"
    sol = {"d1": sol_small, "identity": None, "d2": sol_d2}[case]
    tm = transformed_model(make_model(name, measure=nu6, d=d), nu6, sol)
    start = constant_segment(nu6, [0.5, -0.3][:d]).values
    xi_t = tm.seg_to_transformed(0.0, start[None], nu6.h)[0]
    cc = CouplingConfig(T=0.25, h=nu6.h, K=4.0)
    res = run_coupling_batch(tm, nu6, xi_t, xi_t + 0.05, cc, 5, 4)
    cfg = SolverConfig(h=nu6.h, t_end=cc.T + nu6.r0)
    states, _ = simulate_transformed(tm, nu6, xi_t, cfg, 5, 4, dW=res.dW)
    np.testing.assert_array_equal(states, res.x_states)


@pytest.mark.parametrize("offset", [255, 256, 511])
def test_coupled_pairs_are_batch_members(nu6, ref6, sol_small, offset):
    """Averages of the pulled-back X and Y series keep each pair's bits: a
    single pair and batches of 3 and 300 match a wider batch across tile edges."""
    tm = transformed_model(ref6, nu6, sol_small)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu6, 0.5).values[None], nu6.h)[0]
    cc = CouplingConfig(T=0.125, h=nu6.h, K=4.0)
    wide = run_coupling_batch(tm, nu6, xi_t, xi_t + 0.05, cc, 5, 600, path_offset=250)
    for count in (1, 3, 300):
        sub = run_coupling_batch(tm, nu6, xi_t, xi_t + 0.05, cc, 5, count, path_offset=offset)
        rows = slice(offset - 250, offset - 250 + count)
        np.testing.assert_array_equal(sub.x_states, wide.x_states[rows])
        np.testing.assert_array_equal(sub.y_states, wide.y_states[rows])
        np.testing.assert_array_equal(sub.log_R, wide.log_R[rows])


@pytest.mark.parametrize("runner", ["simulate_transformed", "run_coupling_batch"])
def test_d2_runners_are_batch_members(sol_d2, runner):
    """In d=2 each path of a batch has the bits of the same path run alone on
    its own slice of the batch's noise."""
    nu = make_measure("exponential", 0.125, 2.0**-6, lam=1.0)
    tm = transformed_model(make_model("reference", measure=nu, d=2), nu, sol_d2)
    xi = constant_segment(nu, [0.5, -0.3]).values
    xi_t = tm.seg_to_transformed(0.0, xi[None], nu.h)[0]
    if runner == "simulate_transformed":
        cfg = SolverConfig(h=nu.h, t_end=0.25)

        def run(count, offset, dW=None):
            states, dW = simulate_transformed(tm, nu, xi_t, cfg, 9, count, offset, dW)
            return dW, {"states": states}
    else:
        cc = CouplingConfig(T=0.125, h=nu.h, K=4.0)

        def run(count, offset, dW=None):
            res = run_coupling_batch(tm, nu, xi_t, xi_t + 0.05, cc, 9, count, offset, dW)
            names = ("x_states", "y_states", "log_R", "tau")
            return res.dW, {name: getattr(res, name) for name in names}

    dW, wide = run(16, 0)
    for i in range(16):
        for name, value in run(1, i, dW[i : i + 1])[1].items():
            np.testing.assert_array_equal(value, wide[name][i : i + 1], err_msg=f"{name}, path {i}")


def test_coupling_skips_met_rows_in_y_inverse(nu6, ref6, sol_small, monkeypatch):
    """Inverting Y only on the rows that have not met, stacked under X's rows
    in one call, gives the bits of separate full-batch inverses."""
    tm = transformed_model(ref6, nu6, sol_small)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu6, 0.5).values[None], nu6.h)[0]
    cc = CouplingConfig(T=0.25, h=nu6.h, K=8.0)
    sizes = []  # the Y rows of each step's call, under X's 32 rows

    def counted(sol, t, y):
        sizes.append(len(y) - 32)
        return theta_inverse_ud(sol, t, y)

    monkeypatch.setattr(coupling, "theta_inverse_ud", counted)
    res = run_coupling_batch(tm, nu6, xi_t, xi_t + 0.5, cc, 5, 32)
    assert res.coupled.all() and len(np.unique(res.tau)) > 1  # rows meet at different steps
    assert any(0 < n < 32 for n in sizes)

    def full_batch(sol, t, xn, yn, pull):
        x_inv, y_inv = theta_inverse(sol, t, xn), theta_inverse(sol, t, yn)
        ud_y = _stacked_ud(*sol.eval_u_du(t, y_inv))
        return x_inv, _stacked_ud(*sol.eval_u_du(t, x_inv)), y_inv[pull], ud_y[:, pull]

    monkeypatch.setattr(coupling, "_pull_back", full_batch)
    ref = run_coupling_batch(tm, nu6, xi_t, xi_t + 0.5, cc, 5, 32)
    for name in ("x_states", "y_states", "log_R", "tau"):
        np.testing.assert_array_equal(getattr(res, name), getattr(ref, name))


def _stacked_ud(u, du):
    """eval_u_du's (u, grad u) in the stacked (d + d*d, n) layout of
    theta_inverse_ud."""
    return np.concatenate([u.T, du.reshape(len(du), -1).T])


def _coefficients_after_lookup(tm, t, state, point_inv, avg_inv):
    """transformed_coefficients with u and grad u from a separate eval_u_du
    at the pulled-back point, as each step read them before the inverse
    returned them."""
    ud = None if tm.sol is None else _stacked_ud(*tm.sol.eval_u_du(t, point_inv))
    return transformed_coefficients(tm, t, state, point_inv, ud, avg_inv)


def _log_euler_kernel(x, mean, Q, h):
    """log of the density of N(mean, h QQ*) at x, row by row, from the
    covariance matrix itself."""
    cov = h * np.einsum("nik,njk->nij", Q, Q)
    r = x - mean
    quad = np.einsum("ni,ni->n", r, np.linalg.solve(cov, r[..., None])[..., 0])
    return -0.5 * (quad + np.linalg.slogdet(2.0 * np.pi * cov)[1])


def _old_run_coupling_batch(tm, nu, xi_t, eta_t, cc, dW):
    """run_coupling_batch before it pulled the shared initial segment back
    once, skipped the Y side past T and kept u and grad u from the inverse,
    kept as its oracle: every initial row is inverted, Y's coefficients,
    averages, noise and pull-back are formed on every row at every step, and
    each step calls theta_inverse and then eval_u_du.  Its diffusion is the
    per-row (n, d, dbar) array of a Q not declared constant.  Its last
    bridged step is the runner's: every open row whose X stays finite takes
    Y_T := X_T and adds the log-ratio of Y's and X's Euler kernels at X_T,
    here from _log_euler_kernel.  Returns (x, y, log_R, tau, failed)."""
    base = dataclasses.replace(tm.base, Q_bounds={k: v for k, v in tm.base.Q_bounds.items() if k != "dQ"})
    tm = zvonkin.TransformedModel(base, tm.sol)
    sol = tm.sol
    T, h, K = cc.T, cc.h, cc.K
    n0 = nu.n_cells
    n_paths, steps = dW.shape[:2]
    delta = coupling.DELTA_SCALE * (1.0 + float(np.linalg.norm(xi_t[-1] - eta_t[-1])))
    x = np.empty((n_paths, n0 + steps + 1, tm.base.d))
    y = np.empty_like(x)
    x[:, : n0 + 1] = xi_t
    y[:, : n0 + 1] = eta_t

    def history(states):
        if sol is None:
            return states
        out = np.empty_like(states)
        out[:, : n0 + 1] = theta_inverse_segment(sol, 0.0, states[:, : n0 + 1], h)
        return out

    xinv, yinv = history(x), history(y)
    avg_x, avg_y = delay_averages(nu, Rows.stored(xinv)), delay_averages(nu, Rows.stored(yinv))
    gamma_floor = coupling.gamma(T - 0.5 * h, T, K)
    log_r = np.zeros(n_paths)
    tau = np.full(n_paths, np.nan)
    failed = np.zeros(n_paths, dtype=bool)
    met = np.linalg.norm(x[:, n0] - y[:, n0], axis=1) <= delta
    tau[met] = 0.0
    y[met, n0] = x[met, n0]
    for k in range(steps):
        t = k * h
        idx = n0 + k
        xs, ys = x[:, idx], y[:, idx]
        Bx, Qx = _coefficients_after_lookup(tm, t, xs, xinv[:, idx], next(avg_x))
        By, Qy = _coefficients_after_lookup(tm, t, ys, yinv[:, idx], next(avg_y))
        if t < T - 1e-12:
            ghat = max(coupling.gamma(min(t + 0.5 * h, T), T, K), gamma_floor)
            z = solve_qqt(Qx, xs - ys)
            phi = solve_qqt(Qy, By - Bx) - z / ghat
            inc = np.einsum("nk,nk->n", phi, dW[:, k]) - 0.5 * h * np.sum(phi**2, axis=1)
            bridge = np.einsum("ncj,nj->nc", Qy, z) / ghat
        else:
            inc = bridge = 0.0
        noise_x = np.einsum("ncj,nj->nc", Qx, dW[:, k])
        noise_y = np.einsum("ncj,nj->nc", Qy, dW[:, k])
        with np.errstate(over="ignore", invalid="ignore"):
            xn = xs + h * Bx + noise_x
            yn = ys + h * (Bx + bridge) + noise_y
            if k == round(T / h) - 1:
                close = np.isnan(tau) & ~failed
                yn[close] = xn[close]
                close &= np.all(np.isfinite(xn), axis=1)
                ratio = _log_euler_kernel(xn, ys + h * By, Qy, h) - _log_euler_kernel(xn, xs + h * Bx, Qx, h)
                inc = np.where(close, ratio, inc)
        log_r += inc
        bad = ~(np.all(np.isfinite(xn), axis=1) & np.all(np.isfinite(yn), axis=1))
        failed |= bad
        xn[failed] = xs[failed]
        yn[failed] = ys[failed]
        already = ~np.isnan(tau)
        yn[already] = xn[already]
        newly = ~already & ~failed & (np.linalg.norm(xn - yn, axis=1) <= delta)
        yn[newly] = xn[newly]
        tau[newly] = t + h
        x[:, idx + 1] = xn
        y[:, idx + 1] = yn
        if sol is not None:
            xinv[:, idx + 1] = theta_inverse(sol, t + h, xn)
            yinv[:, idx + 1] = np.where((already | newly)[:, None], xinv[:, idx + 1],
                                        theta_inverse(sol, t + h, yn))
    return x, y, log_r, tau, failed


@pytest.mark.parametrize("case", ["meet-apart", "closed-at-T", "rows-fail"])
def test_coupling_y_side_matches_full_oracle(nu6, ref6, sol_small, monkeypatch, case):
    """Pulling the shared initial segment back once and forming nothing of Y
    from T on keeps the bits of the old run, which inverted every initial
    row and stepped Y in full; the rows that the last bridged step closes
    match the oracle's log-ratio of Euler kernels to 1e-10."""
    tm = transformed_model(ref6, nu6, sol_small)
    xi_t = tm.seg_to_transformed(0.0, constant_segment(nu6, 0.5).values[None], nu6.h)[0]
    K, gap = (8.0, 0.5) if case == "meet-apart" else (6.0, 0.1)
    cc = CouplingConfig(T=0.25, h=nu6.h, K=K)
    n, n_T = 32, 16
    base = run_coupling_batch(tm, nu6, xi_t, xi_t + gap, cc, 5, n)
    closed = np.flatnonzero(base.tau == 0.25)  # still apart at T - h
    dW = base.dW.copy()
    if case == "rows-fail":
        # two rows that would be closed at T fail apart, one before T and one
        # on the last step; two rows met earlier fail after T
        dW[closed[0], n_T - 3] = np.inf
        dW[closed[1], n_T - 1] = np.inf
        dW[[3, 7], n_T + 5] = np.inf
    y_sizes = []  # rows of each call that forms Y's diffusion alone

    def counted(tm_, t, state, point_inv, ud, avg_inv):
        if avg_inv is None:
            y_sizes.append(len(state))
        return transformed_coefficients(tm_, t, state, point_inv, ud, avg_inv)

    monkeypatch.setattr(coupling, "transformed_coefficients", counted)
    res = run_coupling_batch(tm, nu6, xi_t, xi_t + gap, cc, 5, n, dW=dW)
    assert y_sizes == []  # Y is formed on steps before T only
    assert np.isfinite(res.log_R[res.coupled]).all()
    ok = ~res.failed
    assert res.coupled[ok].all() and res.terminal_segments_equal()[ok].all()
    if case == "meet-apart":
        assert len(closed) == 0 and len(np.unique(res.tau)) > 1
    else:
        assert 2 <= len(closed) < n - 2 and 3 not in closed and 7 not in closed
    if case == "closed-at-T":
        assert not res.failed.any()
    if case == "rows-fail":
        assert np.array_equal(np.flatnonzero(res.failed), np.union1d(closed[:2], [3, 7]))
        assert np.isnan(res.tau[closed[:2]]).all()

    x, y, log_r, tau, failed = _old_run_coupling_batch(tm, nu6, xi_t, xi_t + gap, cc, dW)
    for name, ref in (("x_states", x), ("y_states", y), ("tau", tau), ("failed", failed)):
        np.testing.assert_array_equal(getattr(res, name), ref)
    last = res.tau == 0.25
    np.testing.assert_array_equal(res.log_R[~last], log_r[~last])
    np.testing.assert_allclose(res.log_R[last], log_r[last], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_start_transformed_inverts_the_shared_segment_once(nu6, sol_small, sol_d2, d):
    """One pulled-back initial segment, broadcast to every row, has the bits of
    the batch inverse of the identical rows, node by node, in the slots of a
    ring of n0 + 2 rows."""
    sol = sol_small if d == 1 else sol_d2
    tm = transformed_model(make_model("reference", measure=nu6, d=d), nu6, sol)
    n0 = nu6.n_cells
    seg = 0.3 + 0.4 * np.sin(np.arange((n0 + 1) * d, dtype=float)).reshape(n0 + 1, d)
    states, out, ud, _ = start_transformed(tm, nu6, seg, 5, n0 + 9, 0)
    assert states.paths.shape == (5, n0 + 9, d)
    np.testing.assert_array_equal(states.paths[:, : n0 + 1], np.broadcast_to(seg, (5, n0 + 1, d)))
    assert out.paths.shape == (5, n0 + 2, d)
    slots = out.slot(np.arange(n0 + 1))
    ref = theta_inverse_segment(sol, 0.0, states.paths[:, : n0 + 1], nu6.h)
    np.testing.assert_array_equal(out.paths[:, slots], ref)
    np.testing.assert_array_equal(ud, _stacked_ud(*sol.eval_u_du(0.0, ref[:, -1])))
    identity = transformed_model(make_model("linear_delay", measure=nu6, d=d), nu6, None)
    states, history, ud, _ = start_transformed(identity, nu6, seg, 5, n0 + 9, 0)
    np.testing.assert_array_equal(states.paths[:, : n0 + 1], np.broadcast_to(seg, (5, n0 + 1, d)))
    assert history is states and ud is None


def test_verify_decay_small_ladder(ref6):
    rep = verify_decay(ref6, [8.0, 32.0], 1.0, n_x=101, n_t=17)
    assert rep.monotone
    assert rep.lam_star == 8.0
    assert rep.u_sups[1] <= rep.u_sups[0]
    assert rep.du_sups[1] <= rep.du_sups[0]
