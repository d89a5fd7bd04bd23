import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaysde import measure
from delaysde.measure import (
    DelayMeasure,
    GridMismatchError,
    Rows,
    Segment,
    batch_seg_norm,
    check_shift_domination,
    constant_segment,
    delay_averages,
    grid_count,
    make_measure,
    seg_inner,
    seg_norm,
    segments_equal,
)


def test_grid_count_exact_and_tolerant():
    assert grid_count(1.0, 0.25) == 4
    assert grid_count(1.0, 2.0**-8) == 256
    # tiny float noise is absorbed
    assert grid_count(0.1 + 0.2, 0.3) == 1


def test_grid_count_rejects_incommensurate():
    with pytest.raises(GridMismatchError):
        grid_count(1.0, 0.3)
    with pytest.raises(ValueError):
        grid_count(1.0, 0.0)


@pytest.mark.parametrize("span, h", [
    (math.inf, 0.25), (math.nan, 0.25), (1.0, math.inf), (1.0, math.nan),
])
def test_grid_count_rejects_non_finite(span, h):
    """An infinite step would count 0 cells and an infinite span overflow."""
    with pytest.raises(ValueError):
        grid_count(span, h)


def test_exponential_cell_masses_exact():
    m = make_measure("exponential", 1.0, 0.5, lam=1.0)
    want = [math.exp(-0.5) - math.exp(-1.0), 1.0 - math.exp(-0.5)]
    np.testing.assert_allclose(m.weights, want, rtol=1e-14)
    assert m.n_cells == 2
    np.testing.assert_allclose(m.thetas, [-1.0, -0.5, 0.0])
    assert abs(m.total_mass() - (1.0 - math.exp(-1.0))) < 1e-14


def test_exponential_zero_rate_is_uniform():
    m = make_measure("exponential", 1.0, 0.25, lam=0.0)
    np.testing.assert_allclose(m.weights, 0.25)


def test_uniform_mass_and_window():
    m = make_measure("uniform", 2.0, 0.5, density=3.0)
    assert abs(m.total_mass() - 6.0) < 1e-12
    assert abs(m.total_mass(window=1.0) - 3.0) < 1e-12
    assert abs(m.total_mass(window=5.0) - 6.0) < 1e-12


def test_atoms_need_weights_and_match_grid():
    with pytest.raises(ValueError):
        make_measure("atoms", 1.0, 0.5)
    with pytest.raises(GridMismatchError):
        make_measure("atoms", 1.0, 0.5, weights=[1.0, 2.0, 3.0])
    m = make_measure("atoms", 1.0, 0.5, weights=[0.0, 2.0])
    np.testing.assert_array_equal(m.weights, [0.0, 2.0])


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_measure("gamma", 1.0, 0.5)


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        make_measure("atoms", 1.0, 0.5, weights=[-1.0, 1.0])


def test_segment_norm_constant():
    m = make_measure("exponential", 1.0, 0.125, lam=1.0)
    xi = constant_segment(m, 2.0)
    want = 2.0 * math.sqrt(m.total_mass() + 1.0)
    assert abs(seg_norm(m, xi) - want) < 1e-12


def test_segment_inner_matches_norm():
    m = make_measure("uniform", 1.0, 0.25)
    xi = Segment(np.arange(5.0))
    assert abs(seg_inner(m, xi, xi) - seg_norm(m, xi) ** 2) < 1e-12


def test_batch_norm_matches_scalar():
    m = make_measure("exponential", 1.0, 0.125, lam=2.0)
    vals = np.random.default_rng(0).normal(size=(7, m.n_cells + 1, 2))
    got = batch_seg_norm(m, vals)
    for i in range(7):
        assert abs(got[i] - seg_norm(m, Segment(vals[i]))) < 1e-12


def test_null_cells_invisible_to_norm_and_equality():
    """Values on zero-mass cells are quotient representatives of the same point."""
    m = make_measure("atoms", 1.0, 0.25, weights=[0.0, 1.0, 0.0, 2.0])
    base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    other = base.copy()
    other[0] = -9.0
    other[2] = 40.0
    xi, eta = Segment(base), Segment(other)
    assert segments_equal(m, xi, eta)
    assert abs(seg_norm(m, xi) - seg_norm(m, eta)) < 1e-12
    # positive-mass cell disagreement breaks equality
    other2 = base.copy()
    other2[1] = 0.0
    assert not segments_equal(m, xi, Segment(other2))
    # endpoint disagreement breaks equality
    other3 = base.copy()
    other3[-1] = 0.0
    assert not segments_equal(m, xi, Segment(other3))


def test_segments_equal_tolerance_and_dim():
    m = make_measure("uniform", 1.0, 0.5)
    xi = Segment(np.zeros(3))
    eta = Segment(np.full(3, 1e-10))
    assert not segments_equal(m, xi, eta)
    assert segments_equal(m, xi, eta, tol=1e-9)
    assert not segments_equal(m, xi, Segment(np.zeros((3, 2))))


def test_segment_rejects_nonfinite():
    with pytest.raises(ValueError):
        Segment(np.array([0.0, np.nan, 1.0]))


def test_grid_mismatch_between_measure_and_segment():
    m = make_measure("uniform", 1.0, 0.25)
    with pytest.raises(GridMismatchError):
        seg_norm(m, Segment(np.zeros(3)))


@st.composite
def _pair(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    fl = st.floats(min_value=-10, max_value=10, allow_nan=False)
    w = draw(st.lists(st.floats(min_value=0, max_value=5), min_size=n, max_size=n))
    xi = draw(st.lists(fl, min_size=n + 1, max_size=n + 1))
    eta = draw(st.lists(fl, min_size=n + 1, max_size=n + 1))
    m = make_measure("atoms", float(n), 1.0, weights=w)
    return m, Segment(np.array(xi)), Segment(np.array(eta))


@settings(max_examples=100, deadline=None)
@given(_pair())
def test_cauchy_schwarz(data):
    m, xi, eta = data
    lhs = abs(seg_inner(m, xi, eta))
    rhs = seg_norm(m, xi) * seg_norm(m, eta)
    assert lhs <= rhs * (1 + 1e-9) + 1e-9


@settings(max_examples=100, deadline=None)
@given(_pair())
def test_triangle_inequality(data):
    m, xi, eta = data
    both = Segment(xi.values + eta.values)
    assert seg_norm(m, both) <= seg_norm(m, xi) + seg_norm(m, eta) + 1e-9


def test_shift_domination_exponential_kappa():
    # increasing density: shifting toward zero only shrinks cell mass, kappa = 1
    m = make_measure("exponential", 1.0, 0.125, lam=1.0)
    assert m.kappa(0.5) == 1.0
    rep = check_shift_domination(m, 1.0)
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-12


def test_shift_domination_decreasing_density():
    # decreasing density needs the growing kappa(t) = e^{-lam t} with lam < 0
    m = make_measure("exponential", 1.0, 0.125, lam=-2.0)
    assert m.kappa(0.5) == pytest.approx(math.e)
    assert check_shift_domination(m, 1.0).passed


def test_shift_domination_uniform():
    assert check_shift_domination(make_measure("uniform", 1.0, 0.25), 1.0).passed


def test_shift_domination_failure_witness():
    # all mass in the earliest cell shifts onto null cells; kappa = 1 cannot dominate
    m = make_measure("atoms", 1.0, 0.25, weights=[1.0, 0.0, 0.0, 0.0], kappa=lambda t: 1.0)
    rep = check_shift_domination(m, 1.0)
    assert not rep.passed
    assert rep.worst_ratio == math.inf
    assert rep.witness_cell is not None


def _shift_domination_loop(m, t_max):
    """check_shift_domination's cell-by-cell loop before it took the
    vectorized ratios: (worst_ratio, worst_shift, witness_cell)."""
    n = m.n_cells
    worst, worst_shift, witness = 0.0, None, None
    for k in range(1, min(measure.grid_count(t_max, m.h), n) + 1):
        kap = m.kappa(k * m.h)
        shifted = np.zeros(n)
        shifted[k:] = m.weights[: n - k]
        for j in range(n):
            if m.weights[j] > 0:
                r = shifted[j] / (kap * m.weights[j])
            else:
                r = np.inf if shifted[j] > 0 else 0.0
            if r > worst:
                worst, worst_shift, witness = r, k * m.h, j
    return worst, worst_shift, witness


@pytest.mark.parametrize("m", [
    make_measure("exponential", 1.0, 0.125, lam=-2.0, kappa=lambda t: 1.0),
    make_measure("exponential", 1.0, 0.125, lam=1.0),
    make_measure("atoms", 1.0, 0.125, weights=[0.3, 0.0, 0.3, 0.1, 0.3, 0.0, 0.2, 0.2]),
    make_measure("atoms", 1.0, 0.125, weights=[0.1, 0.5, 0.0, 0.5, 0.1, 0.5, 0.0, 0.0],
                 kappa=lambda t: 1.5),
], ids=["decreasing", "increasing", "atoms-measured", "atoms-null-cells"])
def test_shift_domination_matches_cell_loop(m):
    rep = check_shift_domination(m, 0.75)
    assert (rep.worst_ratio, rep.worst_shift, rep.witness_cell) == _shift_domination_loop(m, 0.75)


def test_measured_kappa_makes_atoms_pass():
    m = make_measure("atoms", 1.0, 0.25, weights=[0.5, 1.0, 2.0, 4.0])
    assert check_shift_domination(m, 1.0).passed


def test_segment_values_window():
    from delaysde.model import make_model
    from delaysde.solver import SolverConfig, simulate

    m = make_measure("uniform", 0.5, 0.25)
    model = make_model("zero", lam=1.0)
    xi = constant_segment(m, 1.0)
    batch = simulate(model, m, xi, SolverConfig(h=0.25, t_end=1.0), 0, 1)
    seg = batch.segment_values(0.5)
    np.testing.assert_array_equal(seg[0, :, 0], batch.states[0, 2:5, 0])
    with pytest.raises(ValueError):
        batch.segment_values(2.0)
    with pytest.raises(GridMismatchError):
        batch.segment_values(0.3)


def test_constant_segment_dim_broadcast():
    m = make_measure("uniform", 1.0, 0.5)
    xi = constant_segment(m, 1.5, d=3)
    assert xi.values.shape == (3, 3)
    np.testing.assert_array_equal(xi.at_zero(), [1.5, 1.5, 1.5])


def test_weights_are_frozen():
    m = make_measure("uniform", 1.0, 0.5)
    with pytest.raises(ValueError):
        m.weights[0] = 7.0


# ---------------------------------------------------------------------------
# streamed delay averages


def _per_step_averages(m, rows):
    """Oracle: the per-step window contraction nu(rows[:, k : k + n0 + 1])."""
    n0 = m.n_cells
    return np.stack(
        [np.einsum("j,njd->nd", m.weights, rows[:, k : k + n0]) for k in range(rows.shape[1] - n0 - 1)]
    )


_ATOMS = [0.0, 0.1, 0.0, 0.0, 0.3, 0.2, 0.0, 0.25, 0.15, 0.0]


@pytest.mark.parametrize(
    "m, d, steps",
    [
        (make_measure("exponential", 1.0, 2.0**-6, lam=1.0), 1, 100),  # three blocks and a tail
        (make_measure("exponential", 0.5, 2.0**-6, lam=2.0), 2, 70),
        (make_measure("atoms", 1.0, 0.1, weights=_ATOMS), 1, 23),  # null cells, n0 < block
        (make_measure("uniform", 0.3, 0.1), 3, 7),  # n0 = 3
        (make_measure("uniform", 0.1, 0.1), 1, 9),  # n0 = 1
        (make_measure("exponential", 1.0, 2.0**-6, lam=-2.0), 1, 100),  # decreasing masses
        (make_measure("exponential", 1.0, 2.0**-10, lam=1.0), 1, 2000),  # n0 = 1024, two anchors
        (make_measure("uniform", 1.0, 2.0**-10), 1, 2000),
    ],
    ids=["exp-d1", "exp-d2", "atoms", "n0-3", "n0-1", "lam-neg", "long-exp", "long-uniform"],
)
def test_delay_averages_match_per_step_oracle(m, d, steps):
    rows = np.random.default_rng(3).standard_normal((5, m.n_cells + steps + 1, d))
    got = np.stack(list(delay_averages(m, Rows.stored(rows))))
    np.testing.assert_allclose(got, _per_step_averages(m, rows), rtol=0, atol=1e-12)


def test_delay_averages_read_only_written_rows():
    """Average k reads rows up to k + n0 only, so a runner can write row
    k + n0 + 1 after taking it."""
    m = make_measure("exponential", 0.5, 2.0**-5, lam=1.0)
    n0, steps = m.n_cells, 50
    full = np.random.default_rng(4).standard_normal((7, n0 + steps + 1, 2))
    rows = np.full_like(full, np.nan)
    rows[:, : n0 + 1] = full[:, : n0 + 1]
    got = []
    for k, avg in enumerate(delay_averages(m, Rows.stored(rows))):
        got.append(avg.copy())
        rows[:, n0 + k + 1] = full[:, n0 + k + 1]
    np.testing.assert_allclose(np.stack(got), _per_step_averages(m, full), rtol=0, atol=1e-12)


def _time_major(rows):
    """The same rows stored time-major, seen through the (n, n_rows, d) view."""
    return np.ascontiguousarray(rows.transpose(1, 0, 2)).transpose(1, 0, 2)


_EXP = make_measure("exponential", 1.0, 2.0**-6, lam=1.0)
# 64 cells, some null: streamed in blocked products
_ATOMS_64 = make_measure("atoms", 1.0, 2.0**-6, weights=np.tile([0.03, 0.0, 0.01, 0.02], 16))


@pytest.mark.parametrize(
    "d, layout, m",
    [
        (1, "path-major", _EXP),
        (2, "path-major", _EXP),
        (1, "time-major", _EXP),
        (2, "time-major", _EXP),
        (2, "time-major", _ATOMS_64),
    ],
    ids=["1", "2", "1-time-major", "2-time-major", "atoms"],
)
def test_delay_averages_are_batch_independent(d, layout, m):
    """A path's averages are the same bits in any batch that holds it: single
    paths and batches of 3 and 300 at offsets that straddle a tile."""
    start = 250
    rows = np.random.default_rng(5).standard_normal((600, m.n_cells + 40, d))
    if layout == "time-major":
        rows = _time_major(rows)
    ref = np.stack(list(delay_averages(m, Rows.stored(rows), path_offset=start)))
    for offset in (255, 256, 511):
        for count in (1, 3, 300):
            lo = offset - start
            sub = np.stack(list(delay_averages(m, Rows.stored(rows[lo : lo + count]), path_offset=offset)))
            np.testing.assert_array_equal(sub, ref[:, lo : lo + count])


@pytest.mark.parametrize(
    "m, d",
    [
        (make_measure("exponential", 1.0, 2.0**-6, lam=1.0), 1),
        (make_measure("exponential", 0.5, 2.0**-6, lam=2.0), 2),
        (make_measure("atoms", 1.0, 0.1, weights=_ATOMS), 1),
    ],
    ids=["exp-d1", "exp-d2", "atoms"],
)
def test_delay_averages_same_bits_in_either_layout(m, d):
    rows = np.random.default_rng(6).standard_normal((300, m.n_cells + 75, d))
    path_major = np.stack(list(delay_averages(m, Rows.stored(rows), path_offset=7)))
    time_major = np.stack(list(delay_averages(m, Rows.stored(_time_major(rows)), path_offset=7)))
    np.testing.assert_array_equal(time_major, path_major)


@pytest.mark.parametrize("ring", [True, False], ids=["ring", "stored"])
@pytest.mark.parametrize("n0", [1, 3, 8])
@pytest.mark.parametrize("extra", [0, 1, 2, 5, 23])
def test_rows_written_in_order_hold_the_last_slots(ring, n0, extra):
    """Rows 0..n0 from a shared first segment, then rows written one by one,
    leave paths equal to the last n_slots rows of a stored oracle, for rings
    of n0 + 2 slots and for stored batches, with the last row in the last
    slot."""
    n, d, n_rows = 3, 2, n0 + 1 + extra
    gen = np.random.default_rng(9)
    oracle = gen.standard_normal((n, n_rows, d))
    oracle[:, : n0 + 1] = gen.standard_normal((n0 + 1, d))
    rows = Rows(n, n_rows, d, n_slots=n0 + 2 if ring else None, first=oracle[0, : n0 + 1])
    for r in range(n0 + 1, n_rows):
        rows[r] = oracle[:, r]
    n_slots = min(n0 + 2, n_rows) if ring else n_rows
    assert rows.paths.shape == (n, n_slots, d) and rows.n_rows == n_rows
    np.testing.assert_array_equal(rows.paths, oracle[:, n_rows - n_slots :])
    assert rows.slot(n_rows - 1) == n_slots - 1


def test_rows_index_a_ring_after_wrap_around():
    """rows[r] reads and writes row r of every path, one contiguous block of
    the time-major buffer, as long as the ring still holds it."""
    rows = Rows(4, 22, 1, n_slots=5)
    assert rows.shift == 3
    for r in range(22):
        rows[r] = r
        for q in range(max(r - 4, 0), r + 1):
            np.testing.assert_array_equal(rows[q], np.full((4, 1), float(q)))
        assert rows[r].flags.c_contiguous and np.shares_memory(rows[r], rows.paths)
    np.testing.assert_array_equal(rows.paths[0, :, 0], np.arange(17.0, 22.0))
    rows[19][1:] = -1.0  # a view: its rows write through
    np.testing.assert_array_equal(rows[19][:, 0], [19.0, -1.0, -1.0, -1.0])


def test_rows_stored_wraps_a_batch_with_shift_0():
    paths = np.arange(2 * 6 * 3, dtype=float).reshape(2, 6, 3)
    for batch in (paths, _time_major(paths)):
        rows = Rows.stored(batch)
        assert rows.paths is batch and rows.shift == 0 and rows.n_rows == rows.n_slots == 6
        for r in range(6):
            np.testing.assert_array_equal(rows[r], paths[:, r])
    assert Rows(2, 6, 3).shift == 0


@pytest.mark.parametrize("m", [_EXP, _ATOMS_64], ids=["sliding", "blocked"])
def test_delay_averages_of_a_ring_have_the_stored_bits(m):
    """A ring of n0 + 2 slots, written one row per average as a runner
    writes it, streams the averages of the stored rows bit for bit."""
    n0 = m.n_cells
    full = np.random.default_rng(10).standard_normal((300, n0 + 100, 2))
    ring = Rows(300, n0 + 100, 2, n_slots=n0 + 2, first=full[0, : n0 + 1])
    full[:, : n0 + 1] = full[0, : n0 + 1]
    got = []
    for k, avg in enumerate(delay_averages(m, ring, path_offset=7)):
        got.append(avg.copy())
        ring[n0 + k + 1] = full[:, n0 + k + 1]
    want = np.stack(list(delay_averages(m, Rows.stored(_time_major(full)), path_offset=7)))
    np.testing.assert_array_equal(np.stack(got), want)


def test_delay_averages_split_push_keeps_bits(monkeypatch):
    """A large batch pushes each written row into the block's averages a few
    averages at a time; the split must not change a bit."""
    m = _ATOMS_64
    rows = _time_major(np.random.default_rng(7).standard_normal((5, m.n_cells + 100, 2)))
    whole = np.stack(list(delay_averages(m, Rows.stored(rows))))
    monkeypatch.setattr(measure, "_PUSH_SIZE", 1)
    split = np.stack(list(delay_averages(m, Rows.stored(rows))))
    np.testing.assert_array_equal(split, whole)
    np.testing.assert_allclose(split, _per_step_averages(m, rows), rtol=0, atol=1e-12)
