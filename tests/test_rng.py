import numpy as np
import pytest
from scipy.special import ndtri

from delaysde.rng import (
    batch_increments,
    map_columns,
    normal_increments,
    path_generator,
)
from helpers import coarsen_increments


def test_same_key_same_stream():
    a = normal_increments(7, 3, 64, 2, 0.01)
    b = normal_increments(7, 3, 64, 2, 0.01)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_distinct_streams():
    a = normal_increments(7, 0, 64, 1, 0.01)
    b = normal_increments(7, 1, 64, 1, 0.01)
    assert np.max(np.abs(a - b)) > 1e-3


def test_distinct_base_seeds_distinct_streams():
    a = normal_increments(0, 5, 64, 1, 0.01)
    b = normal_increments(1, 5, 64, 1, 0.01)
    assert np.max(np.abs(a - b)) > 1e-3


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        path_generator(-1, 0)
    with pytest.raises(ValueError):
        path_generator(0, -2)


def test_key_beyond_64_bits_rejected():
    path_generator(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError):
        path_generator(2**64, 0)
    with pytest.raises(ValueError):
        path_generator(0, 2**64)


def test_increment_shape_and_scale():
    h = 1.0 / 64
    dw = normal_increments(11, 0, 50_000, 1, h)
    assert dw.shape == (50_000, 1)
    # N(0, h): sample variance within 5% at this size
    assert abs(dw.var() / h - 1.0) < 0.05
    assert abs(dw.mean()) < 4 * np.sqrt(h / 50_000)
    assert np.all(np.isfinite(dw))


def test_batch_matches_per_path():
    got = batch_increments(3, 10, 4, 16, 2, 0.25)
    for i in range(4):
        np.testing.assert_array_equal(got[i], normal_increments(3, 10 + i, 16, 2, 0.25))


def test_batch_is_time_major_across_fill_tiles():
    """The batch is the transposed view of a time-major buffer, filled one
    tile of paths at a time; members on both sides of a tile edge keep the
    draws of their own generators."""
    got = batch_increments(3, 250, 300, 5, 2, 0.25)
    assert got.shape == (300, 5, 2)
    assert got.transpose(1, 0, 2).flags.c_contiguous
    for i in (0, 255, 256, 299):
        np.testing.assert_array_equal(got[i], normal_increments(3, 250 + i, 5, 2, 0.25))


def test_coarsen_does_not_depend_on_layout():
    dw = batch_increments(1, 0, 4, 64, 1, 0.5)
    for factor in (2, 8, 16):
        np.testing.assert_array_equal(
            coarsen_increments(dw, factor), coarsen_increments(np.ascontiguousarray(dw), factor)
        )


def test_batch_matches_fresh_generators_with_partial_buffer():
    """7 steps x 1 draw leave one of Philox's four buffered words unused per
    path; the reused generator must not hand it to the next path.  Oracle: a
    fresh generator per path."""
    h = 0.25
    got = batch_increments(3, 0, 5, 7, 1, h)
    for i in range(5):
        u = np.maximum(path_generator(3, i).random((7, 1)), 2.0**-54)
        np.testing.assert_array_equal(got[i], ndtri(u) * np.sqrt(h))


def test_coarsen_sums_consecutive_pairs():
    dw = normal_increments(1, 0, 32, 3, 0.125)
    c = coarsen_increments(dw, 4)
    assert c.shape == (8, 3)
    np.testing.assert_allclose(c[0], dw[:4].sum(axis=0), rtol=0, atol=0)
    np.testing.assert_allclose(c[-1], dw[28:].sum(axis=0), rtol=0, atol=0)


def test_coarsen_batch_axis():
    dw = batch_increments(1, 0, 5, 8, 2, 0.5)
    c = coarsen_increments(dw, 2)
    assert c.shape == (5, 4, 2)
    np.testing.assert_array_equal(c[:, 0], dw[:, 0] + dw[:, 1])


def test_coarsen_identity_factor():
    dw = normal_increments(1, 0, 8, 1, 0.5)
    np.testing.assert_array_equal(coarsen_increments(dw, 1), dw)


def test_coarsen_rejects_bad_factor():
    dw = normal_increments(1, 0, 10, 1, 0.5)
    with pytest.raises(ValueError):
        coarsen_increments(dw, 3)
    with pytest.raises(ValueError):
        coarsen_increments(dw, 0)


def _span(offset, count):
    return np.array([offset]), np.array([count])


def test_map_columns_visits_paths_in_order():
    seen = []

    def span(offset, count):
        seen.append((offset, count))
        return _span(offset, count)

    offsets, counts = map_columns(10, 4, span)
    assert list(zip(offsets, counts)) == [(0, 4), (4, 4), (8, 2)]
    assert seen == [(0, 4), (4, 4), (8, 2)]
    with pytest.raises(ValueError):
        map_columns(0, 4, span)
    with pytest.raises(ValueError):
        map_columns(10, 0, span)


def _chunk_draws(start, count):
    return np.full(count, start), batch_increments(3, start, count, 5, 2, 0.25)


def test_map_columns_on_a_pool_matches_serial():
    """A fork pool joins fn's chunk columns in path order, as a serial run."""
    serial = map_columns(1100, 256, _chunk_draws)
    pooled = map_columns(1100, 256, _chunk_draws, workers=2)
    starts = [0, 256, 512, 768, 1024]
    np.testing.assert_array_equal(pooled[0], np.repeat(starts, [256, 256, 256, 256, 76]))
    for a, b in zip(serial, pooled, strict=True):
        np.testing.assert_array_equal(a, b)


class _FakePool:
    """Stands in for a fork context: records each requested pool size and
    runs the chunks in this process, so no process is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size, initializer, initargs):
        self.sizes.append(size)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(c) for c in chunks]


def test_map_columns_starts_no_more_processes_than_chunks(monkeypatch):
    import multiprocessing

    fake = _FakePool()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: fake)

    def spans(*args, **kwargs):
        return [tuple(map(int, c)) for c in zip(*map_columns(*args, **kwargs))]

    assert spans(3, 1, _span, workers=5000) == [(0, 1), (1, 1), (2, 1)]
    assert fake.sizes == [3]
    assert spans(3, 4, _span, workers=5000) == [(0, 3)]  # one chunk runs serially
    assert spans(10, 4, _span, workers=2) == [(0, 4), (4, 4), (8, 2)]
    assert fake.sizes == [3, 2]


def _fresh_draws(base_seed, path_index, n_steps, dbar, h):
    """One path's increments from a generator built for it alone."""
    u = np.maximum(path_generator(base_seed, path_index).random((n_steps, dbar)), 2.0**-54)
    return ndtri(u) * np.sqrt(h)


@pytest.mark.parametrize(
    "n_paths, first",
    [(1, 17), (255, 17), (257, 17), (1000, 17), (257, 2**64 - 257)],
    ids=["1", "255", "257", "1000", "257-ending-at-2^64-1"],
)
def test_tiled_batch_matches_fresh_generators(n_paths, first):
    """Batches of one fill tile and of several keep every path's draws, up to
    the last path index a key holds."""
    got = batch_increments(5, first, n_paths, 3, 2, 0.25)
    assert got.shape == (n_paths, 3, 2)
    for i in range(n_paths):
        np.testing.assert_array_equal(got[i], _fresh_draws(5, first + i, 3, 2, 0.25))


def test_batch_checks_its_last_key():
    with pytest.raises(ValueError, match="2\\^64"):
        batch_increments(0, 2**64 - 1, 2, 1, 1, 0.1)
    got = batch_increments(0, 2**64 - 2, 2, 3, 1, 0.1)
    for i in range(2):
        np.testing.assert_array_equal(got[i], _fresh_draws(0, 2**64 - 2 + i, 3, 1, 0.1))
