"""Helpers shared by several test modules."""

import numpy as np


def coarsen_increments(dw: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of `factor` increments along the step axis.

    Maps increments on step h to increments on step factor*h over the same
    Brownian path; used by the strong-order and h-halving tests.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    # the order of the sum follows the memory layout, so sum a C-ordered
    # copy: a time-major view then gives the bits of a path-major array
    dw = np.ascontiguousarray(dw)
    step_axis = dw.ndim - 2
    n_steps = dw.shape[step_axis]
    if n_steps % factor != 0:
        raise ValueError(f"{n_steps} steps not divisible by factor {factor}")
    shape = dw.shape[:step_axis] + (n_steps // factor, factor) + dw.shape[step_axis + 1 :]
    return dw.reshape(shape).sum(axis=step_axis + 1)
