"""Reference fit, objective and gradient of the masked-ridge GNN.

The experiments never evaluate the training objective: they fit with the
closed form. These oracles let the tests check that fit against the
support-constrained minimizer and both against the objective they minimize.
"""

import numpy as np


class SupportError(ValueError):
    """A matrix has mass outside the admissible mask."""


def gnn_objective(p, a: np.ndarray) -> float:
    """0.5 ||y - A~ X w||^2 + 0.5 gamma ||A~||_F^2; rejects support violations."""
    if np.any((a != 0.0) & ~p.mask):
        raise SupportError("solution has mass outside the admissible mask")
    resid = p.labels - a @ p.v
    return float(0.5 * resid @ resid + 0.5 * p.ridge * np.sum(a * a))


def full_objective_gradient(p, a: np.ndarray) -> np.ndarray:
    """-y v' + A~ (v v' + gamma I), the unmasked objective gradient."""
    v = p.v
    return -np.outer(p.labels, v) + (a @ v)[:, None] * v[None, :] + p.ridge * a


def fit_exact_rowwise(p) -> np.ndarray:
    """Support-constrained minimizer; rows decouple into scalar ridges.

    Returns A~ with one row per label of p (its fitted rows) and p.n columns.
    """
    v = p.v
    a = np.zeros((len(p.labels), p.n))
    for i, row_mask in enumerate(p.mask):
        denom = p.ridge + float(np.sum(v[row_mask] ** 2))
        a[i, row_mask] = p.labels[i] * v[row_mask] / denom
    return a
