"""Reference fit, objective, gradient and test-space sup of the masked-ridge GNN.

The experiments never evaluate the training objective: they fit with the
closed form. These oracles let the tests check that fit against the
support-constrained minimizer and both against the objective they minimize,
and the feature-mode zonotope sup against a walk over every edge of the box.
"""

import itertools

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


def feature_sup_box_edges(d: np.ndarray, s: np.ndarray, radius: float, b_y: float) -> np.ndarray:
    """Per row j, max over v in [-radius, radius]^n of |d_j.v| (|s_j.v| + 2 b_y).

    The objective is the max of the bilinear sigma x (tau y + c) of
    (x, y) = (d_j.v, s_j.v), and each of those peaks on an edge of the box:
    a face of higher dimension holds an interior max only along a direction
    where the function is constant. So the max is taken over each edge's
    endpoints and the stationary points of the bilinear functions that are
    concave along it, every edge of the box enumerated (n 2^(n-1) of them).
    """
    r, n = d.shape
    c = 2.0 * b_y
    out = np.zeros(r)
    for k in range(n):
        rest = [l for l in range(n) if l != k]
        corners = np.zeros((2 ** (n - 1), n))
        corners[:, rest] = list(itertools.product((-radius, radius), repeat=n - 1))
        for j in range(r):
            x0, y0 = corners @ d[j], corners @ s[j]  # each edge's midpoint
            dx, dy = d[j, k], s[j, k]
            ts = [np.full_like(x0, -radius), np.full_like(x0, radius)]
            for sigma, tau in itertools.product((-1.0, 1.0), repeat=2):
                a = sigma * tau * dx * dy
                if a < 0.0:
                    t = -(sigma * tau * (dx * y0 + dy * x0) + sigma * c * dx) / (2.0 * a)
                    ts.append(np.clip(t, -radius, radius))
            for t in ts:
                out[j] = max(out[j], float(np.max(np.abs(x0 + t * dx)
                                                  * (np.abs(y0 + t * dy) + c))))
    return out
