"""Reference fit, objective, gradient and test-space sup of the masked-ridge GNN.

The experiments never evaluate the training objective: they fit with the
closed form. These oracles let the tests check that fit against the
support-constrained minimizer and both against the objective they minimize,
the feature-mode zonotope sup against a walk over every edge of the box, and
the feature-mode closed form against refits in float, long double or
rational arithmetic.
"""

import itertools
from fractions import Fraction

import numpy as np

from grlstab import gnn


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


def feature_trial_by_fits(p, eps: float, dtype=float) -> np.ndarray:
    """(beta1_i, beta2_i) of one feature-mode trial on problem p, by refitting; (2, n).

    Row i of the features is bumped by eps along the weight, each bumped
    problem is fitted with the projected closed form's expression, and
    gnn._feature_sup takes the pair (a_p - a, a_p + a) with R = b_x ||w||:
    the path the experiment took before its closed form. With dtype
    np.longdouble every step runs in extended precision.
    """
    x, y, w = (np.asarray(t, dtype=dtype) for t in (p.features, p.labels, p.weight))
    zero = dtype(0.0)
    wn = np.sqrt(w @ w)
    bump = w / wn * dtype(eps) if wn > 0 else np.zeros_like(w)

    def fit(features):
        v = features @ w
        return np.where(p.mask, np.outer(y, v) / (dtype(p.ridge) + v @ v), zero)

    a = fit(x)
    out = np.zeros((2, p.n), dtype=dtype)
    for i in range(p.n):
        bumped = x.copy()
        bumped[i] += bump
        a_p = fit(bumped)
        sup = gnn._feature_sup(a_p - a, a_p + a, dtype(p.b_x) * wn, dtype(p.b_y))
        out[:, i] = np.where(p.mask[i], zero, sup).max(), sup.max()
    return out


def _to_longdouble(f: Fraction) -> np.longdouble:
    """f rounded to long double through an integer of at most 63 bits."""
    if not f:
        return np.longdouble(0.0)
    k = 62 - (abs(f.numerator).bit_length() - f.denominator.bit_length())
    return np.ldexp(np.longdouble(round(f * Fraction(2) ** k)), -k)


def feature_trial_by_exact_fits(p, delta: float) -> np.ndarray:
    """(beta1_i, beta2_i) of one feature-mode trial on p by refits in rationals; (2, n).

    v_i is bumped by exactly delta, as moving row i by delta w / (w.w) does.
    Every refit and every a_p -+ a is exact, rounded once to long double, and
    gnn._feature_sup takes them in long double with R = b_x ||w||, so no
    cancellation enters at any bump size.
    """
    n = p.n
    v = [sum(Fraction(a) * Fraction(b) for a, b in zip(row, p.weight)) for row in p.features]
    y = [Fraction(t) for t in p.labels]

    def fit(vv):
        c = Fraction(p.ridge) + sum(t * t for t in vv)
        return [[y[j] * vv[k] / c if p.mask[j, k] else Fraction(0) for k in range(n)]
                for j in range(n)]

    w = p.weight.astype(np.longdouble)
    radius = np.longdouble(p.b_x) * np.sqrt(w @ w)
    a = fit(v)
    out = np.zeros((2, n), dtype=np.longdouble)
    for i in range(n):
        a_p = fit(v[:i] + [v[i] + Fraction(delta)] + v[i + 1:])
        d, s = (np.array([[_to_longdouble(a_p[j][k] + sign * a[j][k]) for k in range(n)]
                          for j in range(n)]) for sign in (-1, 1))
        sup = gnn._feature_sup(d, s, radius, np.longdouble(p.b_y))
        out[:, i] = np.where(p.mask[i], 0.0, sup).max(), sup.max()
    return out
