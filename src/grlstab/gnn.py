"""One-layer linear equivariant GNN with an adjacency-masked ridge objective.

The model predicts yhat = A~ X w with a fixed weight vector w and a learned
matrix A~ supported on the admissible mask Pi (j allowed in row i iff j is
in Xi(i); the mask is symmetric, the fitted values need not be). The
training objective is

    f(A~) = 0.5 ||y - A~ X w||^2 + 0.5 gamma ||A~||_F^2 .

The experiments use fit_projected_closed_form, the masked projection
of the unconstrained stationary point, A~ = Pi o ( y v' (v v' + gamma I)^{-1} )
with v = X w, evaluated through the rank-one identity y v' / (gamma + ||v||^2)
(no matrix inversion). The tests check it against the support-constrained
minimizer, whose rows decouple into scalar ridge problems,
A~_{ij} = y_i v_j 1[j in Xi(i)] / (gamma + sum_{k in Xi(i)} v_k^2), and
whose objective value never exceeds the projected formula's.

Stability experiments replace one training vertex (label endpoint or a
first-order feature bump) and measure worst-case test loss differences
|(yhat_j - y'_j)^2 - (yhat^i_j - y'_j)^2|. The difference is affine in the
test label, so the sup over y'_j in [-B_y, B_y] is attained at an endpoint
and computed exactly. Test features enter only through v' = X' w, each
v'_k in [-R, R] with R = b_x ||w||.

In label mode the sup over test features is read off the fitted rows:

- replacing y_i changes only row i of A~, which either fit sets to
  y_i c m with m = mask_i o v and c the fit's denominator. Every other
  row comes from the same operands through the same elementwise
  operations, so it equals the base's row bit for bit: the predictions
  differ only at test vertex i, and label-mode beta1 is exactly 0;
- there the rows d and s of a_p - a and a_p + a are both multiples of m
  (rounding is monotone, so each entry keeps its sign), so |d.v'| and
  |s.v'| peak at the same corner v'_k = R sign(m_k), and the
  loss-difference sup |d.v'| (|s.v'| + 2 B_y) is R ||d||_1 (R ||s||_1 + 2 B_y).

So each perturbed problem is fitted on its one changed row alone
(GnnProblem.label_row, derived from the trial's validated base problem
with only the new label checked): a (1, n) fit from the same operands
through the same elementwise operations, so it has the bits of row i of
the full perturbed fit. Label mode makes no matrix-vector product.

Feature mode makes no fit (_feature_trial). Bumping row i by eps along w
moves only v_i, by delta = eps ||w||, and c = gamma + ||v||^2 to
c'_i = c + delta (2 v_i + delta). Row j of a_p -+ a is
y_j mask_j o (v'/c'_i -+ v/c): its entries at k != i lie on one line and
add up to y_j L'_ij (a-, a+), L'_ij = sum_{k in Xi(j), k != i} |v_k|, and
entry i is y_j mask_ji (g-, g+). a- = -delta (2 v_i + delta) / c / c'_i and
g- = delta (c - v_i (v_i + v'_i)) / c / c'_i are the differences free of
cancellation (never forming c c'_i, which can overflow), beside
a+ = 1/c'_i + 1/c and g+ = v'_i/c'_i + v_i/c. (d.v', s.v') ranges over the
zonotope of the generators times R, bounded by their angle-sorted walk
(_feature_sup), where |d.v'| (|s.v'| + 2 B_y), a max of four bilinear
functions, peaks at a vertex or an edge's stationary point. Base rows are
drawn in the b_x - eps ball, so every bumped row stays in the b_x ball.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ReceptiveFieldMap, erdos_renyi_graph, one_hop_receptive_fields
from .harness import StabilityEstimate
from .sampling import check_range, rows_in_ball
from .seeding import child_rng, seed_int


_BOUND_TOL = 1e-9  # slack on the b_x / b_y / b_w bound checks


def check_weight_bound(n: int, b_x: float, b_w: float) -> None:
    """Raise ValueError for a b_w at which ||w||^2 or v.v can leave float range.

    Over the b_w ball and n feature rows in the b_x ball, ||w||^2 <= b_w^2
    and v.v <= n (b_x b_w)^2; both must stay below half the largest float,
    which leaves room for the ridge and for rounding. A bound that is not
    finite passes, for the GnnProblem range check to name.
    """
    if not (math.isfinite(b_w) and math.isfinite(b_x)):
        return
    if b_w * max(1.0, b_x * math.sqrt(n)) > math.sqrt(0.5 * sys.float_info.max):
        raise ValueError(f"b_w {b_w!r}: the squared weight and projection norms over "
                         f"{n} rows can leave float range")


@dataclass(frozen=True, eq=False)
class GnnProblem:
    """A masked-ridge training problem over n vertices.

    Its fitted rows, the labels and the mask rows, may be a subset of the
    vertices: a constructed problem is validated and fits all n rows, and
    label_row derives one that fits a single row from this problem's arrays.
    features, v and n always cover all n vertices, so a fit has one row per
    label and n columns.
    """

    features: np.ndarray  # (n, m), row norms <= b_x
    labels: np.ndarray  # (r,), one per fitted row, sup norm <= b_y
    weight: np.ndarray  # (m,), norm <= b_w
    mask: np.ndarray  # (r, n) bool; a constructed problem's is (n, n), symmetric
    ridge: float  # gamma > 0
    b_x: float = 1.0
    b_y: float = 1.0
    b_w: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        n = x.shape[0]
        if y.shape != (n,) or mask.shape != (n, n):
            raise ValueError("labels/mask sizes must match the feature rows")
        if w.shape != (x.shape[1],):
            raise ValueError("weight length must match the feature columns")
        check_range("ridge", self.ridge, strict=True)
        for name in ("b_x", "b_y", "b_w"):
            check_range(name, getattr(self, name), strict=False)
        if not np.array_equal(mask, mask.T):
            raise ValueError("mask must be symmetric")
        if not np.all(np.linalg.norm(x, axis=1) <= self.b_x + _BOUND_TOL):
            raise ValueError("feature row norm exceeds b_x")
        if not np.all(np.abs(y) <= self.b_y + _BOUND_TOL):
            raise ValueError("label magnitude exceeds b_y")
        if not (np.linalg.norm(w) <= self.b_w + _BOUND_TOL):
            raise ValueError("weight norm exceeds b_w")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @cached_property
    def v(self) -> np.ndarray:
        """v = X w, computed once per problem: its arrays are never modified."""
        return self.features @ self.weight

    @cached_property
    def denominator(self) -> float:
        """gamma + ||v||^2, the projected fit's denominator, computed once per problem."""
        return self.ridge + float(self.v @ self.v)

    def label_row(self, i: int, value: float) -> GnnProblem:
        """Row i of this problem with y_i = ``value``; only the new label is checked.

        The result fits one row: its labels are (value,) and its mask is the
        view mask[i:i + 1]. The features, weight, cached v and denominator
        are this validated problem's own, so the mask is not re-checked.
        """
        if not (abs(value) <= self.b_y + _BOUND_TOL):
            raise ValueError("label magnitude exceeds b_y")
        q = object.__new__(GnnProblem)
        vars(q).update(vars(self), labels=np.array([value], dtype=float),
                       mask=self.mask[i:i + 1], v=self.v, denominator=self.denominator)
        return q


def fit_projected_closed_form(p: GnnProblem) -> np.ndarray:
    """Masked projection of the unconstrained ridge stationary point; returns A~."""
    return np.where(p.mask, np.outer(p.labels, p.v) / p.denominator, 0.0)


# ---------------------------------------------------------------------------
# Stability experiments

LABEL_MODE = "label"
FEATURE_MODE = "feature-first-order"


@dataclass(frozen=True, eq=False)
class GnnStabilityResult(StabilityEstimate):
    sup_d: float
    inf_d: float
    seed: int


def _label_trial(base: GnnProblem, a_base: np.ndarray, radius: float, beta2_i: np.ndarray):
    """Fit a label-mode trial's 2n perturbed problems; fold their exact sups into beta2_i.

    Row i of rows[f] is the one row of the fit of base.label_row(i, (-B_y, B_y)[f]);
    radius is b_x ||w||, the bound on each test projection v'_k.
    """
    n, b_y = base.n, base.b_y
    rows = np.empty((2, n, n))
    for i, f in np.ndindex(n, 2):
        rows[f, i] = fit_projected_closed_form(base.label_row(i, (-b_y, b_y)[f]))[0]
    # the l1 norms of each fit's row i of a_p - a and a_p + a (module docstring)
    d = rows - a_base
    d = np.abs(d, out=d).sum(axis=2)
    rows += a_base
    s = np.abs(rows, out=rows).sum(axis=2)
    np.maximum(beta2_i, (radius * d * (radius * s + 2.0 * b_y)).max(axis=0), out=beta2_i)


def _feature_sup(d: np.ndarray, s: np.ndarray, radius: float, b_y: float) -> np.ndarray:
    """Per row j, max over v in [-radius, radius]^n of |d_j.v| (|s_j.v| + 2 b_y); (r,).

    The vertices of the zonotope's half boundary (see the module docstring)
    and, on each edge e, the stationary points of the two bilinear functions
    sigma x (tau y + c) that are concave along it (sigma tau = -sign(e_x e_y)),
    clipped to the edge, are the candidates.
    """
    # each generator turned into the upper half-plane, then doubled: the edges
    turn = np.where((s < 0.0) | ((s == 0.0) & (d < 0.0)), -2.0 * radius, 2.0 * radius)
    ex, ey = turn * d, turn * s
    order = np.argsort(np.arctan2(ey, ex), axis=1)
    ex = np.take_along_axis(ex, order, axis=1)
    ey = np.take_along_axis(ey, order, axis=1)
    # each edge's end, from -sum g + 2 g_1 to +sum g (the objective is even,
    # so the start -sum g counts as its mirror), then each edge's start
    x = np.cumsum(ex, axis=1) - 0.5 * ex.sum(axis=1, keepdims=True)
    y = np.cumsum(ey, axis=1) - 0.5 * ey.sum(axis=1, keepdims=True)
    c = 2.0 * b_y
    best = (np.abs(x) * (np.abs(y) + c)).max(axis=1)
    x, y = x - ex, y - ey
    curv = np.abs(ex * ey)
    lin = -np.sign(ex * ey) * (ex * y + ey * x)
    for sigma in (-1.0, 1.0):
        t = np.divide(lin + sigma * c * ex, 2.0 * curv, out=np.zeros_like(curv),
                      where=curv > 0.0)
        np.clip(t, 0.0, 1.0, out=t)
        best = np.maximum(best, (np.abs(x + t * ex) * (np.abs(y + t * ey) + c)).max(axis=1))
    return best


def _feature_trial(base: GnnProblem, delta: float, radius: float, beta1_i: np.ndarray,
                   beta2_i: np.ndarray):
    """Fold a feature-mode trial's exact sups into beta1_i and beta2_i, with no fit.

    delta = eps ||w|| bumps v_i and radius = b_x ||w|| bounds each v'_k; every
    (vertex i, test row j) has two generators (module docstring), passed to
    _feature_sup a block of vertices at a time.
    """
    v, c, mask = base.v, base.denominator, base.mask
    bumped, c_i = v + delta, c + delta * (2.0 * v + delta)
    d_coef = np.stack((-delta * (2.0 * v + delta) / c / c_i,
                       delta * (c - v * (v + bumped)) / c / c_i), axis=1)
    s_coef = np.stack((1.0 / c_i + 1.0 / c, bumped / c_i + v / c), axis=1)
    size = np.abs(v)
    total = mask @ size  # L_j
    block = max(1, 4096 // base.n)  # ~4096 (i, j) pairs per call: memory stays O(n)
    for lo in range(0, base.n, block):
        verts = slice(lo, lo + block)
        m = mask[verts]  # (vertex i, test row j): mask_ij = mask_ji
        # y_j L'_ij and y_j mask_ji
        coef = np.stack((total - m * size[verts, None], m), axis=2) * base.labels[:, None]
        sup = _feature_sup((coef * d_coef[verts, None]).reshape(-1, 2),
                           (coef * s_coef[verts, None]).reshape(-1, 2),
                           radius, base.b_y).reshape(m.shape)
        np.maximum(beta2_i[verts], sup.max(axis=1), out=beta2_i[verts])
        np.maximum(beta1_i[verts], np.where(m, 0.0, sup).max(axis=1), out=beta1_i[verts])


def gnn_stability_experiment(rf: ReceptiveFieldMap, kind: str, trials: int,
                             eps_feature: float, seed: int, ridge: float = 1.0,
                             b_x: float = 1.0, b_y: float = 1.0, b_w: float = 1.0,
                             dim: int = 3) -> GnnStabilityResult:
    """Estimate per-vertex type-1/type-2 stability of the masked ridge fit.

    label mode: y_i replaced by each endpoint of [-B_y, B_y].
    feature mode: row i bumped by eps_feature along the weight direction
    (first-order regime; eps, >= 0.1 b_x is rejected). In both modes the sup
    over test samples is exact: label mode reads it off the fitted rows' l1
    norms, and feature mode makes no fit (_feature_trial). The max over the
    trials' random training data stays a lower estimate of the definitional
    sup. ValueError is raised up front for a b_w whose squared norms can
    leave float range (check_weight_bound) and for a feature-mode
    eps_feature that is not finite and >= 0, and by the first trial's
    GnnProblem for a ridge that is not finite and > 0 or a b_w that is not
    finite and >= 0.
    """
    if kind not in (LABEL_MODE, FEATURE_MODE):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    check_weight_bound(rf.n, b_x, b_w)
    if kind == FEATURE_MODE:
        check_range("eps_feature", eps_feature, strict=False)
        if eps_feature >= 0.1 * b_x:
            raise ValueError("feature bump must stay below 0.1 b_x (first-order regime)")
    n, base_radius = rf.n, b_x - eps_feature if kind == FEATURE_MODE else b_x
    beta1_i, beta2_i = np.zeros((2, n))
    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        x = rows_in_ball(rng, n, dim, base_radius)
        y = rng.uniform(-b_y, b_y, size=n)
        w = rows_in_ball(rng, 1, dim, b_w)[0]
        base = GnnProblem(features=x, labels=y, weight=w, mask=rf.mask, ridge=ridge,
                          b_x=b_x, b_y=b_y, b_w=b_w)
        wn = float(np.linalg.norm(w))
        if kind == LABEL_MODE:
            _label_trial(base, fit_projected_closed_form(base), b_x * wn, beta2_i)
        else:
            _feature_trial(base, eps_feature * wn, b_x * wn, beta1_i, beta2_i)

    return GnnStabilityResult(beta1_i=beta1_i, beta2_i=beta2_i, sup_d=rf.sup_d,
                              inf_d=float(rf.d.min()), seed=seed)


# ---------------------------------------------------------------------------
# Sweeps


def density_mask_fields(n: int, p: float, seed: int) -> ReceptiveFieldMap:
    """Receptive fields of an Erdos-Renyi style symmetric mask with density p."""
    return one_hop_receptive_fields(erdos_renyi_graph(n, p, seed))


def sweep_point(density: float, index: int, replicate: int, n: int, trials: int, seed: int,
                kind: str = LABEL_MODE, eps_feature: float = 0.05,
                **kwargs) -> GnnStabilityResult:
    """One (density, replicate) experiment of a density sweep.

    Its seeds derive from the density's index in the sweep, so a point
    gives the same numbers whichever caller runs it, alone or in a sweep.
    """
    rf = density_mask_fields(n, density, seed_int(seed, "mask", index, replicate))
    return gnn_stability_experiment(rf, kind, trials, eps_feature,
                                    seed_int(seed, "exp", index, replicate), **kwargs)
