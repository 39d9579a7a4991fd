"""One-layer linear equivariant GNN with an adjacency-masked ridge objective.

The model predicts yhat = A~ X w with a fixed weight vector w and a learned
matrix A~ supported on the admissible mask Pi (j allowed in row i iff j is
in Xi(i); the mask is symmetric, the fitted values need not be). The
training objective is

    f(A~) = 0.5 ||y - A~ X w||^2 + 0.5 gamma ||A~||_F^2 .

The experiments fit with fit_projected_closed_form, the masked projection
of the unconstrained stationary point, A~ = Pi o ( y v' (v v' + gamma I)^{-1} )
with v = X w, evaluated through the rank-one identity y v' / (gamma + ||v||^2)
(no matrix inversion). The tests check it against the support-constrained
minimizer, whose rows decouple into scalar ridge problems,
A~_{ij} = y_i v_j 1[j in Xi(i)] / (gamma + sum_{k in Xi(i)} v_k^2), and
whose objective value never exceeds the projected formula's.

Stability experiments replace one training vertex (label endpoint or a
first-order feature bump), refit, and measure worst-case test loss
differences |(yhat_j - y'_j)^2 - (yhat^i_j - y'_j)^2|. The difference is
affine in the test label, so the sup over y'_j in [-B_y, B_y] is attained
at an endpoint and computed exactly. Test features enter only through
v' = X' w, each v'_k in [-b_x ||w||, b_x ||w||].

In label mode the sup over test features is exact at the sign corner, and
the experiment needs only row i of each perturbed fit:

- replacing y_i changes only row i of A~, which either fit sets to
  y_i c m with m = mask_i o v and c the fit's denominator. Every other
  row comes from the same operands through the same elementwise
  operations, so it equals the base's row bit for bit, and so does its
  entry of each matrix-vector product: the predictions differ only at
  test vertex i, and label-mode beta1 is exactly 0;
- there the rows of a_p - a and a_p + a are both multiples of m, so the
  loss-difference sup |d.v'| (|s.v'| + 2 B_y) increases with |m.v'|;
- |m.v'| is largest at v'_k = b_x ||w|| sign(m_k), so vertex i has one
  corner, read off the base problem's mask_i o v.

So each perturbed problem is fitted on its one changed row alone
(GnnProblem.label_row): a (1, n) fit from the same operands through the
same elementwise operations, so it has the bits of row i of the full
perturbed fit. It is kept as row i of a composite matrix per endpoint. A
block of vertices' corners goes through one batch of full matrix-vector
products with A~ and the composites, read at entry i for vertex i: an
entry depends only on its row, its position and the vector, so it has
the perturbed fit's own bits (a lone row's dot product may not).

In feature mode the sup over test features is exact too (_feature_sup):
with d and s the rows of a_p - a and a_p + a, (d.v', s.v') ranges over a
2-D zonotope, generators b_x ||w|| (d_k, s_k), whose boundary is the
angle-sorted walk of those generators. |d.v'| (|s.v'| + 2 B_y) is the max
of four bilinear functions, each peaking at a vertex or at an interior
stationary point of an edge, so the sup is a max over O(n) points per row.

Perturbed problems derive from the trial's validated base problem
(GnnProblem.label_row, GnnProblem.with_feature_row): the shared mask is
not re-checked and only the replaced entries are bound-checked. A label
row problem fits row i only; a feature-row problem fits all n rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import ReceptiveFieldMap, erdos_renyi_graph, one_hop_receptive_fields
from .harness import StabilityEstimate
from .sampling import check_range, rows_in_ball
from .seeding import child_rng, seed_int


_BOUND_TOL = 1e-9  # slack on the b_x / b_y / b_w bound checks


@dataclass(frozen=True, eq=False)
class GnnProblem:
    """A masked-ridge training problem over n vertices.

    Its fitted rows, the labels and the mask rows, may be a subset of the
    vertices: a constructed problem fits all n rows, and label_row derives
    one that fits a single row. features, v and n always cover all n
    vertices, so a fit has one row per label and n columns.
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
        """v = X w, the per-vertex projected features, computed once per problem.

        A problem's arrays are not modified after construction, so the cached
        product stays valid.
        """
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
        return self._derived(labels=np.array([value], dtype=float),
                             mask=self.mask[i:i + 1], v=self.v,
                             denominator=self.denominator)

    def with_feature_row(self, i: int, row) -> GnnProblem:
        """This problem with feature row i replaced; only the new row is checked.

        The labels, weight and mask are shared with this validated problem;
        v and the denominator are recomputed from the new features on first use.
        """
        row = np.asarray(row, dtype=float)
        if row.shape != self.weight.shape:
            raise ValueError("feature row length must match the feature columns")
        if not (np.linalg.norm(row) <= self.b_x + _BOUND_TOL):
            raise ValueError("feature row norm exceeds b_x")
        features = self.features.copy()
        features[i] = row
        return self._derived(features=features)

    def _derived(self, **fields) -> GnnProblem:
        """A problem sharing every field but ``fields`` with this one, unvalidated."""
        q = object.__new__(GnnProblem)
        vars(q).update({k: val for k, val in vars(self).items()
                        if k not in ("v", "denominator")}, **fields)
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


def _loss_diff_sup_label(pred_base: np.ndarray, pred_pert: np.ndarray, b_y: float) -> np.ndarray:
    """sup over y' in [-B_y, B_y] of |(p - y')^2 - (q - y')^2| per vertex.

    (p - y')^2 - (q - y')^2 = (p - q)(p + q - 2 y') is affine in y', so the
    sup sits at an endpoint: |p - q| (|p + q| + 2 B_y).
    """
    return np.abs(pred_base - pred_pert) * (np.abs(pred_base + pred_pert) + 2.0 * b_y)


# Cap on the candidate entries (corners x test vertices) of one label-mode
# product; a vertex has one corner, so at n = 64 a trial is one block.
LABEL_BLOCK = 1 << 14


def _label_trial(base: GnnProblem, a_base: np.ndarray, corner, beta2_i: np.ndarray):
    """Fit a label-mode trial's 2n perturbed problems; fold its sups into beta2_i.

    Row i of rows[f] is the one row of the fit of base.label_row(i, (-B_y, B_y)[f]).
    """
    n, w, b_y = base.n, base.weight, base.b_y
    rows = np.empty((2, n, n))
    for i, f in np.ndindex(n, 2):  # every perturbed problem is fitted, even with no corner
        rows[f, i] = fit_projected_closed_form(base.label_row(i, (-b_y, b_y)[f]))[0]
    if corner is None:
        return
    step = max(1, LABEL_BLOCK // n)
    for lo in range(0, n, step):
        delta = rows[:, lo:lo + step] - a_base[lo:lo + step]
        # a vertex whose row some fit moved (some square is nonzero) gets its corner
        vert = lo + np.nonzero((delta * delta).any(axis=2).any(axis=0))[0]
        signs = np.where(base.mask[vert] * base.v >= 0.0, 1.0, -1.0)
        # (K, n, 1) test projections; each product is one matrix-vector call per corner
        vt = ((signs[:, :, None] * corner) @ w)[:, :, None]
        k = np.arange(vert.size)
        sup_y = _loss_diff_sup_label((a_base @ vt)[k, vert, 0],
                                     (rows[:, None] @ vt)[:, k, vert, 0], b_y)
        beta2_i[vert] = np.maximum(beta2_i[vert], sup_y.max(axis=0))


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


def gnn_stability_experiment(rf: ReceptiveFieldMap, kind: str, trials: int,
                             eps_feature: float, seed: int, ridge: float = 1.0,
                             b_x: float = 1.0, b_y: float = 1.0, b_w: float = 1.0,
                             dim: int = 3) -> GnnStabilityResult:
    """Estimate per-vertex type-1/type-2 stability of the masked ridge fit.

    label mode: y_i replaced by each endpoint of [-B_y, B_y].
    feature mode: row i bumped by eps_feature along the weight direction
    (first-order regime; eps, >= 0.1 b_x is rejected). In both modes the sup
    over test samples is exact: the sign corner attains it in label mode,
    and _feature_sup computes it in feature mode. The max over the trials'
    random training data stays a lower estimate of the definitional sup.
    ValueError is raised up front for a feature-mode eps_feature
    that is not finite and >= 0, and by the first trial's GnnProblem for a
    ridge that is not finite and > 0 or a b_w that is not finite and >= 0.
    """
    if kind not in (LABEL_MODE, FEATURE_MODE):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if kind == FEATURE_MODE:
        check_range("eps_feature", eps_feature, strict=False)
        if eps_feature >= 0.1 * b_x:
            raise ValueError("feature bump must stay below 0.1 b_x (first-order regime)")
    n = rf.n
    beta1_i, beta2_i = np.zeros((2, n))
    outside = [rf.outside(i) for i in range(n)] if kind == FEATURE_MODE else None

    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        base_radius = b_x - eps_feature if kind == FEATURE_MODE else b_x
        x = rows_in_ball(rng, n, dim, base_radius)
        y = rng.uniform(-b_y, b_y, size=n)
        w = rows_in_ball(rng, 1, dim, b_w)[0]
        base = GnnProblem(features=x, labels=y, weight=w, mask=rf.mask, ridge=ridge,
                          b_x=b_x, b_y=b_y, b_w=b_w)
        a_base = fit_projected_closed_form(base)
        wn = float(np.linalg.norm(w))
        unit = w / wn if wn > 0 else np.eye(dim)[0]
        if kind == LABEL_MODE:  # corners at +-b_x along w; a zero weight has none
            _label_trial(base, a_base, b_x * unit if wn > 0 else None, beta2_i)
            continue
        bump = unit * eps_feature
        for i in range(n):
            a_p = fit_projected_closed_form(base.with_feature_row(i, x[i] + bump))
            sup = _feature_sup(a_p - a_base, a_p + a_base, b_x * wn, b_y)
            beta2_i[i] = max(beta2_i[i], float(sup.max()))
            if outside[i].size:
                beta1_i[i] = max(beta1_i[i], float(sup[outside[i]].max()))

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
