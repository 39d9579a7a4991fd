"""One-layer linear equivariant GNN with an adjacency-masked ridge objective.

The model predicts yhat = A~ X w with a fixed weight vector w and a learned
matrix A~ supported on the admissible mask Pi (j allowed in row i iff j is
in Xi(i); the mask is symmetric, the fitted values need not be). The
training objective is

    f(A~) = 0.5 ||y - A~ X w||^2 + 0.5 gamma ||A~||_F^2 .

The experiments fit with fit_projected_closed_form, the masked projection
of the unconstrained stationary point, A~ = Pi o ( y v' (v v' + gamma I)^{-1} )
with v = X w, evaluated through the rank-one identity y v' / (gamma + ||v||^2)
(no matrix inversion). fit_exact_rowwise, the support-constrained minimizer,
is the reference it is checked against: rows decouple into scalar ridge
problems, A~_{ij} = y_i v_j 1[j in Xi(i)] / (gamma + sum_{k in Xi(i)} v_k^2),
and its objective value never exceeds the projected formula's.

Stability experiments replace one training vertex (label endpoint or a
first-order feature bump), refit, and measure worst-case test loss
differences |(yhat_j - y'_j)^2 - (yhat^i_j - y'_j)^2|. The difference is
affine in the test label, so the sup over y'_j in [-B_y, B_y] is attained
at an endpoint and computed exactly. Test features enter only through
v' = X' w, each v'_k in [-b_x ||w||, b_x ||w||].

In label mode the sup over test features is exact at the sign corner:

- replacing y_i changes only row i of A~, which either fit sets to
  y_i c m with m = mask_i o v and c the fit's denominator, so the
  predictions differ only at test vertex i (label-mode beta1 is 0);
- there the rows of a_p - a and a_p + a are both multiples of m, so the
  loss-difference sup |d.v'| (|s.v'| + 2 B_y) increases with |m.v'|;
- |m.v'| is largest at v'_k = b_x ||w|| sign(m_k), the corner built from
  the sign pattern of the fitted difference.

So label mode evaluates the sign corners only, and the test-draw count
affects feature mode alone. In feature mode the sup is lower estimated by
Monte Carlo draws plus sign-corner candidates. One vertex's candidates are
evaluated as one batch: a (C, n, dim) array of test features, batched
matrix-vector products for the base and perturbed fits, and one exact max
over the (C, fits, n) block of loss differences, so the estimate equals
the max a candidate-by-candidate loop would take.

Perturbed problems derive from the trial's validated base problem
(GnnProblem.with_label, GnnProblem.with_feature_row): the shared mask is
not re-checked and only the replaced entries are bound-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import (ReceptiveFieldMap, erdos_renyi_graph, mask_from_fields,
                     one_hop_receptive_fields)
from .seeding import child_rng, seed_int


_BOUND_TOL = 1e-9  # slack on the b_x / b_y / b_w bound checks


@dataclass(frozen=True, eq=False)
class GnnProblem:
    features: np.ndarray  # (n, m), row norms <= b_x
    labels: np.ndarray  # (n,), sup norm <= b_y
    weight: np.ndarray  # (m,), norm <= b_w
    mask: np.ndarray  # (n, n) bool, symmetric
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
        if self.ridge <= 0:
            raise ValueError("ridge parameter must be > 0")
        if not np.array_equal(mask, mask.T):
            raise ValueError("mask must be symmetric")
        if np.any(np.linalg.norm(x, axis=1) > self.b_x + _BOUND_TOL):
            raise ValueError("feature row norm exceeds b_x")
        if np.any(np.abs(y) > self.b_y + _BOUND_TOL):
            raise ValueError("label magnitude exceeds b_y")
        if np.linalg.norm(w) > self.b_w + _BOUND_TOL:
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

    def with_label(self, i: int, value: float) -> GnnProblem:
        """This problem with label i set to ``value``; only the new label is checked.

        The features, weight and mask are this validated problem's own
        arrays, so the mask is not re-checked and the cached v is shared.
        """
        if abs(value) > self.b_y + _BOUND_TOL:
            raise ValueError("label magnitude exceeds b_y")
        labels = self.labels.copy()
        labels[i] = value
        return self._derived(labels=labels, v=self.v)

    def with_feature_row(self, i: int, row) -> GnnProblem:
        """This problem with feature row i replaced; only the new row is checked.

        The labels, weight and mask are shared with this validated problem;
        v is recomputed from the new features on first use.
        """
        row = np.asarray(row, dtype=float)
        if row.shape != self.weight.shape:
            raise ValueError("feature row length must match the feature columns")
        if np.linalg.norm(row) > self.b_x + _BOUND_TOL:
            raise ValueError("feature row norm exceeds b_x")
        features = self.features.copy()
        features[i] = row
        return self._derived(features=features)

    def _derived(self, **fields) -> GnnProblem:
        """A problem sharing every field but ``fields`` with this one, unvalidated."""
        q = object.__new__(GnnProblem)
        vars(q).update({k: val for k, val in vars(self).items() if k != "v"}, **fields)
        return q


def fit_projected_closed_form(p: GnnProblem) -> np.ndarray:
    """Masked projection of the unconstrained ridge stationary point; returns A~."""
    v = p.v
    a = np.outer(p.labels, v) / (p.ridge + float(v @ v))
    return np.where(p.mask, a, 0.0)


def fit_exact_rowwise(p: GnnProblem) -> np.ndarray:
    """Support-constrained minimizer; rows decouple into scalar ridges. Returns A~."""
    v = p.v
    a = np.zeros((p.n, p.n))
    for i in range(p.n):
        row_mask = p.mask[i]
        denom = p.ridge + float(np.sum(v[row_mask] ** 2))
        a[i, row_mask] = p.labels[i] * v[row_mask] / denom
    return a


# ---------------------------------------------------------------------------
# Stability experiments

LABEL_MODE = "label"
FEATURE_MODE = "feature-first-order"


@dataclass(frozen=True, eq=False)
class GnnStabilityResult:
    n: int
    beta1_i: np.ndarray
    beta2_i: np.ndarray
    beta1: float
    beta2: float
    discrepancy: float
    sup_d: float
    inf_d: float
    seed: int


def _rows_in_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= radius * rng.random((count, 1)) ** (1.0 / dim)
    return rows


def _loss_diff_sup_label(pred_base: np.ndarray, pred_pert: np.ndarray, b_y: float) -> np.ndarray:
    """sup over y' in [-B_y, B_y] of |(p - y')^2 - (q - y')^2| per vertex.

    (p - y')^2 - (q - y')^2 = (p - q)(p + q - 2 y') is affine in y', so the
    sup sits at an endpoint: |p - q| (|p + q| + 2 B_y).
    """
    return np.abs(pred_base - pred_pert) * (np.abs(pred_base + pred_pert) + 2.0 * b_y)


def _test_feature_candidates(rng, n, dim, b_x, weight, pairs, n_draws) -> np.ndarray:
    """Monte Carlo test feature sets plus sign-corner candidates, as one (C, n, dim) array.

    In label mode the sign corner of the fitted difference attains the exact
    sup over test features (see the module docstring), so the experiment
    passes n_draws = 0 there; the draws serve feature mode only.

    The n_draws Monte Carlo sets come first, drawn as _rows_in_ball draws
    them (one normal and one uniform call per set, in that order) and then
    normalised and scaled together. Corners follow: they set every row to
    +-b_x along the weight direction; sign patterns come from the dominant
    rows of each fitted difference (which drive the first factor of the
    loss-difference product) and from the matching rows of the
    base+perturbed sum (the second factor). Rows where the difference is
    negligible contribute nothing to the product, so only the leading rows
    spawn corners. Corners use no randomness.
    """
    signs = []
    wn = float(np.linalg.norm(weight))
    if wn > 0.0:
        for delta, summed in pairs:
            norms = np.linalg.norm(delta, axis=1)
            top = float(norms.max())
            if top == 0.0:
                continue
            rows = np.nonzero(norms >= 0.25 * top)[0]
            rows = rows[np.argsort(norms[rows])[::-1][:8]]
            for j in rows:
                for source in (delta[j], summed[j]):
                    if np.any(source != 0.0):
                        signs.append(np.where(source >= 0.0, 1.0, -1.0))
    cands = np.empty((n_draws + len(signs), n, dim))
    draws = cands[:n_draws]
    radii = np.empty((n_draws, n, 1))
    for k in range(n_draws):
        draws[k] = rng.normal(size=(n, dim))
        radii[k] = rng.random((n, 1))
    draws /= np.linalg.norm(draws, axis=2, keepdims=True)
    draws *= b_x * radii ** (1.0 / dim)
    if signs:
        np.multiply(np.array(signs)[:, :, None], b_x * (weight / wn), out=cands[n_draws:])
    return cands


def gnn_stability_experiment(rf: ReceptiveFieldMap, kind: str, trials: int,
                             eps_feature: float, seed: int,
                             n_test_draws: int = 32, ridge: float = 1.0,
                             b_x: float = 1.0, b_y: float = 1.0, b_w: float = 1.0,
                             dim: int = 3) -> GnnStabilityResult:
    """Estimate per-vertex type-1/type-2 stability of the masked ridge fit.

    label mode: y_i replaced by each endpoint of [-B_y, B_y].
    feature mode: row i bumped by eps_feature along the weight direction
    (first-order regime; eps, >= 0.1 b_x is rejected). Estimates are lower
    bounds of the definitional suprema. In label mode the sup over test
    samples is exact (the sign corners attain it), so n_test_draws is not
    read there.
    """
    if kind not in (LABEL_MODE, FEATURE_MODE):
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if n_test_draws < 0:
        raise ValueError("n_test_draws must be >= 0")
    if kind == FEATURE_MODE and eps_feature >= 0.1 * b_x:
        raise ValueError("feature bump must stay below 0.1 b_x (first-order regime)")
    mask = mask_from_fields(rf)
    n = rf.n
    beta1_i = np.zeros(n)
    beta2_i = np.zeros(n)
    outside = [rf.outside(i) for i in range(n)]
    # label mode: the sign corners attain the sup (module docstring)
    draws = n_test_draws if kind == FEATURE_MODE else 0

    for trial in range(trials):
        rng = child_rng(seed, "gnn-trial", trial)
        base_radius = b_x - eps_feature if kind == FEATURE_MODE else b_x
        x = _rows_in_ball(rng, n, dim, base_radius)
        y = rng.uniform(-b_y, b_y, size=n)
        w = _rows_in_ball(rng, 1, dim, b_w)[0]
        base = GnnProblem(features=x, labels=y, weight=w, mask=mask, ridge=ridge,
                          b_x=b_x, b_y=b_y, b_w=b_w)
        a_base = fit_projected_closed_form(base)
        wn = float(np.linalg.norm(w))
        bump = (w / wn if wn > 0 else np.eye(dim)[0]) * eps_feature

        for i in range(n):
            if kind == LABEL_MODE:
                perturbed = [base.with_label(i, endpoint) for endpoint in (-b_y, b_y)]
            else:
                perturbed = [base.with_feature_row(i, x[i] + bump)]

            fits = np.stack([fit_projected_closed_form(q) for q in perturbed])
            # The candidates and the (difference, sum) pairs die with this
            # call, before the (C, F, n) block below is built.
            vt = _test_feature_candidates(
                rng, n, dim, b_x, w, [(a_p - a_base, a_p + a_base) for a_p in fits],
                draws) @ w
            if not len(vt):
                continue
            # (C, 1, n, 1) test projections; each product below is one
            # matrix-vector call per candidate, as in a per-candidate loop.
            vt = vt[:, None, :, None]
            sup_y = _loss_diff_sup_label((a_base @ vt)[..., 0], (fits @ vt)[..., 0], b_y)
            beta2_i[i] = max(beta2_i[i], float(sup_y.max()))
            if outside[i].size:
                beta1_i[i] = max(beta1_i[i], float(sup_y[:, :, outside[i]].max()))

    return GnnStabilityResult(
        n=n, beta1_i=beta1_i, beta2_i=beta2_i,
        beta1=float(beta1_i.max()), beta2=float(beta2_i.max()),
        discrepancy=float(beta2_i.max() - beta1_i.max()),
        sup_d=rf.sup_d, inf_d=float(rf.d.min()), seed=seed,
    )


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
