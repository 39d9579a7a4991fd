"""Sparsity-regularized selection over nested receptive-field degree classes.

The degree-d class H_d truncates every receptive field to the members within
circular index distance d-1 of the vertex (distance-sorted prefixes, so
H_1 keeps only the vertex itself and the classes are nested by
construction). A class-d hypothesis is linear in the rank-concatenated
member features,

    h_W(T_i) = sum over rank slots r active at degree d of <w_r, x_{nu_r(i)}>,

so zero-padding embeds class d into class d' > d exactly. Training solves
the norm-ball-constrained least squares

    min over ||W|| <= R of (1/2N) ||Phi_d W - y||^2

exactly (one SVD of Phi_d; on the boundary, Newton's method on the ridge
multiplier's secular equation), which makes the per-class empirical risk
provably non-increasing in d.

The penalized estimator picks argmin_d Rhat(h_d) + 2 lambda d beta2(d)
(ties toward smaller d); the plain ERM of a fixed degree class is
``SrmClassAlgorithm``, the learner the stability harness trains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import srm_confidence, srm_epsilon_floor
from .graphs import ReceptiveFieldMap
from .sampling import SampleSet, check_range


def _circular_distance(i: int, j: int, n: int) -> int:
    raw = abs(i - j)
    return min(raw, n - raw)


def truncated_fields(rf: ReceptiveFieldMap, degree: int) -> tuple:
    """Xi_d(i) = members of Xi(i) within circular index distance degree-1."""
    out = []
    for i in range(rf.n):
        out.append(tuple(
            j for j in rf.xi[i] if _circular_distance(i, j, rf.n) <= degree - 1
        ))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class DegreeClassFamily:
    """Nested hypothesis classes H_1 subset ... subset H_{d_max}.

    ``slots`` maps a circular-distance rank to a parameter block: slot 0 is
    the vertex itself, slots 2r-1 and 2r the two distance-r neighbors
    (by index direction). Degree d activates slots 0..2(d-1).
    """

    rf: ReceptiveFieldMap
    d_max: int
    dim: int
    weight_radius: float
    b_x: float
    b_y: float

    def __post_init__(self):
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        check_range("weight_radius", self.weight_radius, strict=True)

    def n_slots(self, degree: int) -> int:
        return 2 * degree - 1

    @functools.cached_property
    def _slot_table(self) -> np.ndarray:
        """(N, n_slots(d_max)) member vertex of every slot (-1 where the slot
        is absent), built once from truncated_fields. Degree d's slots are
        its first n_slots(d) columns: they hold the members within distance d-1."""
        n = self.rf.n
        table = np.full((n, self.n_slots(self.d_max)), -1)
        for i, members in enumerate(truncated_fields(self.rf, self.d_max)):
            table[i, 0] = i
            for j in members:
                if j != i:
                    dist = _circular_distance(i, j, n)
                    table[i, 2 * dist - 1 if (i + dist) % n == j else 2 * dist] = j
        return table

    def design_matrix(self, z: SampleSet, degree: int) -> np.ndarray:
        """(N, n_slots * dim) stacked features; absent slots contribute zeros."""
        if not 1 <= degree <= self.d_max:
            raise ValueError(f"degree must be in 1..{self.d_max}, got {degree}")
        # slot -1 reads the appended zero row
        padded = np.vstack([z.features, np.zeros((1, self.dim))])
        return padded[self._slot_table[:, :self.n_slots(degree)]].reshape(self.rf.n, -1)

    def loss_bound(self) -> float:
        """B_L for the squared loss over the constrained class."""
        pred_max = self.weight_radius * np.sqrt(self.n_slots(self.d_max)) * self.b_x
        return 0.5 * (pred_max + self.b_y) ** 2


def ball_constrained_least_squares(phi: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """argmin ||phi W - y||^2 over ||W|| <= radius, solved exactly.

    One SVD phi = U diag(s) V' gives the ridge path W(nu) = V w(nu), with
    w_k = s_k b_k / (s_k^2 + nu) and b = U'y, over the singular values above
    lstsq's cutoff max(M, N) eps s_max. W(0), the minimum-norm least-squares
    solution, is returned when it fits inside the ball. Otherwise the
    solution is W(nu) at the root of the secular equation
    1/||w(nu)|| = 1/radius, whose left side is concave and increasing in nu,
    so Newton's method from nu = 0 climbs to the root monotonically (Hebden
    1973; More and Sorensen 1983); it stops when nu stops increasing. The
    step (||w||/radius - 1) / sum_k (w_k/||w||)^2 / (s_k^2 + nu) is formed
    from w/||w||, so radii down to 1e-300 neither underflow nor overflow.
    Raises ValueError for a radius so small that the multiplier overflows.
    """
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    keep = s > max(phi.shape) * np.finfo(float).eps * s.max(initial=0.0)
    s, vt = s[keep], vt[keep]
    q = (y @ u[:, keep]) * s
    s2 = s * s
    nu = 0.0
    while True:
        d = s2 + nu
        w = q / d
        norm = math.hypot(*w.tolist())
        if norm <= radius:
            break
        step = (norm / radius - 1.0) / float(np.sum((w / norm) ** 2 / d))
        if nu + step == nu:
            break
        nu += step
        if not math.isfinite(nu):
            raise ValueError(f"weight_radius {radius!r} is too small: the ridge "
                             "multiplier overflows")
    return w @ vt


@dataclass(frozen=True, eq=False)
class ClassFit:
    degree: int
    weights: np.ndarray
    empirical_risk: float
    penalty: float
    penalized_risk: float


@dataclass(frozen=True, eq=False)
class SrmSelection:
    selected: ClassFit
    fits: tuple  # ClassFit per degree 1..d_max
    lambda_slack: float
    beta2_by_degree: dict


class SrmClassAlgorithm:
    """Class-d exact ERM wrapped for the stability harness.

    Its prepared set is the (design matrix, labels) pair of the sample set.
    """

    def __init__(self, family: DegreeClassFamily, degree: int):
        self.family = family
        self.degree = degree

    @property
    def id(self) -> str:
        return f"srm-erm(d={self.degree})"

    def prepare(self, z: SampleSet) -> tuple:
        return self.family.design_matrix(z, self.degree), z.labels

    def train(self, prepared_sets) -> np.ndarray:
        phi = np.vstack([phi for phi, _ in prepared_sets])
        y = np.concatenate([y for _, y in prepared_sets])
        return ball_constrained_least_squares(phi, y, self.family.weight_radius)

    def losses(self, h: np.ndarray, prepared) -> np.ndarray:
        phi, y = prepared
        return 0.5 * (phi @ h - y) ** 2


def select_sparse(family: DegreeClassFamily, z: SampleSet, lambda_slack: float,
                  beta2_by_degree: dict) -> SrmSelection:
    """Penalized selection argmin_d Rhat(h_d) + 2 lambda d beta2(d).

    Ties break toward the smaller degree; each class is fitted by its
    ``SrmClassAlgorithm``.
    """
    check_range("lambda_slack", lambda_slack, strict=False)
    degrees = range(1, family.d_max + 1)
    missing = [d for d in degrees if d not in beta2_by_degree]
    if missing:
        raise ValueError(f"missing beta2 estimates for degrees {missing}")

    fits = []
    for d in degrees:
        alg = SrmClassAlgorithm(family, d)
        prepared = alg.prepare(z)
        weights = alg.train([prepared])
        risk = float(np.mean(alg.losses(weights, prepared)))
        penalty = 2.0 * lambda_slack * d * beta2_by_degree[d]
        fits.append(ClassFit(degree=d, weights=weights, empirical_risk=risk,
                             penalty=penalty, penalized_risk=risk + penalty))
    chosen = min(fits, key=lambda f: (f.penalized_risk, f.degree))
    return SrmSelection(selected=chosen, fits=tuple(fits), lambda_slack=lambda_slack,
                        beta2_by_degree=dict(beta2_by_degree))


@dataclass(frozen=True)
class SrmGuaranteeRecord:
    selected_degree: int
    holdout_risk_selected: float
    oracle_rhs: float  # min_d holdout risk + (lambda + 2) d beta2(d), plus epsilon
    epsilon: float
    failure_probability: float
    satisfied: bool


def srm_report(selection: SrmSelection, family: DegreeClassFamily, holdout_sets,
               epsilon: float | None, beta1: float, n_vertices: int) -> SrmGuaranteeRecord:
    """Pair a selection with its confidence and both sides of the guarantee.

    The oracle side inf_h ( R(h) + (lambda + 2) d(h) beta2 ) is estimated by
    the per-class ERMs evaluated on held-out sets, each scored once. beta2
    is the max over the degrees; epsilon None takes the guarantee floor
    (``bounds.srm_epsilon_floor``, at least 0) plus 1.
    """
    beta2 = max(selection.beta2_by_degree.values())
    if epsilon is None:
        epsilon = max(0.0, srm_epsilon_floor(beta2, selection.lambda_slack, family.d_max)) + 1.0

    def holdout_risk(fit: ClassFit) -> float:
        alg = SrmClassAlgorithm(family, fit.degree)
        risks = [float(np.mean(alg.losses(fit.weights, alg.prepare(z))))
                 for z in holdout_sets]
        return float(np.mean(risks))

    risks = {fit.degree: holdout_risk(fit) for fit in selection.fits}
    lhs = risks[selection.selected.degree]
    rhs = min(
        risks[fit.degree]
        + (selection.lambda_slack + 2.0) * fit.degree * selection.beta2_by_degree[fit.degree]
        for fit in selection.fits
    ) + epsilon
    prob = srm_confidence(
        beta1=beta1, beta2=beta2, loss_bound=family.loss_bound(),
        lambda_slack=selection.lambda_slack, d_max=family.d_max,
        n_vertices=n_vertices, epsilon=epsilon,
    )
    return SrmGuaranteeRecord(
        selected_degree=selection.selected.degree,
        holdout_risk_selected=lhs,
        oracle_rhs=rhs,
        epsilon=epsilon,
        failure_probability=prob,
        satisfied=bool(lhs <= rhs),
    )
