"""Loss objectives over receptive fields with certified constants.

An objective evaluates f(S_i, w) = L(h_w(T_i), Y_i) where T_i is the feature
set of vertex i's receptive field and h_w is linear in the (rescaled) field
mean. Every family is the data term 0.5 (h_w - y)^2 plus a weight penalty
P(w), and the families differ only in P:

- quadratic: P = 0.5 gamma ||w||^2, gamma-strongly convex and lambda-smooth
  by construction (data curvature rescaled into [0, lambda - gamma]).
- ripple:    P = a (1 - cos(<k, w>)), smooth but non-convex for a > 0; the
  analytic curvature bound equals the declared smoothness.

The SGD bounds follow from the regime: strongly convex iff gamma > 0.

Weights live in a ball of radius ``weight_radius`` (SGD projects onto it),
which makes the Lipschitz constant, the loss bound, and the gradient-vs-data
constant finite and analytically certifiable. All constants are recorded in
a ConstantsCertificate and can be stress-tested empirically, together
with the contraction properties of the SGD update map they imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ReceptiveFieldMap
from .sampling import SampleSet, sample_space_diameter
from .seeding import child_rng

STRONGLY_CONVEX = "strongly-convex"
NON_CONVEX = "non-convex"


class CertificationError(ValueError):
    """An empirical ratio exceeded a declared constant; carries the witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ConstantsCertificate:
    """Analytic constants certified for an objective on its admissible domain.

    smoothness (lambda) >= strong_convexity (gamma) >= 0; lipschitz bounds
    |f(w) - f(w')| / ||w - w'||; gradient_data_lipschitz (zeta) bounds the
    gradient shift per unit change of a single member sample; loss_bound and
    sample_diameter are the B_L and B_Z constants of the bounds.
    """

    smoothness: float
    strong_convexity: float
    lipschitz: float
    gradient_data_lipschitz: float
    loss_bound: float
    sample_diameter: float
    weight_radius: float

    def __post_init__(self):
        if self.smoothness < self.strong_convexity or self.strong_convexity < 0:
            raise ValueError("need smoothness >= strong_convexity >= 0")
        for name in ("smoothness", "lipschitz", "gradient_data_lipschitz",
                     "loss_bound", "sample_diameter", "weight_radius"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"certificate constant {name} must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class BoundObjective:
    """An objective bound to one sample set: per-vertex aggregated features."""

    u: np.ndarray  # (n, dim) rescaled field means
    y: np.ndarray  # (n,)
    objective: "FieldObjective"

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def losses(self, w: np.ndarray) -> np.ndarray:
        return self.objective.losses_uy(self.u, self.y, w)


class FieldObjective:
    """f(u, y, w) = 0.5 (<w, u> - y)^2 + P(w) on field-mean linear hypotheses.

    h_w(T_i) = <w, u_i> with u_i = feature_scale * mean of features over
    Xi(i). The data term, the feature scale and the certificate live here; a
    family supplies only its weight penalty P, through the private hooks
    ``_penalty`` and ``_penalty_grad``, and three
    constants of P: its curvature bound (a constructor argument), and its
    Lipschitz constant and sup on the weight ball (``_penalty_lipschitz``,
    ``_penalty_sup``). The data term gets the curvature budget the penalty
    leaves: ||u|| <= u_max = sqrt(lambda - curvature) keeps the whole
    Hessian below lambda. A family also sets ``kind`` and ``convex``.
    """

    def __init__(self, dim, smoothness, strong_convexity, penalty_curvature,
                 b_x, b_y, weight_radius):
        if penalty_curvature > smoothness:
            raise ValueError(
                f"penalty curvature {penalty_curvature} exceeds smoothness {smoothness}"
            )
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if b_x <= 0 or b_y <= 0 or weight_radius <= 0:
            raise ValueError("bounds must be positive")
        self.dim = int(dim)
        self.b_x = float(b_x)
        self.b_y = float(b_y)
        self.weight_radius = float(weight_radius)
        self.smoothness = float(smoothness)
        self.gamma = float(strong_convexity)
        self._u_max = np.sqrt(self.smoothness - penalty_curvature)
        self.feature_scale = float(self._u_max / self.b_x)

    @property
    def regime(self) -> str:
        """The SGD bound regime: STRONGLY_CONVEX iff gamma > 0."""
        return STRONGLY_CONVEX if self.gamma > 0 else NON_CONVEX

    @property
    def certificate(self) -> ConstantsCertificate:
        u_max = self._u_max
        w_r = self.weight_radius
        margin = u_max * w_r + self.b_y  # sup |<u,w> - y|
        zeta = np.sqrt(
            (self.feature_scale * (2 * u_max * w_r + self.b_y)) ** 2 + u_max**2
        )
        return ConstantsCertificate(
            smoothness=self.smoothness,
            strong_convexity=self.gamma,
            lipschitz=u_max * margin + self._penalty_lipschitz,
            gradient_data_lipschitz=zeta,
            loss_bound=0.5 * margin**2 + self._penalty_sup,
            sample_diameter=sample_space_diameter(self.b_x, self.b_y),
            weight_radius=w_r,
        )

    # -- field aggregation ---------------------------------------------------
    def field_feature(self, member_features: np.ndarray) -> np.ndarray:
        """Aggregate the member feature rows of one receptive field."""
        return self.feature_scale * np.asarray(member_features, dtype=float).mean(axis=0)

    def bind(self, z: SampleSet, rf: ReceptiveFieldMap) -> BoundObjective:
        if z.n != rf.n:
            raise ValueError("sample set and receptive fields disagree on N")
        # field_feature on all fields of one size at once, bit for bit
        u = np.empty((rf.n, self.dim))
        for vertices, members in rf.size_groups:
            u[vertices] = self.feature_scale * z.features[members].mean(axis=1)
        return BoundObjective(u=u, y=z.labels.astype(float).copy(), objective=self)

    # -- data term plus penalty ----------------------------------------------
    def loss_uy(self, u, y, w) -> float:
        r = float(u.dot(w)) - y
        return 0.5 * r * r + self._penalty(w)

    def grad_uy(self, u, y, w) -> np.ndarray:
        r = float(u.dot(w)) - y
        return u * r + self._penalty_grad(w)

    def losses_uy(self, u, y, w) -> np.ndarray:
        r = u @ w - y
        return 0.5 * r * r + self._penalty(w)

    # -- random admissible draws used by the empirical certifiers ------------
    def _random_w(self, rng, count):
        v = rng.normal(size=(count, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = self.weight_radius * rng.random(count) ** (1.0 / self.dim)
        return v * r[:, None]

    def _random_field(self, rng, max_members=4):
        k = int(rng.integers(1, max_members + 1))
        x = rng.normal(size=(k, self.dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x *= self.b_x * rng.random((k, 1))
        y = float(rng.uniform(-self.b_y, self.b_y))
        return x, y


class QuadraticFieldObjective(FieldObjective):
    """0.5 (<w, u> - y)^2 + 0.5 gamma ||w||^2 with curvature in [gamma, lambda]."""

    kind = "quadratic"
    convex = True

    def __init__(self, dim, smoothness, strong_convexity, b_x, b_y, weight_radius=1.0):
        if not strong_convexity > 0:
            raise ValueError("strong_convexity must be > 0")
        super().__init__(dim, smoothness, strong_convexity, strong_convexity,
                         b_x, b_y, weight_radius)
        self._penalty_lipschitz = self.gamma * self.weight_radius
        self._penalty_sup = 0.5 * self.gamma * self.weight_radius**2

    def _penalty(self, w):
        return 0.5 * self.gamma * float(np.dot(w, w))

    def _penalty_grad(self, w):
        return self.gamma * w


class RippleFieldObjective(FieldObjective):
    """0.5 (<w, u> - y)^2 + a (1 - cos(<k, w>)): smooth, non-convex for a > 0."""

    kind = "ripple"

    def __init__(self, dim, smoothness, b_x, b_y, ripple_amplitude,
                 weight_radius=1.0, ripple_frequency=4.0):
        a = float(ripple_amplitude)
        freq = float(ripple_frequency)
        if a < 0:
            raise ValueError("ripple amplitude must be >= 0")
        super().__init__(dim, smoothness, 0.0, a * freq * freq, b_x, b_y, weight_radius)
        self.amplitude = a
        self.frequency = freq
        self.direction = np.zeros(self.dim)
        self.direction[0] = freq  # ripple wavevector k = freq * e_0
        self.convex = a == 0.0
        # |a sin(<k, w>)| ||k|| <= a freq and 0 <= a (1 - cos(<k, w>)) <= 2a
        self._penalty_lipschitz = a * freq
        self._penalty_sup = 2.0 * a

    def _penalty(self, w):
        return self.amplitude * (1.0 - np.cos(float(np.dot(self.direction, w))))

    def _penalty_grad(self, w):
        return self.amplitude * np.sin(float(np.dot(self.direction, w))) * self.direction


# ---------------------------------------------------------------------------
# Numerical verification


def finite_difference_gradient(fn, w: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of w."""
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (fn(wp) - fn(wm)) / (2.0 * step)
    return g


def gradient_check(obj: FieldObjective, trials: int, seed: int, tol: float = 1e-6) -> float:
    """Max relative error ||grad - FD|| / max(1, ||grad||) over random points."""
    rng = child_rng(seed, "gradcheck")
    worst = 0.0
    for _ in range(trials):
        x, y = obj._random_field(rng)
        u = obj.field_feature(x)
        w = obj._random_w(rng, 1)[0]
        g = obj.grad_uy(u, y, w)
        fd = finite_difference_gradient(lambda v: obj.loss_uy(u, y, v), w)
        err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
        worst = max(worst, float(err))
    if worst > tol:
        raise CertificationError(f"gradient check failed: relative error {worst}")
    return worst


@dataclass(frozen=True)
class EmpiricalCertificate:
    smoothness_max: float
    lipschitz_max: float
    gradient_data_max: float
    loss_max: float
    trials: int


def certify_constants(obj: FieldObjective, trials: int, seed: int,
                      slack: float = 1e-9) -> EmpiricalCertificate:
    """Empirical maxima of the certified ratios over sampled pairs.

    Raises CertificationError (with the witness pair attached) if any ratio
    exceeds its declared constant by more than ``slack``. One deterministic
    adversarial pair (a full-norm single-member field, antipodal weights) is
    checked after the random draws so understatements are caught reliably.
    """
    cert = obj.certificate
    rng = child_rng(seed, "certify")
    smooth_max = lip_max = zeta_max = loss_max = 0.0

    def check(name, value, declared, witness):
        if value > declared + slack:
            raise CertificationError(
                f"{name} ratio {value} exceeds declared {declared}", witness=witness
            )

    # the adversarial pair: top-curvature field, antipodal extreme weights
    x_top = np.zeros((1, obj.dim))
    x_top[0, 0] = obj.b_x
    w_edge = np.zeros(obj.dim)
    w_edge[0] = obj.weight_radius
    adversarial = (x_top, obj.b_y, w_edge, -w_edge)

    for t in range(trials):
        x, y = obj._random_field(rng)
        w1, w2 = obj._random_w(rng, 2)
        u = obj.field_feature(x)
        dw = np.linalg.norm(w1 - w2)
        if dw > 1e-12:
            g1 = obj.grad_uy(u, y, w1)
            g2 = obj.grad_uy(u, y, w2)
            smooth = float(np.linalg.norm(g1 - g2) / dw)
            lip = float(abs(obj.loss_uy(u, y, w1) - obj.loss_uy(u, y, w2)) / dw)
            smooth_max = max(smooth_max, smooth)
            lip_max = max(lip_max, lip)
            check("smoothness", smooth, cert.smoothness, (x, y, w1, w2))
            check("lipschitz", lip, cert.lipschitz, (x, y, w1, w2))
        loss_val = obj.loss_uy(u, y, w1)
        loss_max = max(loss_max, loss_val)
        check("loss bound", loss_val, cert.loss_bound, (x, y, w1))

        # replace one member sample; replace the label too when it is the own vertex
        k = x.shape[0]
        j = int(rng.integers(0, k))
        x2 = x.copy()
        new_row = rng.normal(size=obj.dim)
        new_row *= obj.b_x * rng.random() / np.linalg.norm(new_row)
        x2[j] = new_row
        own = j == 0  # member 0 plays the role of the own vertex
        y2 = float(rng.uniform(-obj.b_y, obj.b_y)) if own else y
        dz = float(np.sqrt(np.sum((x[j] - x2[j]) ** 2) + (y - y2) ** 2))
        if dz > 1e-12:
            u2 = obj.field_feature(x2)
            zeta = float(
                np.linalg.norm(obj.grad_uy(u, y, w1) - obj.grad_uy(u2, y2, w1)) / dz
            )
            zeta_max = max(zeta_max, zeta)
            check("gradient-vs-sample", zeta, cert.gradient_data_lipschitz,
                  (x, y, x2, y2, w1))

    # the adversarial pair, checked last so random maxima are kept
    x, y, w1, w2 = adversarial
    u = obj.field_feature(x)
    dw = np.linalg.norm(w1 - w2)
    smooth = float(np.linalg.norm(obj.grad_uy(u, y, w1) - obj.grad_uy(u, y, w2)) / dw)
    smooth_max = max(smooth_max, smooth)
    check("smoothness", smooth, cert.smoothness, (x, y, w1, w2))

    return EmpiricalCertificate(
        smoothness_max=smooth_max,
        lipschitz_max=lip_max,
        gradient_data_max=zeta_max,
        loss_max=loss_max,
        trials=trials,
    )


@dataclass(frozen=True)
class CocoercivityReport:
    max_violation: float
    witness: tuple | None


def cocoercivity_check(obj: FieldObjective, trials: int, seed: int) -> CocoercivityReport:
    """Max of (1/lambda) ||g(v) - g(w)||^2 - <g(v) - g(w), v - w> over pairs.

    Non-positive (up to roundoff) for convex smooth objectives. For a
    non-convex objective a deterministic 1-D sweep along e_0 (the ripple
    direction) with a zero-feature instance is included, which finds a
    strictly positive violation whenever the ripple amplitude is non-zero.
    """
    lam = obj.certificate.smoothness
    rng = child_rng(seed, "cocoercive")
    worst = -np.inf
    witness = None

    def violation(u, y, w1, w2):
        dg = obj.grad_uy(u, y, w1) - obj.grad_uy(u, y, w2)
        return float(np.dot(dg, dg) / lam - np.dot(dg, w1 - w2))

    for _ in range(trials):
        x, y = obj._random_field(rng)
        u = obj.field_feature(x)
        w1, w2 = obj._random_w(rng, 2)
        v = violation(u, y, w1, w2)
        if v > worst:
            worst, witness = v, (u, y, w1, w2)

    if not obj.convex:
        u0 = np.zeros(obj.dim)
        grid = np.linspace(-obj.weight_radius, obj.weight_radius, 41)
        e0 = np.zeros(obj.dim)
        e0[0] = 1.0
        for s1 in grid:
            for s2 in grid:
                if s1 <= s2:
                    continue
                v = violation(u0, 0.0, s1 * e0, s2 * e0)
                if v > worst:
                    worst, witness = v, (u0, 0.0, s1 * e0, s2 * e0)

    return CocoercivityReport(max_violation=worst, witness=witness)


# ---------------------------------------------------------------------------
# Contraction stress test for the raw update map


@dataclass(frozen=True)
class ContractionReport:
    max_ratio: float  # over all sampled pairs
    max_ratio_convex: float | None  # checked when alpha <= 2/lam and convex
    max_ratio_strongly: float | None  # checked when alpha <= 2/(lam+gamma)
    bound_general: float  # 1 + alpha lam
    bound_strongly: float | None  # 1 - alpha lam gamma / (lam + gamma)
    trials: int


def contraction_check(obj: FieldObjective, alpha: float, trials: int, seed: int) -> ContractionReport:
    """Empirical Lipschitz ratios of the unprojected SGD update map
    G(w) = w - alpha grad f(w).

    Verifies three clauses on random (w, w', instance) triples: the general
    (1 + alpha lam) bound, the 1-bound for convex objectives with
    alpha <= 2/lam, and the strong-convexity contraction for
    alpha <= 2/(lam + gamma).
    """
    cert = obj.certificate
    lam = cert.smoothness
    gamma = cert.strong_convexity
    rng = child_rng(seed, "contraction")
    convex = obj.convex
    strongly = obj.regime == STRONGLY_CONVEX

    worst = 0.0
    for _ in range(trials):
        x, y = obj._random_field(rng)
        u = obj.field_feature(x)
        w1, w2 = obj._random_w(rng, 2)
        dw = np.linalg.norm(w1 - w2)
        if dw < 1e-12:
            continue
        g1 = w1 - alpha * obj.grad_uy(u, y, w1)
        g2 = w2 - alpha * obj.grad_uy(u, y, w2)
        worst = max(worst, float(np.linalg.norm(g1 - g2) / dw))

    return ContractionReport(
        max_ratio=worst,
        max_ratio_convex=worst if (convex and alpha <= 2.0 / lam) else None,
        max_ratio_strongly=worst if (strongly and alpha <= 2.0 / (lam + gamma)) else None,
        bound_general=1.0 + alpha * lam,
        bound_strongly=(1.0 - alpha * lam * gamma / (lam + gamma)) if strongly else None,
        trials=trials,
    )
