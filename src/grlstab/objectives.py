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
a ConstantsCertificate, built when the objective is constructed (a constant
that leaves float range raises ValueError there), and can be stress-tested
empirically, together with the contraction properties of the SGD update map
they imply. Parameters and constants are range-checked by
``sampling.check_range``, and the message names the parameter.

Every u.w and w.w on the SGD path is one sum, ``dot_source``: the products
added left to right from the first, u0*w0 + u1*w1 + ..., with no +0.0 start
and no BLAS call. The step kernel inlines its text, and ``dot_function``
compiles it for ``grad_uy``, ``loss_uy``, the quadratic penalty and, over
columns, ``losses_uy`` and ``row_norms``; IEEE products and sums round the
same in Python floats and in numpy's elementwise loops, so every path has the
same bits on every BLAS build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .graphs import ReceptiveFieldMap
from .sampling import SampleSet, check_range, rows_in_ball, sample_space_diameter
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
        for field in fields(self):
            check_range(f"certificate constant {field.name}", getattr(self, field.name),
                        strict=False)


# What a PenaltyGradient's source may call besides builtins: numpy's sin, so
# that the bits do not depend on the platform's libm. A Python float argument
# runs the same float64 loop as an array scalar, so converting around sin
# changes no bit
PENALTY_NAMESPACE = {"sin": np.sin}


@dataclass(frozen=True)
class PenaltyGradient:
    """A family's grad P, declared once as source that generated code inlines.

    ``prelude`` is a statement run once per gradient, and ``term`` is the
    expression of coordinate i, with ``{i}`` standing for i. Both read the
    iterate as the floats ``w0, w1, ...``; the attributes named in
    ``scalars`` and ``vectors``, which ``setup`` reads off the objective
    ``obj`` (a vector ``k`` also as the floats ``k0, k1, ...``); and the
    names in ``PENALTY_NAMESPACE``. The source never holds a constant's
    value, so it depends only on the family and the dimension.
    """

    scalars: tuple
    term: str
    vectors: tuple = ()
    prelude: str = ""

    def setup(self, dim: int) -> list:
        """Statements that read the constants off ``obj``, once per call."""
        lines = [f"{name} = obj.{name}" for name in self.scalars + self.vectors]
        return lines + [f"{', '.join(f'{k}{i}' for i in range(dim))}, = {k}.tolist()"
                        for k in self.vectors]

    def terms(self, dim: int) -> list:
        """The expression of each coordinate of grad P."""
        return [self.term.format(i=i) for i in range(dim)]


def dot_source(a: str, b: str, dim: int) -> str:
    """The package's dot product of the floats a0, a1, ... and b0, b1, ...
    as source: "a0 * b0 + a1 * b1 + ...", summed left to right."""
    return " + ".join(f"{a}{i} * {b}{i}" for i in range(dim))


@functools.lru_cache(maxsize=None)
def dot_function(dim: int):
    """``dot(a, b)`` -> ``dot_source`` over two length-dim sequences: of
    floats (a float), or of equal-shape arrays (elementwise, an array)."""
    a, b = (", ".join(f"{v}{i}" for i in range(dim)) + "," for v in "ab")
    namespace = {}
    exec(f"def dot(a, b):\n    {a} = a\n    {b} = b\n    return {dot_source('a', 'b', dim)}",
         namespace)
    return namespace["dot"]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """||row|| of each row of an (n, dim) array, as sqrt of the w.w sum."""
    columns = rows.T
    return np.sqrt(dot_function(rows.shape[1])(columns, columns))


@functools.lru_cache(maxsize=None)
def _penalty_function(penalty: PenaltyGradient, dim: int):
    """grad P as a function (obj, w0, w1, ...) -> list of floats."""
    ws = ", ".join(f"w{i}" for i in range(dim))
    body = [*penalty.setup(dim), penalty.prelude, f"return [{', '.join(penalty.terms(dim))}]"]
    namespace = dict(PENALTY_NAMESPACE)
    exec("\n    ".join([f"def gradient(obj, {ws}):", *body]), namespace)
    return namespace["gradient"]


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
    family supplies only its weight penalty P, through ``_penalty`` (of w as
    a list of floats) and the class attribute ``penalty``, and three
    constants of P: its curvature bound (a constructor argument), and its
    Lipschitz constant and sup on the weight ball (``_penalty_bounds``,
    called by this class's ``__init__``, so it reads only what a family sets
    before calling it). ``penalty``
    is grad P as a ``PenaltyGradient`` declaration: ``grad_uy`` evaluates it
    and the SGD step kernel inlines it, so the two agree bit for bit. The
    data term gets the curvature budget the penalty leaves: ||u|| <= u_max =
    sqrt(lambda - curvature) keeps the whole Hessian below lambda. A family
    also sets ``kind`` and ``convex``.
    """

    penalty: PenaltyGradient

    def __init__(self, dim, smoothness, strong_convexity, penalty_curvature,
                 b_x, b_y, weight_radius):
        check_range("smoothness", smoothness, strict=False)
        for name, value in (("b_x", b_x), ("b_y", b_y), ("weight_radius", weight_radius)):
            check_range(name, value, strict=True)
        if penalty_curvature > smoothness:
            raise ValueError(
                f"penalty curvature {penalty_curvature} exceeds smoothness {smoothness}"
            )
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self._dot = dot_function(self.dim)
        self.b_x = float(b_x)
        self.b_y = float(b_y)
        self.weight_radius = float(weight_radius)
        self.smoothness = float(smoothness)
        self.gamma = float(strong_convexity)
        self._u_max = np.sqrt(self.smoothness - penalty_curvature)
        self.feature_scale = float(self._u_max / self.b_x)
        # a constant past float range is inf, which the certificate rejects
        with np.errstate(over="ignore"):
            self.certificate = self._certificate()

    @property
    def regime(self) -> str:
        """The SGD bound regime: STRONGLY_CONVEX iff gamma > 0."""
        return STRONGLY_CONVEX if self.gamma > 0 else NON_CONVEX

    def _certificate(self) -> ConstantsCertificate:
        """The analytic constants; ``__init__`` builds them once."""
        u_max = self._u_max
        w_r = self.weight_radius
        margin = u_max * w_r + self.b_y  # sup |<u,w> - y|
        zeta = np.sqrt(
            (self.feature_scale * (2 * u_max * w_r + self.b_y)) ** 2 + u_max**2
        )
        penalty_lipschitz, penalty_sup = self._penalty_bounds()
        return ConstantsCertificate(
            smoothness=self.smoothness,
            strong_convexity=self.gamma,
            lipschitz=u_max * margin + penalty_lipschitz,
            gradient_data_lipschitz=zeta,
            loss_bound=0.5 * margin**2 + penalty_sup,
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

    # -- data term plus penalty: w as floats, u.w as dot_source --------------
    def loss_uy(self, u, y, w) -> float:
        w = w.tolist()
        r = self._dot(u.tolist(), w) - y
        return 0.5 * r * r + self._penalty(w)

    def grad_uy(self, u, y, w) -> np.ndarray:
        w = w.tolist()
        r = self._dot(u.tolist(), w) - y
        gradient = _penalty_function(self.penalty, self.dim)
        return u * r + np.array(gradient(self, *w))

    def losses_uy(self, u, y, w) -> np.ndarray:
        w = w.tolist()
        r = self._dot(u.T, w) - y  # the same sum over the columns of u
        return 0.5 * r * r + self._penalty(w)

    # -- random admissible draws used by the empirical certifiers ------------
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
    penalty = PenaltyGradient(scalars=("gamma",), term="gamma * w{i}")

    def __init__(self, dim, smoothness, strong_convexity, b_x, b_y, weight_radius=1.0):
        if not strong_convexity > 0:
            raise ValueError("strong_convexity must be > 0")
        super().__init__(dim, smoothness, strong_convexity, strong_convexity,
                         b_x, b_y, weight_radius)

    def _penalty_bounds(self):
        # a float64 square is inf past float range, where a Python float's raises
        w_r = np.float64(self.weight_radius)
        return self.gamma * w_r, 0.5 * self.gamma * w_r**2

    def _penalty(self, w):
        return 0.5 * self.gamma * self._dot(w, w)


class RippleFieldObjective(FieldObjective):
    """0.5 (<w, u> - y)^2 + a (1 - cos(<k, w>)): smooth, non-convex for a > 0.

    k = frequency * e_0. An amplitude of None spends half the smoothness
    budget on the ripple: a frequency^2 = lambda / 2.
    """

    kind = "ripple"
    penalty = PenaltyGradient(scalars=("amplitude", "frequency"),
                              term="c * direction{i}", vectors=("direction",),
                              prelude="c = amplitude * float(sin(frequency * w0))")

    def __init__(self, dim, smoothness, b_x, b_y, ripple_amplitude,
                 weight_radius=1.0, ripple_frequency=4.0):
        freq = float(ripple_frequency)
        # 1 - cos(<k, w>) is the same function for k and -k, but the constants
        # below read freq as ||k||
        check_range("ripple_frequency", freq, strict=True)
        if ripple_amplitude is None:
            check_range("smoothness", smoothness, strict=False)
            # a tiny freq leaves a non-finite amplitude, rejected below
            with np.errstate(all="ignore"):
                ripple_amplitude = np.float64(smoothness) / (2 * freq * freq)
        a = float(ripple_amplitude)
        check_range("ripple_amplitude", a, strict=False)
        self.amplitude = a
        self.frequency = freq
        super().__init__(dim, smoothness, 0.0, a * freq * freq, b_x, b_y, weight_radius)
        self.direction = np.zeros(self.dim)
        self.direction[0] = freq  # ripple wavevector k = freq * e_0, so k.w = freq * w0
        self.convex = a == 0.0

    def _penalty_bounds(self):
        # |a sin(<k, w>)| ||k|| <= a freq and 0 <= a (1 - cos(<k, w>)) <= 2a
        return self.amplitude * self.frequency, 2.0 * self.amplitude

    def _penalty(self, w):
        return self.amplitude * (1.0 - np.cos(self.frequency * w[0]))


# ---------------------------------------------------------------------------
# Numerical verification


def finite_difference_gradient(fn, w: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of w."""
    w = np.asarray(w, dtype=float)
    return np.array([(fn(w + e) - fn(w - e)) / (2.0 * step) for e in step * np.eye(w.size)])


def gradient_check(obj: FieldObjective, trials: int, seed: int, tol: float = 1e-6) -> float:
    """Max relative error ||grad - FD|| / max(1, ||grad||) over random points."""
    rng = child_rng(seed, "gradcheck")
    worst = 0.0
    for _ in range(trials):
        x, y = obj._random_field(rng)
        u = obj.field_feature(x)
        w = rows_in_ball(rng, 1, obj.dim, obj.weight_radius)[0]
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

    for t in range(trials):
        x, y = obj._random_field(rng)
        w1, w2 = rows_in_ball(rng, 2, obj.dim, obj.weight_radius)
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

    # the adversarial pair, checked last so random maxima are kept: a
    # top-curvature field and antipodal extreme weights, both along e_0
    e0 = np.eye(obj.dim)[0]
    x, y, w1 = obj.b_x * e0[None, :], obj.b_y, obj.weight_radius * e0
    w2 = -w1
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
        w1, w2 = rows_in_ball(rng, 2, obj.dim, obj.weight_radius)
        v = violation(u, y, w1, w2)
        if v > worst:
            worst, witness = v, (u, y, w1, w2)

    if not obj.convex:
        u0 = np.zeros(obj.dim)
        grid = np.linspace(-obj.weight_radius, obj.weight_radius, 41)
        e0 = np.eye(obj.dim)[0]
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
        w1, w2 = rows_in_ball(rng, 2, obj.dim, obj.weight_radius)
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
