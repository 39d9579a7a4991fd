import dataclasses

import numpy as np
import pytest

from grlstab import graphs, objectives, sampling
from grlstab.objectives import (CertificationError, QuadraticFieldObjective,
                                RippleFieldObjective, certify_constants,
                                cocoercivity_check, finite_difference_gradient,
                                gradient_check)
from grlstab.sampling import rows_in_ball
from grlstab.seeding import child_rng


def quad(w_radius=1.0, lam=1.0, gamma=0.5):
    return QuadraticFieldObjective(3, lam, gamma, 1.0, 1.0, w_radius)


def ripple(amplitude=1 / 32, w_radius=1.0):
    return RippleFieldObjective(3, 1.0, 1.0, 1.0, amplitude, w_radius)


def test_zero_feature_reduces_to_pure_quadratic():
    obj = quad()
    u = np.zeros(3)
    w = np.array([0.3, -0.2, 0.1])
    y = 0.7
    assert obj.loss_uy(u, y, w) == pytest.approx(0.5 * y**2 + 0.25 * w @ w)
    assert np.allclose(obj.grad_uy(u, y, w), 0.5 * w)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        QuadraticFieldObjective(3, 0.4, 0.5, 1.0, 1.0)  # lam < gamma
    with pytest.raises(ValueError):
        RippleFieldObjective(3, 1.0, 1.0, 1.0, ripple_amplitude=1.0)  # curvature 16 > 1


@pytest.mark.parametrize("name, value", [(n, v) for n in ("b_x", "b_y", "weight_radius")
                                          for v in (float("nan"), float("inf"), 0.0)]
                         + [("smoothness", float("nan")), ("smoothness", float("inf"))])
@pytest.mark.parametrize("family", ["quadratic", "ripple"])
def test_field_constants_must_be_finite(family, name, value):
    # NaN passed a `<= 0` check and failed later at the certificate, naming
    # another constant
    args = {"b_x": 1.0, "b_y": 1.0, "weight_radius": 1.0, "smoothness": 1.0} | {name: value}
    relation = ">=" if name == "smoothness" else ">"
    with pytest.raises(ValueError, match=f"^{name} must be finite and {relation} 0"):
        if family == "quadratic":
            QuadraticFieldObjective(3, args["smoothness"], 0.5, args["b_x"], args["b_y"],
                                    args["weight_radius"])
        else:
            RippleFieldObjective(3, args["smoothness"], args["b_x"], args["b_y"], 1 / 32,
                                 args["weight_radius"])


@pytest.mark.parametrize("frequency", [0.0, -4.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("amplitude", [None, 1 / 32])
def test_ripple_frequency_must_be_finite_and_positive(frequency, amplitude):
    # a frequency of 0 divided by zero in the default amplitude, and a
    # negative one gave a negative penalty Lipschitz constant a * freq
    with pytest.raises(ValueError, match="^ripple_frequency must be finite and > 0"):
        RippleFieldObjective(3, 1.0, 1.0, 1.0, amplitude, 1.0, frequency)


@pytest.mark.parametrize("amplitude", [-0.1, float("nan"), float("inf")])
def test_ripple_amplitude_must_be_finite_and_non_negative(amplitude):
    with pytest.raises(ValueError, match="^ripple_amplitude must be finite and >= 0"):
        RippleFieldObjective(3, 1.0, 1.0, 1.0, amplitude)


def test_ripple_default_amplitude_spends_half_the_smoothness_budget():
    obj = RippleFieldObjective(3, 1.0, 1.0, 1.0, None, 1.0, 4.0)
    assert obj.amplitude == 1 / 32
    assert obj.amplitude * obj.frequency * obj.frequency == 0.5


def test_ripple_amplitude_zero_is_plain_quadratic():
    obj = ripple(amplitude=0.0)
    u = np.array([0.1, 0.2, 0.0])
    w = np.array([0.5, -0.5, 0.25])
    r = float(u @ w) - 0.3
    assert obj.loss_uy(u, 0.3, w) == pytest.approx(0.5 * r * r)
    assert obj.convex


def test_gradient_matches_finite_differences():
    assert gradient_check(quad(), trials=1000, seed=1) <= 1e-6
    assert gradient_check(ripple(), trials=1000, seed=2) <= 1e-6


def test_hessian_spectrum_in_declared_interval():
    obj = quad()
    ref = ReferenceQuadratic(3, 1.0, 0.5, 1.0, 1.0, 1.0)  # the Hessian of quad()
    rng = child_rng(5, "hessian")
    for _ in range(100):
        x, _ = obj._random_field(rng)
        u = obj.field_feature(x)
        eig = np.linalg.eigvalsh(ref.hessian_uy(u))
        assert eig.min() >= obj.gamma - 1e-9
        assert eig.max() <= obj.smoothness + 1e-9


def test_loss_bounded_on_admissible_inputs():
    for obj in (quad(), ripple()):
        cert = obj.certificate
        rng = child_rng(7, "lossbound", obj.kind)
        for _ in range(10_000):
            x, y = obj._random_field(rng)
            u = obj.field_feature(x)
            w = rows_in_ball(rng, 1, obj.dim, obj.weight_radius)[0]
            val = obj.loss_uy(u, y, w)
            assert 0.0 <= val <= cert.loss_bound + 1e-12


def test_certify_constants_passes_declared():
    report = certify_constants(quad(), trials=10_000, seed=3)
    cert = quad().certificate
    assert report.smoothness_max <= cert.smoothness + 1e-9
    assert report.lipschitz_max <= cert.lipschitz + 1e-9
    assert report.gradient_data_max <= cert.gradient_data_lipschitz + 1e-9
    certify_constants(ripple(), trials=10_000, seed=4)


def test_certificate_is_built_once_per_objective():
    for obj in (quad(), ripple()):
        assert obj.certificate is obj.certificate


@pytest.mark.parametrize("name, value", [("lipschitz", float("nan")), ("lipschitz", float("inf")),
                                         ("lipschitz", -1.0), ("strong_convexity", float("nan"))])
def test_certificate_constants_must_be_finite(name, value):
    # a NaN strong convexity passed the ordering check and was not range-checked
    fields = dict(smoothness=1.0, strong_convexity=0.5, lipschitz=1.0,
                  gradient_data_lipschitz=1.0, loss_bound=1.0, sample_diameter=1.0,
                  weight_radius=1.0)
    with pytest.raises(ValueError, match=rf"^certificate constant {name} must be finite "
                                         rf"and >= 0, got {value!r}$"):
        objectives.ConstantsCertificate(**(fields | {name: value}))


def test_certify_catches_understated_smoothness():
    obj = quad()
    # understate by replacing the certificate the constructor builds
    class Lying(objectives.QuadraticFieldObjective):
        def _certificate(self):
            true = super()._certificate()
            return objectives.ConstantsCertificate(
                smoothness=0.6 * true.smoothness,  # true top curvature is 1.0
                strong_convexity=true.strong_convexity,
                lipschitz=true.lipschitz,
                gradient_data_lipschitz=true.gradient_data_lipschitz,
                loss_bound=true.loss_bound,
                sample_diameter=true.sample_diameter,
                weight_radius=true.weight_radius,
            )

    liar = Lying(3, 1.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(CertificationError) as err:
        certify_constants(liar, trials=500, seed=5)
    assert err.value.witness is not None


def test_pure_regularizer_smoothness_ratio_is_gamma():
    obj = quad()
    u = np.zeros(3)
    w1 = np.array([0.4, 0.0, 0.0])
    w2 = np.array([-0.1, 0.2, 0.0])
    ratio = np.linalg.norm(obj.grad_uy(u, 0.0, w1) - obj.grad_uy(u, 0.0, w2)) / np.linalg.norm(w1 - w2)
    assert ratio == pytest.approx(obj.gamma)


def test_cocoercivity_identical_points_zero():
    obj = quad()
    u = np.array([0.1, 0.0, 0.2])
    w = np.array([0.3, 0.3, -0.3])
    dg = obj.grad_uy(u, 0.1, w) - obj.grad_uy(u, 0.1, w)
    assert np.linalg.norm(dg) == 0.0


def test_cocoercivity_convex_family():
    report = cocoercivity_check(quad(), trials=2000, seed=6)
    assert report.max_violation <= 1e-9


def test_cocoercivity_nonconvex_violation_found():
    report = cocoercivity_check(ripple(), trials=500, seed=7)
    assert report.max_violation > 1e-6
    assert report.witness is not None


def test_strong_convexity_inequality_on_samples():
    obj = quad()
    rng = child_rng(8, "strongconv")
    for _ in range(500):
        x, y = obj._random_field(rng)
        u = obj.field_feature(x)
        w1, w2 = rows_in_ball(rng, 2, obj.dim, obj.weight_radius)
        lhs = obj.loss_uy(u, y, w1) - obj.loss_uy(u, y, w2)
        rhs = float(obj.grad_uy(u, y, w2) @ (w1 - w2)) + 0.5 * obj.gamma * np.sum((w1 - w2) ** 2)
        assert lhs >= rhs - 1e-9


def test_nonconvexity_witness_pair_exists():
    obj = ripple()
    # gradient monotonicity fails along the ripple direction
    e0 = np.zeros(3)
    e0[0] = 1.0
    u = np.zeros(3)
    found = False
    grid = np.linspace(-1.0, 1.0, 41)
    for s1 in grid:
        for s2 in grid:
            if s1 == s2:
                continue
            dg = obj.grad_uy(u, 0.0, s1 * e0) - obj.grad_uy(u, 0.0, s2 * e0)
            if float(dg @ ((s1 - s2) * e0)) < -1e-9:
                found = True
    assert found


def test_bind_aggregates_field_means():
    g = graphs.cycle_graph(5)
    rf = graphs.one_hop_receptive_fields(g)
    sampler = sampling.IidSampler(rf=rf, dim=3)
    z = sampler.sample(0)
    obj = quad()
    bound = obj.bind(z, rf)
    i = 2
    manual = obj.feature_scale * z.features[list(rf.xi[i])].mean(axis=0)
    assert np.allclose(bound.u[i], manual)
    w = np.array([0.1, 0.2, -0.1])
    assert bound_loss(bound, i, w) == pytest.approx(obj.loss_uy(manual, float(z.labels[i]), w))


def bound_loss(bound, i, w):
    """Loss of vertex i's objective on a bound sample set."""
    return bound.objective.loss_uy(bound.u[i], float(bound.y[i]), w)


def reference_bind_u(obj, z, rf):
    """The per-vertex aggregation `bind` replaced: one field_feature per vertex."""
    u = np.empty((rf.n, obj.dim))
    for i in range(rf.n):
        u[i] = obj.field_feature(z.features[list(rf.xi[i])])
    return u


@pytest.mark.parametrize("graph, min_groups", [
    (graphs.cycle_graph(16), 1),
    (graphs.erdos_renyi_graph(64, 0.3, seed=0), 15),
    (graphs.erdos_renyi_graph(40, 0.05, seed=0), 7),
], ids=["cycle-16", "er-64-dense", "er-40-sparse"])
def test_grouped_bind_equals_per_vertex_reference(graph, min_groups):
    rf = graphs.one_hop_receptive_fields(graph)
    assert len(rf.size_groups) >= min_groups
    assert sum(len(v) for v, _ in rf.size_groups) == rf.n
    sampler = sampling.IidSampler(rf=rf, dim=3)
    for obj in (quad(), ripple()):
        for seed in range(100):
            z = sampler.sample(seed)
            assert np.array_equal(obj.bind(z, rf).u, reference_bind_u(obj, z, rf))


def test_finite_difference_helper():
    f = lambda v: float(v @ v)
    g = finite_difference_gradient(f, np.array([1.0, -2.0]))
    assert np.allclose(g, [2.0, -4.0], atol=1e-6)


# ---------------------------------------------------------------------------
# Reference: the two families written out in full, each with its own data
# term, feature scale and certificate, as they stood before FieldObjective
# took over the shared parts. The shared implementation must match them bit
# for bit. Their dot products are the package's arithmetic, the loop below,
# not numpy's dot, whose rounding depends on the BLAS kernel.


def left_to_right_dot(a, b):
    """a0*b0 + a1*b1 + ..., a plain loop from the first product: no builtin
    sum (compensated since Python 3.12), numpy reduction or BLAS call."""
    a, b = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


class ReferenceFieldBase:
    def __init__(self, dim, b_x, b_y, weight_radius, feature_scale):
        self.dim = int(dim)
        self.b_x = float(b_x)
        self.b_y = float(b_y)
        self.weight_radius = float(weight_radius)
        self.feature_scale = float(feature_scale)


class ReferenceQuadratic(ReferenceFieldBase):
    def __init__(self, dim, smoothness, strong_convexity, b_x, b_y, weight_radius=1.0):
        scale = np.sqrt(smoothness - strong_convexity) / b_x
        super().__init__(dim, b_x, b_y, weight_radius, scale)
        self.smoothness = float(smoothness)
        self.gamma = float(strong_convexity)
        self.convex = True
        self.strongly_convex = True
        self.kind = "quadratic"

    @property
    def certificate(self):
        u_max = np.sqrt(self.smoothness - self.gamma)
        w_r = self.weight_radius
        margin = u_max * w_r + self.b_y
        lip = u_max * margin + self.gamma * w_r
        zeta = np.sqrt(
            (self.feature_scale * (2 * u_max * w_r + self.b_y)) ** 2 + u_max**2
        )
        loss_bound = 0.5 * margin**2 + 0.5 * self.gamma * w_r**2
        return objectives.ConstantsCertificate(
            smoothness=self.smoothness,
            strong_convexity=self.gamma,
            lipschitz=lip,
            gradient_data_lipschitz=zeta,
            loss_bound=loss_bound,
            sample_diameter=sampling.sample_space_diameter(self.b_x, self.b_y),
            weight_radius=w_r,
        )

    def loss_uy(self, u, y, w):
        r = left_to_right_dot(u, w) - y
        return 0.5 * r * r + 0.5 * self.gamma * left_to_right_dot(w, w)

    def grad_uy(self, u, y, w):
        r = left_to_right_dot(u, w) - y
        return u * r + self.gamma * w

    def losses_uy(self, u, y, w):
        r = np.array([left_to_right_dot(row, w) for row in u]) - y
        return 0.5 * r * r + 0.5 * self.gamma * left_to_right_dot(w, w)

    def hessian_uy(self, u, w=None):
        return np.outer(u, u) + self.gamma * np.eye(self.dim)


class ReferenceRipple(ReferenceFieldBase):
    def __init__(self, dim, smoothness, b_x, b_y, ripple_amplitude,
                 weight_radius=1.0, ripple_frequency=4.0):
        a = float(ripple_amplitude)
        freq = float(ripple_frequency)
        ripple_curvature = a * freq * freq
        scale = np.sqrt(smoothness - ripple_curvature) / b_x
        super().__init__(dim, b_x, b_y, weight_radius, scale)
        self.smoothness = float(smoothness)
        self.gamma = 0.0
        self.amplitude = a
        self.frequency = freq
        self.direction = np.zeros(self.dim)
        self.direction[0] = freq
        self.convex = a == 0.0
        self.strongly_convex = False
        self.kind = "ripple"

    @property
    def certificate(self):
        u_max = np.sqrt(self.smoothness - self.amplitude * self.frequency**2)
        w_r = self.weight_radius
        margin = u_max * w_r + self.b_y
        lip = u_max * margin + self.amplitude * self.frequency
        zeta = np.sqrt(
            (self.feature_scale * (2 * u_max * w_r + self.b_y)) ** 2 + u_max**2
        )
        loss_bound = 0.5 * margin**2 + 2.0 * self.amplitude
        return objectives.ConstantsCertificate(
            smoothness=self.smoothness,
            strong_convexity=0.0,
            lipschitz=lip,
            gradient_data_lipschitz=zeta,
            loss_bound=loss_bound,
            sample_diameter=sampling.sample_space_diameter(self.b_x, self.b_y),
            weight_radius=w_r,
        )

    def phase(self, w):
        """<k, w> with k = frequency * e_0: the one product frequency * w0."""
        return self.frequency * float(w[0])

    def loss_uy(self, u, y, w):
        r = left_to_right_dot(u, w) - y
        return 0.5 * r * r + self.amplitude * (1.0 - np.cos(self.phase(w)))

    def grad_uy(self, u, y, w):
        r = left_to_right_dot(u, w) - y
        return u * r + self.amplitude * np.sin(self.phase(w)) * self.direction

    def losses_uy(self, u, y, w):
        r = np.array([left_to_right_dot(row, w) for row in u]) - y
        ripple = self.amplitude * (1.0 - np.cos(self.phase(w)))
        return 0.5 * r * r + ripple

    def hessian_uy(self, u, w):
        h = np.outer(u, u)
        h += self.amplitude * np.cos(self.phase(w)) * np.outer(self.direction, self.direction)
        return h


def reference_regime(ref):
    """The regime as derived from the reference's flags and gamma."""
    strongly = getattr(ref, "strongly_convex", False) and ref.gamma > 0
    return objectives.STRONGLY_CONVEX if strongly else objectives.NON_CONVEX


def same_bits(a, b):
    """Equal values, zero signs and dtype: a dropped or an added 0.0 term shows."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def signed_zero_draws(rng, dim, count):
    """(count, dim) draws with some entries set to +0.0 or -0.0."""
    v = rng.normal(size=(count, dim))
    zero = rng.random((count, dim)) < 0.3
    v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return v


def random_family_pair(rng, family):
    """(shared implementation, reference) on one random parameter set."""
    dim = int(rng.integers(1, 6))
    lam = float(rng.uniform(0.05, 5.0))
    b_x, b_y, w_r = (float(v) for v in rng.uniform(0.1, 3.0, size=3))
    if family == "quadratic":
        gamma = lam if rng.random() < 0.1 else float(rng.uniform(1e-3, lam))
        args = (dim, lam, gamma, b_x, b_y, w_r)
        return QuadraticFieldObjective(*args), ReferenceQuadratic(*args)
    freq = float(rng.uniform(0.5, 8.0))
    amp = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, lam / (freq * freq)))
    args = (dim, lam, b_x, b_y, amp, w_r, freq)
    return RippleFieldObjective(*args), ReferenceRipple(*args)


@pytest.mark.parametrize("family", ["quadratic", "ripple"])
def test_shared_objective_matches_reference_families_bit_for_bit(family):
    rng = child_rng(31, "reference", family)
    compared_certificates = 0
    for _ in range(300):
        obj, ref = random_family_pair(rng, family)
        assert obj.kind == ref.kind and obj.convex == ref.convex
        assert obj.regime == reference_regime(ref)
        assert same_bits(obj.feature_scale, ref.feature_scale)
        # the reference's ripple certificate computes the curvature as
        # a * f**2, its constructor as a * f * f; the shared code uses the
        # latter throughout, so certificates are compared where they agree
        if family == "quadratic" or ref.amplitude * ref.frequency**2 == (
                ref.amplitude * ref.frequency * ref.frequency):
            compared_certificates += 1
            cert, ref_cert = obj.certificate, ref.certificate
            for field in dataclasses.fields(cert):
                assert same_bits(getattr(cert, field.name), getattr(ref_cert, field.name)), field.name
        us = signed_zero_draws(rng, obj.dim, 6) * rng.uniform(0.0, 1.0)
        ws = signed_zero_draws(rng, obj.dim, 6) * (obj.weight_radius / np.sqrt(obj.dim))
        ys = rng.uniform(-obj.b_y, obj.b_y, size=6)
        for u, w, y in zip(us, ws, ys.tolist()):
            assert same_bits(obj.loss_uy(u, y, w), ref.loss_uy(u, y, w))
            assert same_bits(obj.grad_uy(u, y, w), ref.grad_uy(u, y, w))
            assert same_bits(obj.losses_uy(us, ys, w), ref.losses_uy(us, ys, w))
    assert compared_certificates > 100
