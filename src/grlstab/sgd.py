"""Stochastic gradient descent over vertex objectives, with coupled runs.

The update is w_{t+1} = G(w_t, alpha, n_t) = project(w_t - alpha * grad
f(S_{n_t}, w_t)) with n_t drawn uniformly from [N] with replacement. A
coupled run executes the same index stream and initialization on a sample
set and its replacement at one vertex i and records the weight deviations
delta^i w_t = w_t - w_t^i per step, together with the case label of each
step:

- "hit":  i is in the sampled vertex's receptive field and n_t != i
- "self": n_t = i
- "miss": i is outside the sampled receptive field

One private loop, ``_descend``, serves the training and coupled runs:
``train`` is one descent over an index stream on the m*N pooled vertices of
m sample sets (m = 1 is the single-graph run), and a coupled run is two
descents on the same index stream. ``train`` takes sample sets already bound
to the objective (``FieldObjective.bind``), so a caller that trains on one
set many times aggregates its receptive fields once; ``coupled_train`` binds
its pair.

A T = 200 step training in 3 dimensions costs Python and numpy call
overhead, not arithmetic, so the loop does as few numpy calls per step as
it can while keeping every bit of the trajectory. It gathers the (u, y) rows
of the whole index stream before the first step, calls the objective's one
gradient definition ``FieldObjective.grad_uy`` directly, takes the
projection norm as ``math.sqrt(w.dot(w))`` (what ``np.linalg.norm`` computes
for a vector), and stores the gradient rows: they are checked for
non-finite entries once, after the loop, and a ``SgdDivergenceError`` names
the first bad step and its vertex. A coupled run stays two descents, not a
row batch of two: a bit-identical batched step costs about as much at B = 2
as at B = 1, and that is as much as two steps of this loop, so batching
pays only across many trainings.

Per-step deviation envelopes for the strongly convex and the smooth
non-convex regimes can be rechecked against a recorded trace; projection is
1-Lipschitz, so every envelope survives it. The contraction properties of G
itself are stress-tested in ``objectives.contraction_check``.

``SgdAlgorithm`` wraps ``train`` as a learner of the stability harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import step_condition
from .graphs import ReceptiveFieldMap
from .objectives import STRONGLY_CONVEX, BoundObjective, FieldObjective
from .sampling import SampleSet
from .seeding import child_rng


class SgdDivergenceError(RuntimeError):
    """Non-finite gradient encountered; carries step diagnostics."""


@dataclass(frozen=True)
class SgdConfig:
    """T steps of the fixed step size alpha, the setting every bound and
    envelope is stated for; iterates project onto the certificate radius."""

    step_size: float
    steps: int
    seed: int

    def __post_init__(self):
        if self.step_size < 0:
            raise ValueError("step size must be >= 0")
        if self.steps < 0:
            raise ValueError("step count must be >= 0")


@dataclass(frozen=True, eq=False)
class Trajectory:
    weights: np.ndarray  # (T+1, dim)
    indices: np.ndarray  # (T,), pooled: index k is vertex k % N of set k // N
    config: SgdConfig

    @property
    def final(self) -> np.ndarray:
        return self.weights[-1]


@dataclass(frozen=True, eq=False)
class CoupledTrace:
    base: Trajectory
    perturbed: Trajectory
    vertex: int  # the replaced vertex i
    delta_norms: np.ndarray  # (T+1,), ||delta^i w_t||
    case_labels: tuple  # length T, entries in {"hit", "self", "miss"}


def draw_indices(cfg: SgdConfig, n: int) -> np.ndarray:
    """The seeded uniform index stream n_1..n_T (with replacement)."""
    rng = child_rng(cfg.seed, "indices")
    return rng.integers(0, n, size=cfg.steps)


def _descend(bounds, indices: np.ndarray, cfg: SgdConfig) -> np.ndarray:
    """Projected SGD from w_0 = 0 along a pooled index stream; weights (T+1, dim).

    Pooled index k visits vertex k % N of bounds[k // N].
    """
    obj = bounds[0].objective
    grad = obj.grad_uy
    alpha = cfg.step_size
    radius = obj.certificate.weight_radius
    us = np.concatenate([b.u for b in bounds])[indices]
    ys = np.concatenate([b.y for b in bounds])[indices].tolist()
    grads = np.empty_like(us)
    weights = np.empty((len(indices) + 1, obj.dim))
    w = np.zeros(obj.dim)
    weights[0] = w
    with np.errstate(all="ignore"):  # a non-finite gradient is reported below
        for t, (u, y) in enumerate(zip(us, ys)):
            g = grad(u, y, w)
            grads[t] = g
            w = w - alpha * g
            norm = math.sqrt(w.dot(w))
            if norm > radius:
                w = w * (radius / norm)
            weights[t + 1] = w
        finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        t = int(np.argmin(finite))
        raise SgdDivergenceError(
            f"non-finite gradient at step {t}, vertex {int(indices[t]) % bounds[0].n}")
    return weights


def train(bounds, cfg: SgdConfig) -> Trajectory:
    """Run SGD from w_0 = 0 over the pooled vertices of m bound sample sets
    and record the full trajectory.

    The index stream is uniform over the m*N pooled vertices; each visit
    takes a gradient step on that vertex's objective within its own graph
    copy. With m = 1 this is the single-graph run.
    """
    indices = draw_indices(cfg, len(bounds) * bounds[0].n)
    return Trajectory(weights=_descend(bounds, indices, cfg), indices=indices, config=cfg)


class SgdAlgorithm:
    """T-step projected SGD with a frozen internal index-stream seed, as a
    learner of the stability harness.

    Its prepared set is the objective bound to the sample set.
    """

    def __init__(self, objective: FieldObjective, rf: ReceptiveFieldMap, config: SgdConfig):
        self.objective = objective
        self.rf = rf
        self.config = config

    @property
    def id(self) -> str:
        return (f"sgd({self.objective.kind},T={self.config.steps},"
                f"a={self.config.step_size},seed={self.config.seed})")

    def prepare(self, z: SampleSet) -> BoundObjective:
        return self.objective.bind(z, self.rf)

    def train(self, bounds) -> np.ndarray:
        return train(bounds, self.config).final

    def losses(self, h: np.ndarray, bound: BoundObjective) -> np.ndarray:
        return bound.losses(h)


def case_label(rf: ReceptiveFieldMap, vertex: int, sampled: int) -> str:
    if sampled == vertex:
        return "self"
    if vertex in rf.xi[sampled]:
        return "hit"
    return "miss"


def coupled_train(z: SampleSet, z_pert: SampleSet, rf: ReceptiveFieldMap,
                  obj: FieldObjective, cfg: SgdConfig) -> CoupledTrace:
    """Run the shared-stream coupling on z and its replacement Z^i at one vertex.

    The vertex i is the one ``z_pert`` records as replaced. The pair may
    differ only there, and may not differ at all: a replacement that redraws
    the same value is a valid draw of Z^i, and its deviations are all 0.
    """
    if len(z_pert.perturbed) != 1:
        raise ValueError("coupled runs need a set replaced at exactly one vertex, "
                         f"got {sorted(z_pert.perturbed)}")
    (vertex,) = z_pert.perturbed
    differing = z.differing_vertices(z_pert)
    if np.any(differing != vertex):
        raise ValueError(f"coupled runs need sets differing only at the replaced vertex "
                         f"{vertex}, got {differing.tolist()}")
    bound = obj.bind(z, rf)
    bound_p = obj.bind(z_pert, rf)
    indices = draw_indices(cfg, z.n)
    weights = _descend([bound], indices, cfg)
    weights_p = _descend([bound_p], indices, cfg)
    # one row dot per step, bit-equal to np.linalg.norm of each row; the
    # norm(axis=1) reduction differs in the last bits
    d = weights - weights_p
    deltas = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    label_of = [case_label(rf, vertex, j) for j in range(rf.n)]
    labels = tuple(label_of[i] for i in indices.tolist())

    base = Trajectory(weights=weights, indices=indices, config=cfg)
    pert = Trajectory(weights=weights_p, indices=indices.copy(), config=cfg)
    return CoupledTrace(base=base, perturbed=pert, vertex=vertex,
                        delta_norms=deltas, case_labels=labels)


# ---------------------------------------------------------------------------
# Per-step case envelopes


@dataclass(frozen=True)
class EnvelopeReport:
    regime: str
    margins: np.ndarray  # rhs - lhs per step; negative entries are violations
    regime_a_active: bool  # strongly convex: which hit-case branch applies
    ok: bool


def envelope_check(trace: CoupledTrace, obj: FieldObjective, tol: float = 1e-9) -> EnvelopeReport:
    """Recheck every recorded step against its case bound.

    Strongly convex regime (contraction rho = 1 - alpha*lam*gamma/(lam+gamma)):
        hit  : alpha^2 lam d_prev + alpha B_Z zeta     (first branch)
               rho d_prev + alpha B_Z zeta             (second branch)
        self : d_prev + 2 alpha L
        miss : rho d_prev
    Smooth non-convex regime:
        hit  : (1 + alpha lam) d_prev + alpha B_Z zeta
        self : d_prev + 2 alpha L
        miss : (1 + alpha lam) d_prev

    The hit-case branch is chosen globally from the fixed step size: the
    first when ``bounds.step_condition`` is at most 1. Both branch
    conditions overlap at equality; the active one is recorded.
    """
    cert = obj.certificate
    alpha = trace.base.config.step_size
    lam = cert.smoothness
    gamma = cert.strong_convexity
    strongly = obj.regime == STRONGLY_CONVEX
    regime_a = strongly and step_condition(alpha, lam, gamma) <= 1.0
    kick = alpha * cert.sample_diameter * cert.gradient_data_lipschitz
    self_kick = 2.0 * alpha * cert.lipschitz

    n_steps = len(trace.case_labels)
    margins = np.empty(n_steps)
    for t in range(n_steps):
        prev = trace.delta_norms[t]
        cur = trace.delta_norms[t + 1]
        label = trace.case_labels[t]
        if strongly:
            rho = 1.0 - alpha * lam * gamma / (lam + gamma)
            if label == "self":
                rhs = prev + self_kick
            elif label == "miss":
                rhs = rho * prev
            else:
                rhs = (alpha**2 * lam * prev + kick) if regime_a else (rho * prev + kick)
        else:
            grow = 1.0 + alpha * lam
            if label == "self":
                rhs = prev + self_kick
            elif label == "miss":
                rhs = grow * prev
            else:
                rhs = grow * prev + kick
        margins[t] = rhs - cur

    return EnvelopeReport(
        regime=obj.regime,
        margins=margins,
        regime_a_active=regime_a,
        ok=bool(np.all(margins >= -tol)),
    )

