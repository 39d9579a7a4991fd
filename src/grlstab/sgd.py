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

Fields are symmetric, so the code of every vertex is read off Xi(i) alone:
"hit" on Xi(i) minus i, "self" at i, "miss" elsewhere.

One private loop, ``_descend``, serves the training and coupled runs:
``train`` is one descent over an index stream on the m*N pooled vertices of
m sample sets (m = 1 is the single-graph run), and a coupled run is two
descents on the same index stream. ``train`` takes sample sets already bound
to the objective (``FieldObjective.bind``), so a caller that trains on one
set many times aggregates its receptive fields once; ``coupled_train`` binds
its pair.

A T = 200 step training in 3 dimensions costs Python call overhead, not
arithmetic, so the loop makes no BLAS call, and no numpy call per step but
the ripple penalty's ``sin``. Before the first step it lists each pooled
vertex once, as the floats (u0, u1, ..., y) of its row, and maps the index
stream through that list; a stream shorter than the pool gathers its T rows
instead, so that a large graph costs O(T), not O(N). It
runs the steps through a step kernel generated from one source template for
each penalty family and dimension (``_kernel``, cached, built at the first
descent of that pair). The kernel holds the coordinates in local floats w0,
w1, ..., unpacks each row into u0, u1, ..., y, and inlines the family's
penalty gradient from its ``objectives.PenaltyGradient`` declaration; the
constants are read off the objective, an argument, and never written into
the source. The residual's u.w and the projection norm's w.w are the
package's one dot product, ``objectives.dot_source``, written out in the
kernel's source, so a trajectory has the bits of ``FieldObjective.grad_uy``
and the projection on every BLAS build. Everything elementwise runs in
numpy's order: u_i r + p_i, then w_i - alpha g_i, then w_i (radius / norm).
The exact norm is computed only when ``math.hypot`` cannot rule out a
projection. After the loop, a trajectory with a non-finite iterate is
replayed through ``grad_uy`` (a non-finite gradient makes the next iterate
non-finite), and a ``SgdDivergenceError`` names the first bad step and its
vertex. A coupled run stays two descents, not a row batch of two: batching
pays only across many trainings, where the per-step call overhead is
shared.

Per-step deviation envelopes (the ``bounds.step_cases`` table) for the
strongly convex and the smooth non-convex regimes can be rechecked against a
recorded trace; projection is 1-Lipschitz, so every envelope survives it.
The contraction properties of G itself are stress-tested in
``objectives.contraction_check``.

``SgdAlgorithm`` wraps ``train`` as a learner of the stability harness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import step_cases
from .graphs import ReceptiveFieldMap
from .objectives import (PENALTY_NAMESPACE, BoundObjective, FieldObjective,
                         PenaltyGradient, dot_source, row_norms)
from .sampling import SampleSet, check_range
from .seeding import child_rng


ENVELOPE_TOL = 1e-9  # slack on each per-step envelope margin
CASES = ("hit", "self", "miss")  # a step's case code is its index here


class SgdDivergenceError(RuntimeError):
    """Non-finite gradient encountered; carries step diagnostics."""


@dataclass(frozen=True)
class SgdConfig:
    """T steps of the fixed step size alpha, the setting every bound and
    envelope is stated for; iterates project onto the objective's weight radius."""

    step_size: float
    steps: int
    seed: int

    def __post_init__(self):
        check_range("step size", self.step_size, strict=False)
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
    case_codes: np.ndarray  # (T,), each step's case as an index into CASES

    @property
    def case_labels(self) -> tuple:
        return tuple(CASES[c] for c in self.case_codes.tolist())


def draw_indices(cfg: SgdConfig, n: int) -> np.ndarray:
    """The seeded uniform index stream n_1..n_T (with replacement)."""
    rng = child_rng(cfg.seed, "indices")
    return rng.integers(0, n, size=cfg.steps)


# The step loop of ``_descend``, written out for one penalty family and
# dimension: coordinates are local floats, and ``{w}`` is the tuple target
# "w0, w1, ...," (a trailing comma, so that dim 1 unpacks too). ``seq`` has
# one row (u0, u1, ..., y) per step, each shared by every visit of its pooled
# vertex. The step assigns all coordinates at once, so every penalty term
# reads w_t.
_KERNEL = """\
def descend(obj, seq, alpha, radius, inside, start):
    {setup}
    {w} = start
    out = [({w})]
    append = out.append
    for {u} y in seq:
        r = {uw} - y
        {prelude}
        {w} = {steps}
        if not hypot({w}) <= inside:
            norm = sqrt({ww})
            if norm > radius:
                scale = radius / norm
                {w} = {scaled}
        append(({w}))
    return out
"""


@functools.lru_cache(maxsize=None)
def _kernel(penalty: PenaltyGradient, dim: int):
    """``descend(obj, seq, alpha, radius, inside, start)`` -> the list of
    iterates w_0..w_T as tuples from w_0 = ``start``, for one penalty and
    dim; ``seq`` holds one row (u0, u1, ..., y) per step.

    The penalty's constants are read off the objective ``obj`` at each call,
    never written into the source.
    """
    def seq(fmt):
        return ", ".join(fmt.format(i=i) for i in range(dim)) + ","

    source = _KERNEL.format(
        setup="\n    ".join(penalty.setup(dim)),
        prelude=penalty.prelude,
        w=seq("w{i}"), u=seq("u{i}"),
        uw=dot_source("u", "w", dim), ww=dot_source("w", "w", dim),
        steps=", ".join(f"w{i} - alpha * (u{i} * r + {p})"
                        for i, p in enumerate(penalty.terms(dim))) + ",",
        scaled=seq("w{i} * scale"),
    )
    namespace = {**PENALTY_NAMESPACE, "hypot": math.hypot, "sqrt": math.sqrt}
    exec(source, namespace)
    return namespace["descend"]


def _descend(bounds, indices: np.ndarray, cfg: SgdConfig) -> np.ndarray:
    """Projected SGD from w_0 = 0 along a pooled index stream; weights (T+1, dim).

    Pooled index k visits vertex k % N of bounds[k // N].
    """
    obj = bounds[0].objective
    dim = obj.dim
    radius = obj.weight_radius
    inside = radius * (1 - 1e-9)  # hypot(*w) <= inside rules out projecting
    # one row (u0, u1, ..., y) per pooled vertex, and seq one per step
    table = np.concatenate([np.column_stack((b.u, b.y)) for b in bounds])
    if len(table) <= len(indices):  # listed once, shared by every visit
        rows = table.tolist()
        seq = list(map(rows.__getitem__, indices.tolist()))
    else:  # fewer steps than pooled vertices: gather the visited rows, O(T) not O(N)
        seq = table[indices].tolist()
    descend = _kernel(obj.penalty, dim)
    with np.errstate(all="ignore"):  # a non-finite gradient is reported below
        out = descend(obj, seq, cfg.step_size, radius, inside, (0.0,) * dim)
    weights = np.fromiter(itertools.chain.from_iterable(out), float,
                          len(out) * dim).reshape(len(out), dim)
    if not np.isfinite(weights).all():
        # a non-finite gradient makes the next iterate non-finite: replay
        # grad_uy along the trajectory to name the first one
        with np.errstate(all="ignore"):
            for t, row in enumerate(seq):
                if not np.isfinite(obj.grad_uy(np.array(row[:-1]), row[-1], weights[t])).all():
                    raise SgdDivergenceError(f"non-finite gradient at step {t}, "
                                             f"vertex {int(indices[t]) % bounds[0].n}")
    return weights


def train(bounds, cfg: SgdConfig) -> Trajectory:
    """Run SGD from w_0 = 0 over the pooled vertices of m bound sample sets
    and record the full trajectory.

    The index stream is uniform over the m*N pooled vertices; each visit
    takes a gradient step on that vertex's objective within its own graph
    copy. With m = 1 this is the single-graph run. The sets must agree on N
    and on the objective they are bound to.
    """
    n, obj = bounds[0].n, bounds[0].objective
    if any(b.n != n for b in bounds):
        raise ValueError(f"pooled sets disagree on N: {[b.n for b in bounds]}")
    if any(b.objective is not obj for b in bounds):
        raise ValueError("pooled sets are bound to different objectives")
    indices = draw_indices(cfg, len(bounds) * n)
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
    deltas = row_norms(weights - weights_p)
    code_of = np.where(rf.mask[vertex], CASES.index("hit"), CASES.index("miss"))
    code_of[vertex] = CASES.index("self")

    base = Trajectory(weights=weights, indices=indices, config=cfg)
    pert = Trajectory(weights=weights_p, indices=indices.copy(), config=cfg)
    return CoupledTrace(base=base, perturbed=pert, vertex=vertex,
                        delta_norms=deltas, case_codes=code_of[indices])


# ---------------------------------------------------------------------------
# Per-step case envelopes


@dataclass(frozen=True)
class EnvelopeReport:
    regime: str
    margins: np.ndarray  # rhs - lhs per step; negative entries are violations
    ok: bool


def envelope_check(trace: CoupledTrace, obj: FieldObjective) -> EnvelopeReport:
    """Recheck every recorded step against its case bound from
    ``bounds.step_cases``: d_next <= growth * d_prev + kick.

    One table serves both regimes. The strongly convex one holds for
    a <= 2/(lam+gamma), the contraction condition ``bounds.bound_report``
    prints, with no condition on the weight radius; outside it the check
    reports what it measured.
    """
    cases = step_cases(obj.certificate, trace.base.config.step_size, obj.regime)
    growth, kick = np.array([cases[c] for c in CASES])[trace.case_codes].T
    d = trace.delta_norms
    margins = growth * d[:-1] + kick - d[1:]
    return EnvelopeReport(regime=obj.regime, margins=margins,
                          ok=bool(np.all(margins >= -ENVELOPE_TOL)))
