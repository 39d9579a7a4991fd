"""Empirical multi-fidelity stability estimation for deterministic learners.

An algorithm here is a deterministic map from data to a hypothesis (any
internal randomness is frozen by its configuration seed), so stability can
be probed by training on coupled pairs (Z, Z^i) that share everything but
vertex i. Per-vertex estimates

    beta2_i = max over perturbation draws, test sets, test vertices j
              of |L(h_Z(T'_j), Y'_j) - L(h_{Z^i}(T'_j), Y'_j)|
    beta1_i = the same max restricted to j outside Xi(i)

are lower bounds of the definitional suprema (Monte Carlo in place of the
sup), so bound-validation compares bound >= estimate, the sound direction.
Perturbation draws and test draws use independent derived seed streams.

The m-graph uniform-stability estimate trains on pooled sets with one
replaced vertex in one set; m = 1 reduces to the beta2 pipeline on the
same seed streams by construction. For binary-spin instances at small N an
exhaustive mode enumerates the full discrete cube and returns exact
oracle values for beta1/beta2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import ReceptiveFieldMap
from .objectives import FieldObjective
from .sampling import IsingSpec, SampleSet, enumerate_spin_configs, gibbs_probabilities
from .sgd import SgdConfig, train, train_pooled
from .seeding import seed_int


class NonDeterministicAlgorithmError(RuntimeError):
    """Two identical invocations of the learner disagreed."""


@dataclass(frozen=True)
class StabilityEstimate:
    beta1_i: np.ndarray
    beta2_i: np.ndarray
    beta1: float
    beta2: float
    discrepancy: float
    mu: float | None
    pert_draws: int  # K
    test_draws: int  # K'
    seed: int
    algorithm: str


@dataclass(frozen=True)
class GapSample:
    phi: float  # estimated generalization gap R(h) - Rhat(h)
    test_graphs: int
    seed: int


# ---------------------------------------------------------------------------
# Algorithms


class SgdAlgorithm:
    """T-step projected SGD with a frozen internal index-stream seed."""

    def __init__(self, objective: FieldObjective, rf: ReceptiveFieldMap, config: SgdConfig):
        self.objective = objective
        self.rf = rf
        self.config = config

    @property
    def id(self) -> str:
        return (f"sgd({self.objective.kind},T={self.config.steps},"
                f"a={self.config.step_size},seed={self.config.seed})")

    @property
    def loss_bound(self) -> float:
        return self.objective.certificate.loss_bound

    def train(self, z: SampleSet) -> np.ndarray:
        return train(z, self.rf, self.objective, self.config).final

    def train_pooled(self, sets) -> np.ndarray:
        return train_pooled(sets, self.rf, self.objective, self.config)

    def losses(self, h: np.ndarray, z: SampleSet) -> np.ndarray:
        return self.objective.bind(z, self.rf).losses(h)


class ConstantAlgorithm:
    """Training-set independent learner; every stability notion is zero."""

    def __init__(self, objective: FieldObjective, rf: ReceptiveFieldMap, weights: np.ndarray):
        self.objective = objective
        self.rf = rf
        self.weights = np.asarray(weights, dtype=float)

    @property
    def id(self) -> str:
        return "constant"

    @property
    def loss_bound(self) -> float:
        return self.objective.certificate.loss_bound

    def train(self, z: SampleSet) -> np.ndarray:
        return self.weights.copy()

    def train_pooled(self, sets) -> np.ndarray:
        return self.weights.copy()

    def losses(self, h: np.ndarray, z: SampleSet) -> np.ndarray:
        return self.objective.bind(z, self.rf).losses(h)


class ClosedFormGnnAlgorithm:
    """Masked-ridge GNN solver wrapped for the generic harness.

    Loss is the squared error (yhat_j - y_j)^2 used by the GNN stability
    experiments; no certified loss bound is available.
    """

    def __init__(self, rf: ReceptiveFieldMap, weight: np.ndarray, ridge: float,
                 solver: str = "projected"):
        from .gnn import GnnProblem, _solver
        from .graphs import mask_from_fields

        self.rf = rf
        self.weight = np.asarray(weight, dtype=float)
        self.ridge = float(ridge)
        self.mask = mask_from_fields(rf)
        self._fit = _solver(solver)
        self._problem = GnnProblem
        self.solver = solver

    @property
    def id(self) -> str:
        return f"gnn({self.solver},ridge={self.ridge})"

    @property
    def loss_bound(self):
        return None

    def _prob(self, z: SampleSet):
        return self._problem(
            features=z.features, labels=z.labels, weight=self.weight,
            mask=self.mask, ridge=self.ridge,
            b_x=float(np.linalg.norm(z.features, axis=1).max() + 1.0),
            b_y=float(np.abs(z.labels).max() + 1.0),
            b_w=float(np.linalg.norm(self.weight) + 1.0),
        )

    def train(self, z: SampleSet) -> np.ndarray:
        return self._fit(self._prob(z)).a_tilde

    def losses(self, h: np.ndarray, z: SampleSet) -> np.ndarray:
        pred = h @ (z.features @ self.weight)
        return (pred - z.labels) ** 2


# ---------------------------------------------------------------------------
# Core estimation


def _check_deterministic(alg, z: SampleSet):
    h1 = alg.train(z)
    h2 = alg.train(z)
    if not np.array_equal(np.asarray(h1), np.asarray(h2)):
        raise NonDeterministicAlgorithmError(
            f"algorithm {alg.id} returned different hypotheses on identical input"
        )


def _loss_gaps(alg, h_base, h_pert, test_sets):
    """(max over all j, max over j outside Xi(i)) needs the caller's split."""
    gaps = []
    for z_test in test_sets:
        gaps.append(np.abs(alg.losses(h_base, z_test) - alg.losses(h_pert, z_test)))
    return gaps


def estimate_vertex_stability(alg, sampler, i: int, pert_draws: int, test_draws: int,
                              seed: int, check_determinism: bool = False):
    """(beta1_i, beta2_i) lower estimates for one perturbed vertex."""
    if pert_draws < 1 or test_draws < 1:
        raise ValueError("need at least one perturbation draw and one test draw")
    rf = sampler.rf
    outside = rf.outside(i)
    test_sets = [
        sampler.sample(seed_int(seed, "test", k)) for k in range(test_draws)
    ]
    b1 = 0.0
    b2 = 0.0
    for k in range(pert_draws):
        z = sampler.sample(seed_int(seed, "train", i, k))
        if check_determinism and k == 0:
            _check_deterministic(alg, z)
        z_i = sampler.replace(z, [i], seed_int(seed, "replace", i, k))
        h = alg.train(z)
        h_i = alg.train(z_i)
        for gap in _loss_gaps(alg, h, h_i, test_sets):
            b2 = max(b2, float(gap.max()))
            if outside.size:
                b1 = max(b1, float(gap[outside].max()))
    return b1, b2


def estimate_stability(alg, sampler, pert_draws: int, test_draws: int, seed: int) -> StabilityEstimate:
    """Per-vertex estimates for every i, aggregated to beta1/beta2."""
    n = sampler.rf.n
    beta1_i = np.zeros(n)
    beta2_i = np.zeros(n)
    for i in range(n):
        beta1_i[i], beta2_i[i] = estimate_vertex_stability(
            alg, sampler, i, pert_draws, test_draws, seed,
            check_determinism=(i == 0),
        )
    return StabilityEstimate(
        beta1_i=beta1_i, beta2_i=beta2_i,
        beta1=float(beta1_i.max()), beta2=float(beta2_i.max()),
        discrepancy=float(beta2_i.max() - beta1_i.max()),
        mu=None, pert_draws=pert_draws, test_draws=test_draws,
        seed=seed, algorithm=alg.id,
    )


def estimate_mu(alg, sampler, m: int, pert_draws: int, test_draws: int, seed: int) -> float:
    """m-graph uniform stability estimate.

    For every perturbation target (set index j0, vertex i0) and every draw,
    trains on the pooled m sets and on the pool with Z_{i0}^{(j0)} replaced,
    then maxes the loss difference over fresh test sets. The m = 1 case runs
    the exact seed streams of the beta2 pipeline.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rf = sampler.rf
    test_sets = [
        sampler.sample(seed_int(seed, "test", k)) for k in range(test_draws)
    ]
    mu = 0.0
    for i0 in range(rf.n):
        for k in range(pert_draws):
            draw_rng_path = ("train", i0, k)
            sets = [sampler.sample(seed_int(seed, *draw_rng_path))]
            for extra in range(1, m):
                sets.append(sampler.sample(seed_int(seed, *draw_rng_path, "extra", extra)))
            for j0 in range(m):
                perturbed = list(sets)
                perturbed[j0] = sampler.replace(
                    sets[j0], [i0], seed_int(seed, "replace", i0, k, j0)
                    if j0 else seed_int(seed, "replace", i0, k)
                )
                h = alg.train_pooled(sets)
                h_p = alg.train_pooled(perturbed)
                for gap in _loss_gaps(alg, h, h_p, test_sets):
                    mu = max(mu, float(gap.max()))
    return mu


def estimate_generalization_gap(alg, sampler, test_graphs: int, trials: int, seed: int):
    """Phi-hat = Rhat_test - Rhat_train per trial, test risk averaged over fresh sets."""
    if test_graphs < 1:
        raise ValueError("need at least one test graph")
    out = []
    for t in range(trials):
        z = sampler.sample(seed_int(seed, "gap-train", t))
        h = alg.train(z)
        train_risk = float(alg.losses(h, z).mean())
        test_risk = 0.0
        for k in range(test_graphs):
            z_test = sampler.sample(seed_int(seed, "gap-test", t, k))
            test_risk += float(alg.losses(h, z_test).mean())
        test_risk /= test_graphs
        out.append(GapSample(phi=test_risk - train_risk, test_graphs=test_graphs,
                             seed=seed_int(seed, "gap-train", t)))
    return out


# ---------------------------------------------------------------------------
# Exhaustive oracle over the binary cube (desk scale)


@dataclass(frozen=True)
class ExhaustiveStability:
    beta1_i: np.ndarray
    beta2_i: np.ndarray
    beta1: float
    beta2: float


def _cube_sample_sets(spec: IsingSpec):
    configs = enumerate_spin_configs(spec.n)
    return configs, [spec.sample_set_from_spins(configs[c], seed=0) for c in range(len(configs))]


def exhaustive_binary_stability(alg, spec: IsingSpec) -> ExhaustiveStability:
    """Exact beta1/beta2 of a deterministic learner over the full spin cube.

    Requires the "self" label rule so that flipping one spin changes exactly
    one sample coordinate. Every configuration is a training set, every
    configuration is a test set, and every single-spin flip is a
    perturbation, so the computed maxima are the definitional suprema for
    this sample space.
    """
    if spec.label_rule != "self":
        raise ValueError("exhaustive mode needs the 'self' label rule "
                         "(single-flip closure of the cube)")
    configs, sets = _cube_sample_sets(spec)
    n = spec.n
    hypotheses = [alg.train(z) for z in sets]
    loss_table = np.stack([
        np.stack([alg.losses(h, z_test) for z_test in sets]) for h in hypotheses
    ])  # (config_trained_on, test_config, test_vertex)

    # flipping spin i of config c lands on config c ^ bit(i)
    flip = np.arange(len(configs))[:, None] ^ (1 << (n - 1 - np.arange(n)))[None, :]

    beta1_i = np.zeros(n)
    beta2_i = np.zeros(n)
    outside = [spec.rf.outside(i) for i in range(n)]
    for i in range(n):
        gaps = np.abs(loss_table - loss_table[flip[:, i]])  # (train cfg, test cfg, j)
        beta2_i[i] = float(gaps.max())
        if outside[i].size:
            beta1_i[i] = float(gaps[:, :, outside[i]].max())
    return ExhaustiveStability(
        beta1_i=beta1_i, beta2_i=beta2_i,
        beta1=float(beta1_i.max()), beta2=float(beta2_i.max()),
    )


def exact_risk(alg, h, spec: IsingSpec) -> float:
    """Exact generalization risk of a hypothesis under the Gibbs measure."""
    _, sets = _cube_sample_sets(spec)
    probs = gibbs_probabilities(spec)
    risks = np.array([float(alg.losses(h, z).mean()) for z in sets])
    return float(probs @ risks)


def multi_replacement_shift(alg, spec: IsingSpec, base_config: int, flip_vertices,
                            test_sets) -> float:
    """Max test loss shift when the vertices in Lambda are all flipped."""
    configs, sets = _cube_sample_sets(spec)
    idx = base_config
    n = spec.n
    for i in flip_vertices:
        idx = idx ^ (1 << (n - 1 - i))
    h = alg.train(sets[base_config])
    h_l = alg.train(sets[idx])
    worst = 0.0
    for z in test_sets:
        worst = max(worst, float(np.abs(alg.losses(h, z) - alg.losses(h_l, z)).max()))
    return worst
