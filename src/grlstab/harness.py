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
replaced vertex in one set. Both estimates run one perturbed-training loop
that passes its m sets to the learner's one ``train``, so mu at m = 1 is
beta2 by construction (same seed streams, same trainings). For binary-spin
instances at small N an exhaustive mode enumerates the full discrete cube
and returns exact oracle values for beta1/beta2, through the same
beta1/beta2 reduction and the same ``StabilityEstimate`` record, which the
GNN experiment's result extends.

Learner protocol: ``prepare(z)`` turns a sample set into the learner's
input (the bound objective for ``sgd.SgdAlgorithm``, the design matrix and
labels for ``srm.SrmClassAlgorithm``); ``train(prepared_sets)`` fits the
pool of a list of one or more prepared sets, and ``losses(h, prepared)``
scores a hypothesis on one. The harness imports no learner. Every
estimator prepares each sample set once per use, so a test set scored
against many hypotheses is aggregated once; the exhaustive oracle prepares
each cube configuration once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import IsingSpec, enumerate_spin_configs, gibbs_probabilities
from .seeding import seed_int


class NonDeterministicAlgorithmError(RuntimeError):
    """Two identical invocations of the learner disagreed."""


@dataclass(frozen=True, eq=False)
class StabilityEstimate:
    """Per-vertex beta1_i and beta2_i; the aggregates are their maxima."""

    beta1_i: np.ndarray
    beta2_i: np.ndarray

    @property
    def beta1(self) -> float:
        return float(self.beta1_i.max())

    @property
    def beta2(self) -> float:
        return float(self.beta2_i.max())

    @property
    def discrepancy(self) -> float:
        return float(self.beta2_i.max() - self.beta1_i.max())


@dataclass(frozen=True)
class GapSample:
    phi: float  # estimated generalization gap R(h) - Rhat(h)
    test_graphs: int
    seed: int


# ---------------------------------------------------------------------------
# Core estimation


def _check_deterministic(alg, prepared_sets):
    h1 = alg.train(prepared_sets)
    h2 = alg.train(prepared_sets)
    if not np.array_equal(np.asarray(h1), np.asarray(h2)):
        raise NonDeterministicAlgorithmError(
            f"algorithm {alg.id} returned different hypotheses on identical input"
        )


def _prepared_test_sets(alg, sampler, pert_draws: int, test_draws: int, seed: int):
    """The prepared test sets of an estimate, after checking its draw counts."""
    if pert_draws < 1 or test_draws < 1:
        raise ValueError("need at least one perturbation draw and one test draw")
    return [alg.prepare(sampler.sample(seed_int(seed, "test", k))) for k in range(test_draws)]


def _stability_pair(gaps: np.ndarray, outside: np.ndarray) -> tuple:
    """(beta1_i, beta2_i) of a (..., n) array of loss gaps at the test vertices:
    the max over test vertices outside Xi(i) (0 if there are none), and the max."""
    beta1 = float(gaps[..., outside].max()) if outside.size else 0.0
    return beta1, float(gaps.max())


def _estimate(pairs: list) -> StabilityEstimate:
    """The record of the (beta1_i, beta2_i) pairs of vertices 0..n-1."""
    beta1_i, beta2_i = np.array(pairs, dtype=float).reshape(-1, 2).T
    return StabilityEstimate(beta1_i=beta1_i, beta2_i=beta2_i)


def _perturbation_gaps(alg, sampler, i: int, m: int, pert_draws: int, test_sets: list,
                       seed: int, check_determinism: bool = False) -> np.ndarray:
    """Loss gaps at every test vertex for perturbed vertex i, one row per
    (draw, target set, test set): shape (pert_draws * m * len(test_sets), n).

    Draw k trains on m sets and, for each target set j0, on the same sets
    with Z_i of set j0 replaced, and scores both on every test set. At m = 1
    it is the beta2 pipeline.
    """
    gaps = []
    for k in range(pert_draws):
        sets = [sampler.sample(seed_int(seed, "train", i, k))]
        sets += [sampler.sample(seed_int(seed, "train", i, k, "extra", extra))
                 for extra in range(1, m)]
        pool = [alg.prepare(z) for z in sets]
        if check_determinism and k == 0:
            _check_deterministic(alg, pool)
        for j0 in range(m):
            replaced = list(pool)
            replaced[j0] = alg.prepare(sampler.replace(
                sets[j0], [i], seed_int(seed, "replace", i, k, j0)
                if j0 else seed_int(seed, "replace", i, k)))
            # the base pool is retrained per target on purpose: perfbench
            # derives 2 m trainings per draw from the config
            h = alg.train(pool)
            h_p = alg.train(replaced)
            gaps += [np.abs(alg.losses(h, test) - alg.losses(h_p, test)) for test in test_sets]
    return np.array(gaps)


def estimate_vertex_stability(alg, sampler, i: int, pert_draws: int, test_draws: int,
                              seed: int, check_determinism: bool = False):
    """(beta1_i, beta2_i) lower estimates for one perturbed vertex."""
    test_sets = _prepared_test_sets(alg, sampler, pert_draws, test_draws, seed)
    gaps = _perturbation_gaps(alg, sampler, i, 1, pert_draws, test_sets, seed,
                              check_determinism)
    return _stability_pair(gaps, sampler.rf.outside(i))


def estimate_stability(alg, sampler, pert_draws: int, test_draws: int, seed: int) -> StabilityEstimate:
    """Per-vertex estimates for every i, aggregated to beta1/beta2."""
    return _estimate([estimate_vertex_stability(alg, sampler, i, pert_draws, test_draws, seed,
                                                check_determinism=(i == 0))
                      for i in range(sampler.rf.n)])


def estimate_mu(alg, sampler, m: int, pert_draws: int, test_draws: int, seed: int) -> float:
    """m-graph uniform stability estimate.

    For every perturbation target (set index j0, vertex i0) and every draw,
    trains on the pooled m sets and on the pool with Z_{i0}^{(j0)} replaced,
    then maxes the loss difference over fresh test sets. The m = 1 case is
    the beta2 pipeline on the same seed streams.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    test_sets = _prepared_test_sets(alg, sampler, pert_draws, test_draws, seed)
    return max(float(_perturbation_gaps(alg, sampler, i0, m, pert_draws, test_sets, seed).max())
               for i0 in range(sampler.rf.n))


def estimate_generalization_gap(alg, sampler, test_graphs: int, trials: int, seed: int):
    """Phi-hat = Rhat_test - Rhat_train per trial, test risk averaged over fresh sets."""
    if test_graphs < 1:
        raise ValueError("need at least one test graph")
    out = []
    for t in range(trials):
        z = alg.prepare(sampler.sample(seed_int(seed, "gap-train", t)))
        h = alg.train([z])
        train_risk = float(alg.losses(h, z).mean())
        test_risk = 0.0
        for k in range(test_graphs):
            z_test = alg.prepare(sampler.sample(seed_int(seed, "gap-test", t, k)))
            test_risk += float(alg.losses(h, z_test).mean())
        test_risk /= test_graphs
        out.append(GapSample(phi=test_risk - train_risk, test_graphs=test_graphs,
                             seed=seed_int(seed, "gap-train", t)))
    return out


# ---------------------------------------------------------------------------
# Exhaustive oracle over the binary cube (desk scale)


def _prepared_cube(alg, spec: IsingSpec) -> list:
    """The learner's prepared set of every spin configuration, in
    enumerate_spin_configs order (index c is configuration c)."""
    return [alg.prepare(spec.sample_set_from_spins(spins, seed=0))
            for spins in enumerate_spin_configs(spec.n)]


def exhaustive_binary_stability(alg, spec: IsingSpec) -> StabilityEstimate:
    """Exact beta1/beta2 of a deterministic learner over the full spin cube.

    Requires the "self" label rule so that flipping one spin changes exactly
    one sample coordinate. Every configuration is a training set, every
    configuration is a test set, and every single-spin flip is a
    perturbation, so the computed maxima are the definitional suprema for
    this sample space. Each configuration is prepared once.
    """
    if spec.label_rule != "self":
        raise ValueError("exhaustive mode needs the 'self' label rule "
                         "(single-flip closure of the cube)")
    cube = _prepared_cube(alg, spec)
    n = spec.n
    hypotheses = [alg.train([prepared]) for prepared in cube]
    loss_table = np.stack([
        np.stack([alg.losses(h, test) for test in cube]) for h in hypotheses
    ])  # (config_trained_on, test_config, test_vertex)

    # flipping spin i of config c lands on config c ^ bit(i)
    flip = np.arange(len(cube))[:, None] ^ (1 << (n - 1 - np.arange(n)))[None, :]

    return _estimate([_stability_pair(np.abs(loss_table - loss_table[flip[:, i]]),
                                      spec.rf.outside(i)) for i in range(n)])


def exact_risk(alg, h, spec: IsingSpec) -> float:
    """Exact generalization risk of a hypothesis under the Gibbs measure."""
    probs = gibbs_probabilities(spec)
    risks = np.array([float(alg.losses(h, test).mean()) for test in _prepared_cube(alg, spec)])
    return float(probs @ risks)
