"""Vertex samplers: i.i.d. baseline and a binary-spin Gibbs family.

The Gibbs family P(s) ~ exp(0.5 s'Js + h's) over s in {-1,+1}^N is the
concrete weakly dependent distribution used throughout: its single-site
conditionals are logistic, Glauber dynamics mixes fast in the weak-coupling
regime, and the Dobrushin coefficient

    alpha = max_i sum_{j != i} C_ij,
    C_ij  = sup_{s_-i-j, s_j, s_j'} TV( P(s_i | rest, s_j), P(s_i | rest, s_j') )

(the max row sum of the influence matrix C) is exactly enumerable at desk
scale. Spins are embedded into vertex samples
Z_i = (X_i, Y_i) through a fixed per-vertex unit direction (X_i = s_i B_X q_i)
so the embedded sample process inherits the spin coefficient: the features
determine the spins, hence conditional laws are pushforwards under a fixed
injective map and total variation is preserved.

Glauber dynamics is table driven. A site's conditional depends only on its
neighbours (the nonzero entries of its coupling row), so each IsingSpec
builds, on first use, one table per site holding P(s_i = +1 | neighbour
pattern) for all 2^degree patterns. Each entry is the logistic expression a
single-chain update would evaluate, on a spin vector with that pattern, so
the table holds the same floats. A spec with a site of degree above
TABLE_DEGREE_LIMIT builds no tables and keeps the direct local-field
computation for every site. The spec's coupling and field are read-only
copies, so a table can never go stale. Vertex replacement evaluates the
same logistic expression the tables are built from.

Perturbed sets Z^Lambda replace the samples indexed by Lambda and keep every
other coordinate bit-identical, which realizes the single-vertex sets Z^i
used by the stability definitions. Both samplers' ``replace`` methods check
the mode and Lambda and build Z^Lambda through the same two helpers; they
differ only in how the replacement rows are drawn.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import ReceptiveFieldMap
from .seeding import child_rng


class CapacityError(ValueError):
    """Problem size exceeds what exact enumeration supports."""


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Per-vertex feature/label pairs, the seed of the draw they came from,
    and the replaced vertices.

    ``perturbed`` records the index set Lambda of replaced vertices relative
    to the parent draw, whose seed a replaced set keeps; a freshly sampled
    set has an empty Lambda. ``spins`` keeps the underlying binary
    configuration for Gibbs-born sets (needed for conditional resampling and
    exhaustive enumeration).
    """

    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)
    seed: int
    perturbed: frozenset = frozenset()
    spins: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def differing_vertices(self, other: "SampleSet") -> np.ndarray:
        """Indices where the two sets disagree in feature or label."""
        if self.features.shape != other.features.shape:
            raise ValueError("sample sets have mismatched shapes")
        feat_diff = np.any(self.features != other.features, axis=1)
        lab_diff = self.labels != other.labels
        return np.nonzero(feat_diff | lab_diff)[0]


def sample_space_diameter(b_x: float, b_y: float) -> float:
    """sup ||Z_i - Z_j|| over the admissible sample space."""
    return float(np.hypot(2.0 * b_x, 2.0 * b_y))


def _checked_lambda(z: SampleSet, indices, mode: str) -> list:
    """Lambda as sorted distinct ints, after checking the replacement mode and range."""
    if mode not in ("fresh-marginal", "fresh-conditional"):
        raise ValueError(f"unknown replacement mode {mode!r}")
    indices = sorted({int(i) for i in indices})
    if any(i < 0 or i >= z.n for i in indices):
        raise ValueError("replacement index out of range")
    return indices


def _replaced(z: SampleSet, indices: list, features, labels, spins=None) -> SampleSet:
    """Z^Lambda: z with rows Lambda set to (features, labels), all others bit-identical."""
    new_features = z.features.copy()
    new_labels = z.labels.copy()
    new_features[indices] = features
    new_labels[indices] = labels
    return SampleSet(features=new_features, labels=new_labels, seed=z.seed,
                     perturbed=frozenset(indices), spins=spins)


# ---------------------------------------------------------------------------
# i.i.d. baseline sampler


@dataclass(frozen=True, eq=False)
class IidSampler:
    """Product-measure sampler: Dobrushin coefficient zero by construction.

    Features are uniform on the box [-B_X/sqrt(dim), B_X/sqrt(dim)]^dim so
    ||X_i|| <= B_X; the label is the fixed bounded rule
    y_i = clamp(sum(X_i)/sqrt(dim) + noise, +-B_y), a function of the own
    feature only, which keeps the coordinates independent.
    """

    rf: ReceptiveFieldMap
    dim: int
    b_x: float = 1.0
    b_y: float = 1.0
    label_noise: float = 0.0

    @property
    def n(self) -> int:
        return self.rf.n

    def _draw_rows(self, rng: np.random.Generator, count: int):
        half = self.b_x / np.sqrt(self.dim)
        x = rng.uniform(-half, half, size=(count, self.dim))
        y = np.clip(x.sum(axis=1) / np.sqrt(self.dim), -self.b_y, self.b_y)
        if self.label_noise > 0.0:
            y = y + rng.uniform(-self.label_noise, self.label_noise, size=count)
            y = np.clip(y, -self.b_y, self.b_y)
        return x, y

    def sample(self, seed: int) -> SampleSet:
        rng = child_rng(seed, "iid-draw")
        x, y = self._draw_rows(rng, self.n)
        return SampleSet(features=x, labels=y, seed=int(seed))

    def replace(self, z: SampleSet, indices, seed: int, mode: str = "fresh-marginal") -> SampleSet:
        """Redraw the vertices in Lambda; marginal and conditional coincide here."""
        indices = _checked_lambda(z, indices, mode)
        x, y = self._draw_rows(child_rng(seed, "iid-replace"), len(indices))
        return _replaced(z, indices, x, y)


# ---------------------------------------------------------------------------
# Binary-spin Gibbs family


@dataclass(frozen=True, eq=False)
class IsingSpec:
    """Binary-spin Gibbs measure plus the maps from spins to vertex samples.

    P(s) ~ exp(0.5 s'Js + h's) with symmetric zero-diagonal coupling J.
    Feature map: X_i = s_i * B_X * q_i with q_i a fixed unit basis direction
    (identity columns, cycled when feature_dim < n). Label rules:

    - "field-mean": y_i = clamp(mean of spins over Xi(i), +-B_y); labels
      depend on the receptive field, exercising the learning problem.
    - "self": y_i = clamp(s_i, +-B_y); single-coordinate replacements stay
      inside the binary cube, which exhaustive oracles require.
    """

    coupling: np.ndarray  # (n, n) symmetric, zero diagonal
    external_field: np.ndarray  # (n,)
    rf: ReceptiveFieldMap
    feature_dim: int = 3
    b_x: float = 1.0
    b_y: float = 1.0
    label_rule: str = "field-mean"

    def __post_init__(self):
        # Private read-only copies: the cached conditional tables can never go stale.
        j = np.array(self.coupling, dtype=float)
        h = np.array(self.external_field, dtype=float)
        j.setflags(write=False)
        h.setflags(write=False)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError("coupling must be square")
        if j.shape[0] != self.rf.n or h.shape != (self.rf.n,):
            raise ValueError("coupling/field sizes must match the receptive-field map")
        if not np.all(np.isfinite(j)) or not np.all(np.isfinite(h)):
            raise ValueError("coupling and field entries must be finite")
        if not np.allclose(j, j.T):
            raise ValueError("coupling must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("coupling diagonal must be zero")
        if self.label_rule not in ("field-mean", "self"):
            raise ValueError(f"unknown label rule {self.label_rule!r}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        object.__setattr__(self, "coupling", j)
        object.__setattr__(self, "external_field", h)

    @property
    def n(self) -> int:
        return self.rf.n

    @functools.cached_property
    def _conditionals(self):
        """(neighbours, tables): per site, the indices k with J_sk != 0 and the
        P(s = +1 | neighbour pattern) table; None if a site's degree exceeds
        TABLE_DEGREE_LIMIT."""
        neighbours = [np.flatnonzero(self.coupling[s]) for s in range(self.n)]
        if any(len(nb) > TABLE_DEGREE_LIMIT for nb in neighbours):
            return None
        return neighbours, [_site_table(self, s, nb) for s, nb in enumerate(neighbours)]

    @functools.cached_property
    def influence(self) -> np.ndarray:
        """Exact Dobrushin influence matrix C (n, n), by full enumeration.

        C_ij, i != j, is the max over all configurations of the remaining
        n - 2 spins of the total variation between the two conditionals of
        s_i as s_j flips: |sigmoid(2(b + J_ij)) - sigmoid(2(b - J_ij))| with b
        the local field at i from the conditioning spins. C_ii = 0.
        Read-only, and computed once per spec.
        """
        n = self.n
        if n > ENUMERATION_LIMIT:
            raise CapacityError(
                f"dobrushin_exact supports n <= {ENUMERATION_LIMIT}; "
                "use dobrushin_upper_bound for larger specs"
            )
        j = self.coupling
        h = self.external_field
        c = np.zeros((n, n))
        for i in range(n):
            others = [k for k in range(n) if k != i]
            for jdx in others:
                rest = [k for k in others if k != jdx]
                if rest:
                    rest_configs = enumerate_spin_configs(len(rest)).astype(float)
                    b = rest_configs @ j[i, rest] + h[i]
                else:
                    b = np.array([h[i]])
                p_plus = _sigmoid(2.0 * (b + j[i, jdx]))
                p_minus = _sigmoid(2.0 * (b - j[i, jdx]))
                c[i, jdx] = np.max(np.abs(p_plus - p_minus))
        c.setflags(write=False)
        return c

    def feature_directions(self) -> np.ndarray:
        """(n, feature_dim) unit directions q_i (identity columns, cycled)."""
        q = np.zeros((self.n, self.feature_dim))
        q[np.arange(self.n), np.arange(self.n) % self.feature_dim] = 1.0
        return q

    def features_from_spins(self, spins: np.ndarray) -> np.ndarray:
        """Map spin configurations (..., n) to features (..., n, feature_dim)."""
        spins = np.asarray(spins, dtype=float)
        return spins[..., :, None] * (self.b_x * self.feature_directions())

    def labels_from_spins(self, spins: np.ndarray) -> np.ndarray:
        spins = np.asarray(spins, dtype=float)
        if self.label_rule == "self":
            return np.clip(spins, -self.b_y, self.b_y)
        out = np.empty_like(spins)
        for i in range(self.n):
            members = list(self.rf.xi[i])
            out[..., i] = np.clip(spins[..., members].mean(axis=-1), -self.b_y, self.b_y)
        return out

    def sample_set_from_spins(self, spins: np.ndarray, seed: int) -> SampleSet:
        spins = np.asarray(spins, dtype=int)
        if spins.shape != (self.n,):
            raise ValueError("expected a single spin configuration")
        return SampleSet(features=self.features_from_spins(spins),
                         labels=self.labels_from_spins(spins),
                         seed=int(seed), spins=spins.copy())


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# Largest degree whose conditionals are tabulated (2^degree entries per site).
# At most 8: the many-chain sweep builds pattern indices in uint8.
TABLE_DEGREE_LIMIT = 8


def _p_up(spec: IsingSpec, spins: np.ndarray, site: int) -> np.ndarray:
    """P(s_site = +1 | rest) = sigmoid(2(J_site.s + h_site)) for spins of shape (..., n)."""
    return _sigmoid(2.0 * (spins @ spec.coupling[site] + spec.external_field[site]))


def _site_table(spec: IsingSpec, site: int, neighbours: np.ndarray) -> np.ndarray:
    """P(s_site = +1 | neighbour pattern) for every pattern, by _p_up on one row each.

    Pattern k sets neighbours[m] to bit (d - 1 - m) of k (first neighbour most
    significant), so the rows follow enumerate_spin_configs(d). Each entry is
    evaluated on a single spin vector, exactly as a one-chain update would.
    """
    row = np.ones(spec.n, dtype=np.int8)  # other sites have zero coupling
    out = np.empty(2 ** len(neighbours))
    for k, pattern in enumerate(enumerate_spin_configs(len(neighbours))):
        row[neighbours] = pattern
        out[k] = _p_up(spec, row[None, :], site)[0]
    return out


def _glauber_direct(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """All chains at once from the local field, one rng.random(n * n_chains) per sweep."""
    n, n_chains = spec.n, spins.shape[0]
    for _ in range(sweeps):
        u = rng.random(n * n_chains).reshape(n, n_chains)
        for site in range(n):
            p_up = _p_up(spec, spins, site)
            spins[:, site] = np.where(u[site] < p_up, 1, -1).astype(np.int8)
    return spins.astype(int)


# Most uniforms one rng.random call of the one-chain kernel draws; a block
# always holds at least one sweep. The cap keeps memory flat in the sweep count.
ONE_CHAIN_BLOCK = 4096


def _glauber_one_chain(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """One chain in pure Python: booleans and table lookups, no numpy call per site.

    The uniforms of a block of sweeps come from one rng.random call, read
    sweep after sweep in site order.
    """
    n = spec.n
    neighbours, tables = spec._conditionals
    sites = [(s, tuple(neighbours[s].tolist()), tables[s].tolist()) for s in range(n)]
    up = (spins > 0).tolist()
    per_block = max(1, ONE_CHAIN_BLOCK // n)
    for done in range(0, sweeps, per_block):
        block = min(per_block, sweeps - done)
        u = rng.random(n * block).tolist()
        for base in range(0, n * block, n):
            for s, nbrs, table in sites:
                index = 0
                for k in nbrs:
                    index += index + up[k]
                up[s] = u[base + s] < table[index]
    return np.array([[1 if b else -1 for b in up]], dtype=int)


def _glauber_chains(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """All chains at once: site state is a (n, n_chains) array of 0/1 bytes."""
    n, n_chains = spec.n, spins.shape[0]
    neighbours, tables = spec._conditionals
    up = np.ascontiguousarray((spins > 0).T, dtype=np.uint8)
    index = np.empty(n_chains, dtype=np.uint8)
    for _ in range(sweeps):
        u = rng.random(n * n_chains).reshape(n, n_chains)
        for s in range(n):
            index.fill(0)
            for k in neighbours[s]:
                index += index
                index += up[k]
            np.less(u[s], tables[s][index], out=up[s])
    return np.where(up.T, 1, -1).astype(int, order="C")


def glauber_spins(
    spec: IsingSpec, sweeps: int, rng: np.random.Generator, n_chains: int = 1
) -> np.ndarray:
    """Run independent single-site Glauber chains; returns (n_chains, n) spins.

    One sweep visits every site once in index order; each visit resamples the
    spin from its exact conditional P(s_i = +1 | rest) = sigmoid(2(J_i.s + h_i)),
    read from the spec's per-site table. If some site has degree above
    TABLE_DEGREE_LIMIT the spec has no tables, and every conditional is
    computed from the local field.

    The random stream is one rng.choice for the initial spins, then the
    sweeps * n * n_chains uniforms, read as (sweep, site, chain). One chain
    on a tabulated spec draws them a block of sweeps at a time (at most
    ONE_CHAIN_BLOCK doubles per rng.random call, at least one sweep); every
    other case draws one rng.random(n * n_chains) per sweep. A Generator
    fills an array from the same sequence of doubles however it is split
    into calls, so all of these equal n per-site rng.random(n_chains) calls:
    the spins, and the Generator state left behind, are bit-identical to the
    per-site local-field loop. One chain runs as a pure-Python loop over
    booleans; more chains advance together with numpy, one site at a time.
    """
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_chains, spec.n))
    if spec._conditionals is None:
        return _glauber_direct(spec, spins, sweeps, rng)
    if n_chains == 1:
        return _glauber_one_chain(spec, spins[0], sweeps, rng)
    return _glauber_chains(spec, spins, sweeps, rng)


@dataclass(frozen=True, eq=False)
class IsingSampler:
    """Approximate Gibbs sampler via Glauber dynamics with fixed burn-in."""

    spec: IsingSpec
    sweeps: int = 1000

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def rf(self) -> ReceptiveFieldMap:
        return self.spec.rf

    def sample(self, seed: int) -> SampleSet:
        spins = glauber_spins(self.spec, self.sweeps, child_rng(seed, "glauber"), 1)[0]
        return self.spec.sample_set_from_spins(spins, seed)

    def sample_spins_batch(self, n_chains: int, seed: int) -> np.ndarray:
        """(n_chains, n) independent approximate Gibbs draws, vectorized."""
        return glauber_spins(self.spec, self.sweeps, child_rng(seed, "glauber-batch"), n_chains)

    def replace(self, z: SampleSet, indices, seed: int, mode: str = "fresh-conditional") -> SampleSet:
        """Replace the vertices in Lambda.

        fresh-conditional resamples each spin in Lambda from the exact Gibbs
        conditional given the current remaining configuration (one Glauber
        touch per site, in index order). fresh-marginal takes the Lambda
        coordinates of an independent fresh chain, i.e. a draw from the
        joint marginal over Lambda.
        """
        indices = _checked_lambda(z, indices, mode)
        if z.spins is None:
            raise ValueError("sample set does not carry spins; not Gibbs-born")
        spins = z.spins.copy()
        if indices:
            rng = child_rng(seed, "ising-replace", mode)
            if mode == "fresh-conditional":
                for site in indices:
                    p_up = float(_p_up(self.spec, spins[None, :], site)[0])
                    spins[site] = 1 if rng.random() < p_up else -1
            else:
                fresh = glauber_spins(self.spec, self.sweeps, rng, 1)[0]
                spins[indices] = fresh[indices]
        # Only Lambda's rows come from the new configuration: labels of vertices
        # outside Lambda stay those computed from the parent configuration.
        return _replaced(z, indices, self.spec.features_from_spins(spins)[indices],
                         self.spec.labels_from_spins(spins)[indices], spins)


# ---------------------------------------------------------------------------
# Exact enumeration (desk scale)

ENUMERATION_LIMIT = 12


def enumerate_spin_configs(n: int) -> np.ndarray:
    """All 2^n configurations in {-1,+1}^n, one per row, lexicographic."""
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"enumeration limited to n <= {ENUMERATION_LIMIT}, got {n}")
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[::-1]) & 1
    return (2 * bits - 1).astype(int)


def gibbs_log_weights(spec: IsingSpec, configs: np.ndarray) -> np.ndarray:
    s = configs.astype(float)
    return 0.5 * np.einsum("ki,ij,kj->k", s, spec.coupling, s) + s @ spec.external_field


def gibbs_probabilities(spec: IsingSpec) -> np.ndarray:
    """Exact Gibbs probabilities over enumerate_spin_configs(spec.n)."""
    logw = gibbs_log_weights(spec, enumerate_spin_configs(spec.n))
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def dobrushin_exact(spec: IsingSpec) -> float:
    """Exact Dobrushin coefficient alpha = max_i sum_j C_ij of the spec's
    influence matrix (``IsingSpec.influence``), by full enumeration.

    The Dobrushin condition alpha < 1, under which the concentration and
    generalization bounds hold, is a condition on this row sum; the largest
    single entry max C_ij can be far below it (on K12 with J = 0.2 it is
    0.197 against a row sum of 2.17).
    """
    return float(spec.influence.sum(axis=1).max())


def dobrushin_upper_bound(spec: IsingSpec) -> float:
    """max_i sum_{j != i} tanh(|J_ij|).

    Each pairwise influence C_ij of the logistic conditional is at most
    tanh(|J_ij|) (attained at zero local field), so this tanh row sum bounds
    the exact row sum ``dobrushin_exact`` from above for any binary Gibbs
    measure.
    """
    t = np.tanh(np.abs(spec.coupling))
    np.fill_diagonal(t, 0.0)
    return float(t.sum(axis=1).max()) if spec.n > 1 else 0.0
