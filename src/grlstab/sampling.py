"""Vertex samplers: i.i.d. baseline and a binary-spin Gibbs family.

The Gibbs family P(s) ~ exp(0.5 s'Js + h's) over s in {-1,+1}^N is the
concrete weakly dependent distribution used throughout: its single-site
conditionals are logistic, Glauber dynamics mixes fast in the weak-coupling
regime, and the Dobrushin coefficient

    alpha = max_i sum_{j != i} C_ij,
    C_ij  = sup_{s_-i-j, s_j, s_j'} TV( P(s_i | rest, s_j), P(s_i | rest, s_j') )

(the max row sum of the influence matrix C) is exact at any N whose degrees
are at most ENUMERATION_LIMIT. Spins are embedded into vertex samples
Z_i = (X_i, Y_i) through a fixed per-vertex unit direction (X_i = s_i B_X q_i)
so the embedded sample process inherits the spin coefficient: the features
determine the spins, hence conditional laws are pushforwards under a fixed
injective map and total variation is preserved.

A site's conditional depends only on its neighbours (the nonzero entries of
its coupling row), so each IsingSpec builds, on first use, one table per
site holding P(s_i = +1 | neighbour pattern) for all 2^degree patterns, with
the floats a single-chain update evaluates. The Glauber sweep and the
influence matrix read the same tables: C_ij is the largest change of i's
entry as neighbour j flips. The coupling and field are read-only copies, so
a table can never go stale. Vertex replacement evaluates the same logistic
expression the tables are built from.

One chain runs a Python kernel generated per neighbour structure
(``glauber_kernel``) that reads small-int ranks instead of floats: each
table entry is replaced by its position p among the sorted distinct entries
of all tables, one searchsorted turns a block of uniforms u into ranks
r = #{entries <= u}, and u < entry exactly when r <= p. Many chains advance
together in numpy on the same tables, one site at a time. A spec with a site
of degree above ENUMERATION_LIMIT has no tables, and runs any number of
chains from the local field.

Perturbed sets Z^Lambda replace the samples indexed by Lambda and keep every
other coordinate bit-identical, which realizes the single-vertex sets Z^i
used by the stability definitions. Both samplers' ``replace`` methods check
the mode and Lambda and build Z^Lambda through the same two helpers; they
differ only in how the replacement rows are drawn.

``check_range`` is the package's one scalar range rule (finite and > 0, or
finite and >= 0), written so that NaN fails it; it lives here because every
numeric layer already imports this module.
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


def rows_in_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """(count, dim) rows uniform in the centred ball of the given radius.

    One rng.normal call for the directions, then one rng.random call for the
    radii; each normal row is normalised and scaled by radius * u**(1/dim).
    """
    rows = rng.normal(size=(count, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= radius * rng.random((count, 1)) ** (1.0 / dim)
    return rows


def check_range(name: str, value, strict: bool) -> None:
    """Raise ValueError, naming the parameter, unless value is finite and
    > 0 (strict) or >= 0."""
    # NaN fails every comparison, so the check is written to fail on it
    if not (np.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, "
                         f"got {value!r}")


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

    def __post_init__(self):
        if not self.dim >= 1:  # NaN fails it too
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        check_range("b_x", self.b_x, strict=True)
        check_range("b_y", self.b_y, strict=True)
        check_range("label_noise", self.label_noise, strict=False)

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
        x, y = self._draw_rows(rng, self.rf.n)
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
        if not np.array_equal(j, j.T):
            raise ValueError("coupling must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValueError("coupling diagonal must be zero")
        if self.label_rule not in ("field-mean", "self"):
            raise ValueError(f"unknown label rule {self.label_rule!r}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        check_range("b_x", self.b_x, strict=True)
        check_range("b_y", self.b_y, strict=True)
        object.__setattr__(self, "coupling", j)
        object.__setattr__(self, "external_field", h)

    @property
    def n(self) -> int:
        return self.rf.n

    @functools.cached_property
    def _neighbours(self) -> list:
        """Per site, the indices k with J_sk != 0: the spins its conditional reads."""
        return [np.flatnonzero(row) for row in self.coupling]

    @functools.cached_property
    def _max_degree(self) -> int:
        return max(len(nb) for nb in self._neighbours)

    @functools.cached_property
    def _tables(self) -> list:
        """Per site, P(s = +1 | neighbour pattern) for all 2^degree patterns."""
        for s, nb in enumerate(self._neighbours):
            if len(nb) > ENUMERATION_LIMIT:
                raise CapacityError(
                    f"conditional tables support degree <= {ENUMERATION_LIMIT}, but site {s} "
                    f"has degree {len(nb)}; use dobrushin_upper_bound")
        return [_site_table(self, s, nb) for s, nb in enumerate(self._neighbours)]

    @functools.cached_property
    def _ranks(self) -> tuple:
        """(values, positions) read by the one-chain kernel.

        values is the sorted array of the distinct entries of all conditional
        tables; positions holds, per site, the position in values of each
        table entry as nested tuples indexed by the neighbour bits, first
        neighbour outermost (a bare int for a site with no neighbour).
        """
        tables = [t.tolist() for t in self._tables]
        values = sorted(set().union(*tables))
        where = {v: k for k, v in enumerate(values)}
        positions = []
        for table in tables:
            nested = [where[v] for v in table]
            while len(nested) > 1:
                nested = [tuple(nested[k:k + 2]) for k in range(0, len(nested), 2)]
            positions.append(nested[0])
        return np.array(values), positions

    @functools.cached_property
    def _one_chain_kernel(self):
        """The spec's generated one-chain kernel (see ``glauber_kernel``)."""
        from .glauber_kernel import one_chain_kernel  # first use only; see its docstring

        return one_chain_kernel([tuple(nb.tolist()) for nb in self._neighbours],
                                self._ranks[1])

    @functools.cached_property
    def influence(self) -> np.ndarray:
        """Exact Dobrushin influence matrix C (n, n), read off the conditional tables.

        C_ij is the largest |P(s_i = +1 | s_j = +1) - P(s_i = +1 | s_j = -1)|
        over the patterns of i's other neighbours, the largest step of i's
        table along j's axis; 0 when J_ij = 0. Read-only, computed once.
        """
        c = np.zeros((self.n, self.n))
        for i, (nb, table) in enumerate(zip(self._neighbours, self._tables)):
            grid = table.reshape((2,) * len(nb))
            for m, j in enumerate(nb.tolist()):
                c[i, j] = np.abs(np.diff(grid, axis=m)).max()
        c.setflags(write=False)
        return c

    def features_from_spins(self, spins: np.ndarray) -> np.ndarray:
        """Map spin configurations (..., n) to features (..., n, feature_dim):
        X_i = s_i B_X q_i, q_i the identity column i mod feature_dim."""
        q = np.zeros((self.n, self.feature_dim))
        q[np.arange(self.n), np.arange(self.n) % self.feature_dim] = 1.0
        return np.asarray(spins, dtype=float)[..., :, None] * (self.b_x * q)

    def labels_from_spins(self, spins: np.ndarray) -> np.ndarray:
        spins = np.asarray(spins, dtype=float)
        if self.label_rule == "self":
            return np.clip(spins, -self.b_y, self.b_y)
        # one mean per field-size group; spins are +-1, so every sum is exact
        out = np.empty_like(spins)
        for vertices, members in self.rf.size_groups:
            out[..., vertices] = np.clip(spins[..., members].mean(axis=-1), -self.b_y, self.b_y)
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


def _p_up(spec: IsingSpec, spins: np.ndarray, site: int) -> np.ndarray:
    """P(s_site = +1 | rest) = sigmoid(2(J_site.s + h_site)) for spins of shape (..., n).

    A field past float range is a signed infinity, whose sigmoid is exactly 0
    or 1, so its overflow is silenced.
    """
    with np.errstate(over="ignore"):
        return _sigmoid(2.0 * (spins @ spec.coupling[site] + spec.external_field[site]))


def _site_table(spec: IsingSpec, site: int, neighbours: np.ndarray) -> np.ndarray:
    """P(s_site = +1 | neighbour pattern) for every pattern.

    Pattern k sets neighbours[m] to bit (d - 1 - m) of k (first neighbour most
    significant), so the rows follow enumerate_spin_configs(d). Each local
    field is the dot of one full-width spin row with the coupling row, as a
    one-chain update evaluates it; the logistic then runs once over the table.
    As in _p_up, a field past float range saturates the entry at 0 or 1.
    """
    row = np.ones(spec.n, dtype=np.int8)  # other sites have zero coupling
    coupling = spec.coupling[site]
    local = np.empty(2 ** len(neighbours))
    with np.errstate(over="ignore"):
        for k, pattern in enumerate(enumerate_spin_configs(len(neighbours))):
            row[neighbours] = pattern
            local[k] = row @ coupling
        return _sigmoid(2.0 * (local + spec.external_field[site]))


def _glauber_direct(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """All chains at once from the local field, one rng.random(n * n_chains) per
    sweep: the path of a spec past ENUMERATION_LIMIT, which has no tables."""
    n, n_chains = spec.n, spins.shape[0]
    for _ in range(sweeps):
        u = rng.random(n * n_chains).reshape(n, n_chains)
        for site in range(n):
            spins[:, site] = np.where(u[site] < _p_up(spec, spins, site), 1, -1)
    return spins.astype(int)


# Most uniforms one rng.random call of the one-chain kernel draws, ranked by
# one searchsorted call and unpacked sweep by sweep into the kernel's locals;
# a block always holds at least one sweep. The cap keeps memory flat in the
# sweep count.
ONE_CHAIN_BLOCK = 4096


def _glauber_one_chain(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """One chain through the spec's generated kernel, on ranks of the uniforms.

    The uniforms of a block of sweeps come from one rng.random call, read
    sweep after sweep in site order. One searchsorted gives each uniform u
    its rank r = #{v <= u} among the distinct table values, and u < values[p]
    exactly when r <= p, so the kernel makes the float comparisons.
    """
    n = spec.n
    values = spec._ranks[0]
    kernel = spec._one_chain_kernel
    state = (spins > 0).astype(int).tolist()
    per_block = max(1, ONE_CHAIN_BLOCK // n)
    for done in range(0, sweeps, per_block):
        block = min(per_block, sweeps - done)
        ranks = values.searchsorted(rng.random(n * block), side="right")
        state = kernel(state, ranks.reshape(block, n).tolist())
    return np.array([state], dtype=int) * 2 - 1


def _glauber_chains(spec: IsingSpec, spins: np.ndarray, sweeps: int, rng) -> np.ndarray:
    """All chains at once: site state is a (n, n_chains) array of 0/1 bytes.

    A site's pattern index is built in the smallest unsigned type that holds
    2^max_degree - 1 (uint8 up to degree 8, uint16 up to ENUMERATION_LIMIT)
    from its neighbours' rows, then copied into one intp buffer that gathers
    the table entries: a narrow fancy index would be cast to intp on every
    gather.
    """
    n, n_chains = spec.n, spins.shape[0]
    neighbours, tables = spec._neighbours, spec._tables
    up = np.ascontiguousarray((spins > 0).T, dtype=np.uint8)
    plan = [(up[s], tables[s], [up[k] for k in neighbours[s].tolist()]) for s in range(n)]
    index = np.empty(n_chains, dtype=np.min_scalar_type((1 << spec._max_degree) - 1))
    gather = np.empty(n_chains, dtype=np.intp)
    for _ in range(sweeps):
        u = rng.random(n * n_chains).reshape(n, n_chains)
        for s, (row, table, nbr_rows) in enumerate(plan):
            if nbr_rows:
                np.copyto(index, nbr_rows[0])
                for nbr in nbr_rows[1:]:
                    index += index
                    index += nbr
                np.copyto(gather, index)
            else:
                gather.fill(0)
            np.less(u[s], table[gather], out=row)
    return np.where(up.T, 1, -1).astype(int, order="C")


def glauber_spins(
    spec: IsingSpec, sweeps: int, rng: np.random.Generator, n_chains: int = 1
) -> np.ndarray:
    """Run independent single-site Glauber chains; returns (n_chains, n) spins.

    One sweep visits every site once in index order; each visit resamples the
    spin from its exact conditional P(s_i = +1 | rest) = sigmoid(2(J_i.s + h_i)),
    read from the spec's per-site table or computed from the local field.

    The random stream is one rng.choice for the initial spins, then the
    sweeps * n * n_chains uniforms, read as (sweep, site, chain). The
    one-chain kernel draws them a block of sweeps at a time (at most
    ONE_CHAIN_BLOCK doubles per rng.random call, at least one sweep); every
    other path draws one rng.random(n * n_chains) per sweep. A Generator fills an array from the
    same sequence of doubles however it is split into calls, so all of
    these equal n per-site rng.random(n_chains) calls: the spins, and the
    Generator state left behind, are bit-identical to the per-site
    local-field loop.

    One rule picks the path. A spec with a degree above ENUMERATION_LIMIT
    has no tables, so its chains, however many, advance from the local
    field. Otherwise one chain runs the spec's generated kernel over ranks
    (see the module docstring), and more chains advance together with
    numpy, one site at a time, on the tables.
    """
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_chains, spec.n))
    if spec._max_degree > ENUMERATION_LIMIT:
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
    influence matrix (``IsingSpec.influence``), read off the per-site
    conditional tables: exact at any N, and a CapacityError for a site of
    degree above ENUMERATION_LIMIT.

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
