import numpy as np
import pytest

from grlstab import bounds, graphs, sampling


def ring_spec(n, coupling, field=0.0, rule="field-mean", b_x=1.0, b_y=1.0):
    g = graphs.cycle_graph(n) if n >= 3 else graphs.build_graph(n, [(0, 1)] if n == 2 else [])
    rf = graphs.one_hop_receptive_fields(g)
    j = coupling * g.adjacency.astype(float)
    return sampling.IsingSpec(coupling=j, external_field=np.full(n, field), rf=rf,
                              b_x=b_x, b_y=b_y, label_rule=rule)


def iid_sampler(n=4, dim=3, **kw):
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(max(n, 3)))
    return sampling.IidSampler(rf=rf, dim=dim, **kw)


# ---------------------------------------------------------------------------
# i.i.d. sampler


def test_iid_same_seed_identical():
    s = iid_sampler()
    z1, z2 = s.sample(42), s.sample(42)
    assert np.array_equal(z1.features, z2.features)
    assert np.array_equal(z1.labels, z2.labels)


def test_iid_single_vertex():
    rf = graphs.receptive_fields_from_map(1, [(0,)])
    z = sampling.IidSampler(rf=rf, dim=2).sample(0)
    assert z.n == 1 and z.dim == 2


def test_iid_bounds_hold():
    s = iid_sampler(dim=4)
    z = s.sample(3)
    assert np.all(np.linalg.norm(z.features, axis=1) <= s.b_x + 1e-12)
    assert np.all(np.abs(z.labels) <= s.b_y + 1e-12)


def pairwise_influence_proxy(signs: np.ndarray, i: int, j: int):
    """TV between P(sign_i = +1 | sign_j = +1) and (... | sign_j = -1).

    ``signs`` is a (draws, n) matrix of +-1 statistics (spins, or feature
    signs for continuous samplers). Returns (tv_estimate, standard_error);
    the SE is the binomial SE of the difference of the two conditional
    frequencies. A product measure has influence zero for every pair.
    """
    signs = np.asarray(signs)
    up = signs[:, j] > 0
    down = ~up
    n_up, n_down = int(up.sum()), int(down.sum())
    if n_up == 0 or n_down == 0:
        raise ValueError("conditioning value never observed; need more draws")
    p = float(np.mean(signs[up, i] > 0))
    q = float(np.mean(signs[down, i] > 0))
    se = float(np.sqrt(p * (1 - p) / n_up + q * (1 - q) / n_down))
    return abs(p - q), se


def test_iid_empirical_influence_zero():
    # pairwise influence of the product measure vanishes within 3 SE
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(4))
    s = sampling.IidSampler(rf=rf, dim=3)
    from grlstab.seeding import child_rng

    rng = child_rng(9, "iid-influence")
    half = s.b_x / np.sqrt(s.dim)
    x = rng.uniform(-half, half, size=(100_000, 4, s.dim))
    signs = np.where(x[:, :, 0] > 0, 1, -1)
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            tv, se = pairwise_influence_proxy(signs, i, j)
            assert tv <= 3 * se


def test_sample_diameter_invariant():
    s = iid_sampler(dim=3)
    z = s.sample(11)
    b_z = sampling.sample_space_diameter(s.b_x, s.b_y)
    stacked = np.concatenate([z.features, z.labels[:, None]], axis=1)
    for i in range(z.n):
        for j in range(z.n):
            assert np.linalg.norm(stacked[i] - stacked[j]) <= b_z + 1e-12


# ---------------------------------------------------------------------------
# Glauber / Gibbs


def test_glauber_determinism():
    spec = ring_spec(5, 0.3)
    s = sampling.IsingSampler(spec=spec, sweeps=50)
    z1, z2 = s.sample(5), s.sample(5)
    assert np.array_equal(z1.spins, z2.spins)
    assert np.array_equal(z1.features, z2.features)


def test_glauber_zero_coupling_magnetization():
    # J = 0: product measure with E[s_i] = tanh(h_i)
    n = 5
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(n))
    h = np.array([0.0, 0.3, -0.5, 1.0, 0.2])
    spec = sampling.IsingSpec(coupling=np.zeros((n, n)), external_field=h, rf=rf)
    sampler = sampling.IsingSampler(spec=spec, sweeps=30)
    spins = sampler.sample_spins_batch(40_000, seed=1)
    emp = spins.mean(axis=0)
    se = spins.std(axis=0) / np.sqrt(spins.shape[0])
    assert np.all(np.abs(emp - np.tanh(h)) <= 3 * se + 1e-3)


def test_glauber_two_spin_agreement_probability():
    # N=2, J=0.5, h=0: P(s1 = s2) = e^J / (e^J + e^-J)
    spec = ring_spec(2, 0.5)
    sampler = sampling.IsingSampler(spec=spec, sweeps=40)
    spins = sampler.sample_spins_batch(60_000, seed=2)
    emp = float(np.mean(spins[:, 0] == spins[:, 1]))
    expected = np.exp(0.5) / (np.exp(0.5) + np.exp(-0.5))
    se = np.sqrt(expected * (1 - expected) / spins.shape[0])
    assert abs(emp - expected) <= 4 * se


def reference_glauber_spins(spec, sweeps, rng, n_chains=1):
    """The direct per-site kernel: local field, logistic, one draw per site."""
    n = spec.n
    spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_chains, n))
    j = spec.coupling
    h = spec.external_field
    for _ in range(sweeps):
        for site in range(n):
            local = spins @ j[site] + h[site]
            p_up = sampling._sigmoid(2.0 * local)
            spins[:, site] = np.where(rng.random(n_chains) < p_up, 1, -1).astype(np.int8)
    return spins.astype(int)


def reference_p_up(spec, spins, site):
    local = float(spins @ spec.coupling[site] + spec.external_field[site])
    return float(sampling._sigmoid(np.array([2.0 * local]))[0])


def general_spec(g, seed):
    """Non-uniform symmetric couplings on g's edges and a non-uniform field."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.normal(scale=0.3, size=(g.n, g.n)), 1)
    return sampling.IsingSpec(coupling=(w + w.T) * g.adjacency,
                              external_field=rng.normal(scale=0.4, size=g.n),
                              rf=graphs.one_hop_receptive_fields(g))


KERNEL_SPECS = {
    "cycle": lambda: ring_spec(7, 0.3, field=0.1),
    "star": lambda: general_spec(graphs.star_graph(6), 1),
    "complete-11": lambda: general_spec(graphs.complete_graph(11), 2),
    "erdos-renyi": lambda: general_spec(graphs.erdos_renyi_graph(10, 0.4, 5), 3),
    # vertex 4 has no neighbour: a one-entry table read at pattern 0
    "isolated-vertex": lambda: general_spec(graphs.build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 5)]), 4),
}


def assert_matches_reference(spec, sweeps, n_chains):
    """Same spins as the per-site reference kernel, and the Generator left in the same state."""
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    expected = reference_glauber_spins(spec, sweeps, ref_rng, n_chains)
    got = sampling.glauber_spins(spec, sweeps, rng, n_chains)
    assert got.dtype == expected.dtype and got.flags.c_contiguous
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def sweeps_per_block(spec):
    """Sweeps whose uniforms the one-chain kernel draws in one rng.random call."""
    return max(1, sampling.ONE_CHAIN_BLOCK // spec.n)


@pytest.mark.parametrize("n_chains", [1, 64])
@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_glauber_matches_reference_kernel(name, n_chains):
    assert_matches_reference(KERNEL_SPECS[name](), 40, n_chains)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_one_chain_matches_reference_across_block_boundaries(name):
    spec = KERNEL_SPECS[name]()
    k = sweeps_per_block(spec)
    for sweeps in (0, 1, k - 1, k, k + 1, 2 * k + 3):
        assert_matches_reference(spec, sweeps, 1)


def test_sampler_draws_match_reference_across_a_block_boundary():
    from grlstab.seeding import child_rng

    spec = KERNEL_SPECS["erdos-renyi"]()
    sweeps = sweeps_per_block(spec) + 1
    s = sampling.IsingSampler(spec=spec, sweeps=sweeps)
    z = s.sample(6)
    expected = spec.sample_set_from_spins(
        reference_glauber_spins(spec, sweeps, child_rng(6, "glauber"))[0], 6)
    for name in ("spins", "features", "labels"):
        assert np.array_equal(getattr(z, name), getattr(expected, name))
    lam = [1, 5, 8]
    fresh = reference_glauber_spins(spec, sweeps, child_rng(9, "ising-replace", "fresh-marginal"))[0]
    spins = z.spins.copy()
    spins[lam] = fresh[lam]
    replaced = spec.sample_set_from_spins(spins, 6)
    features, labels = z.features.copy(), z.labels.copy()
    features[lam], labels[lam] = replaced.features[lam], replaced.labels[lam]
    got = s.replace(z, lam, seed=9, mode="fresh-marginal")
    assert np.array_equal(got.spins, spins)
    assert np.array_equal(got.features, features)
    assert np.array_equal(got.labels, labels)


def test_complete_graph_exceeds_table_limit():
    spec = KERNEL_SPECS["complete-11"]()
    assert spec.n - 1 > sampling.TABLE_DEGREE_LIMIT
    assert spec._conditionals is None


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_conditional_table_matches_reference_expression(name):
    spec = KERNEL_SPECS[name]()
    rng = np.random.default_rng(4)
    for _ in range(40):
        spins = rng.choice([-1, 1], size=spec.n)
        for site in range(spec.n):
            expected = reference_p_up(spec, spins, site)
            assert sampling._p_up(spec, spins[None, :], site)[0] == expected
            if spec._conditionals is not None:
                neighbours, tables = spec._conditionals
                index = 0
                for k in neighbours[site]:
                    index = 2 * index + int(spins[k] > 0)
                assert tables[site][index] == expected


def test_replace_conditional_matches_reference_draws():
    from grlstab.seeding import child_rng

    spec = KERNEL_SPECS["erdos-renyi"]()
    s = sampling.IsingSampler(spec=spec, sweeps=20)
    z = s.sample(3)
    lam = [0, 4, 7]
    for seed in range(20):
        rng = child_rng(seed, "ising-replace", "fresh-conditional")
        spins = z.spins.copy()
        for site in lam:
            spins[site] = 1 if rng.random() < reference_p_up(spec, spins, site) else -1
        assert np.array_equal(s.replace(z, lam, seed=seed, mode="fresh-conditional").spins, spins)


def test_spec_arrays_are_read_only_copies():
    g = graphs.cycle_graph(5)
    rf = graphs.one_hop_receptive_fields(g)
    j = 0.3 * g.adjacency.astype(float)
    h = np.full(5, 0.1)
    spec = sampling.IsingSpec(coupling=j, external_field=h, rf=rf)
    untouched = sampling.IsingSpec(coupling=j.copy(), external_field=h.copy(), rf=rf)
    with pytest.raises(ValueError):
        spec.coupling[0, 1] = 1.0
    with pytest.raises(ValueError):
        spec.external_field[0] = 1.0
    j[:] = 0.0
    h[:] = 5.0
    for n_chains in (1, 16):
        got = sampling.glauber_spins(spec, 20, np.random.default_rng(8), n_chains)
        expected = sampling.glauber_spins(untouched, 20, np.random.default_rng(8), n_chains)
        assert np.array_equal(got, expected)


def test_nonfinite_coupling_rejected():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(3))
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 0] = np.inf
    with pytest.raises(ValueError):
        sampling.IsingSpec(coupling=j, external_field=np.zeros(3), rf=rf)


# ---------------------------------------------------------------------------
# Exact Dobrushin coefficient


def test_dobrushin_zero_for_product_measure():
    spec = ring_spec(4, 0.0)
    assert sampling.dobrushin_exact(spec) == 0.0


def test_dobrushin_two_spin_closed_form():
    spec = ring_spec(2, 0.5)
    assert sampling.dobrushin_exact(spec) == pytest.approx(np.tanh(0.5), abs=1e-12)


def test_dobrushin_monotone_in_coupling():
    values = [sampling.dobrushin_exact(ring_spec(2, j)) for j in np.arange(0.1, 1.05, 0.1)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_dobrushin_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    n = 5
    g = graphs.erdos_renyi_graph(n, 0.5, 17)
    rf = graphs.one_hop_receptive_fields(g)
    j = 0.3 * g.adjacency.astype(float)
    h = rng.normal(size=n) * 0.2
    spec = sampling.IsingSpec(coupling=j, external_field=h, rf=rf)
    perm = rng.permutation(n)
    adj_p = g.adjacency[np.ix_(perm, perm)]
    edges_p = [(i, k) for i in range(n) for k in range(i + 1, n) if adj_p[i, k]]
    rf_p = graphs.one_hop_receptive_fields(graphs.build_graph(n, edges_p))
    spec_p = sampling.IsingSpec(coupling=j[np.ix_(perm, perm)],
                                external_field=h[perm], rf=rf_p)
    assert sampling.dobrushin_exact(spec) == pytest.approx(
        sampling.dobrushin_exact(spec_p), abs=1e-12
    )


def test_dobrushin_capacity_error():
    n = 13
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(n))
    spec = sampling.IsingSpec(coupling=np.zeros((n, n)), external_field=np.zeros(n), rf=rf)
    with pytest.raises(sampling.CapacityError, match="dobrushin_upper_bound"):
        sampling.dobrushin_exact(spec)


def complete_spec(n, coupling, field=0.0):
    g = graphs.complete_graph(n)
    return sampling.IsingSpec(coupling=coupling * g.adjacency.astype(float),
                              external_field=np.full(n, field),
                              rf=graphs.one_hop_receptive_fields(g))


def exact_upper_tail(spec, t):
    """P(#up - E #up >= t) under the exact Gibbs measure."""
    ups = (sampling.enumerate_spin_configs(spec.n) > 0).sum(axis=1)
    probs = sampling.gibbs_probabilities(spec)
    return float(probs[ups - probs @ ups >= t].sum())


def test_dobrushin_exact_is_max_row_sum_of_influence_matrix():
    rng = np.random.default_rng(5)
    g = graphs.erdos_renyi_graph(6, 0.6, 23)
    j = g.adjacency * rng.uniform(-0.4, 0.4, size=(6, 6))
    spec = sampling.IsingSpec(coupling=np.triu(j) + np.triu(j, 1).T,
                              external_field=rng.normal(size=6) * 0.2,
                              rf=graphs.one_hop_receptive_fields(g))
    c = spec.influence
    assert c.shape == (6, 6) and not c.flags.writeable
    assert np.all(np.diag(c) == 0.0)
    assert np.all(c[g.adjacency == 0] == 0.0)
    assert sampling.dobrushin_exact(spec) == float(c.sum(axis=1).max())
    assert c.max() <= sampling.dobrushin_exact(spec)


def test_dobrushin_row_sum_closes_complete_graph_counterexample():
    # K12, J = 0.2: the largest pairwise influence (0.197) understates the
    # row sum (2.17); a tail bound built on it is violated, so the row-sum
    # coefficient puts the spec outside the Dobrushin domain.
    spec = complete_spec(12, 0.2)
    alpha = sampling.dobrushin_exact(spec)
    pairwise = float(spec.influence.max())
    assert pairwise == pytest.approx(0.197, abs=5e-4)
    assert alpha == pytest.approx(2.171, abs=5e-4)
    assert exact_upper_tail(spec, 5.0) > bounds.concentration_tail(np.ones(12), pairwise, 5.0)
    with pytest.raises(bounds.BoundDomainError):
        bounds.concentration_tail(np.ones(12), alpha, 5.0)


def test_concentration_tail_holds_exactly_on_random_dobrushin_specs():
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(2, 11))
        g = graphs.erdos_renyi_graph(n, float(rng.uniform(0.2, 1.0)), int(rng.integers(1 << 30)))
        j = g.adjacency * rng.uniform(-0.6, 0.6, size=(n, n))
        spec = sampling.IsingSpec(coupling=np.triu(j) + np.triu(j, 1).T,
                                  external_field=rng.normal(size=n) * 0.3,
                                  rf=graphs.one_hop_receptive_fields(g))
        alpha = sampling.dobrushin_exact(spec)
        if alpha >= 1.0:
            continue
        checked += 1
        for t in np.arange(0.25, n / 2 + 0.25, 0.25):
            assert exact_upper_tail(spec, t) <= bounds.concentration_tail(np.ones(n), alpha, t)
    assert checked >= 40


def test_upper_bound_matches_exact_for_two_spins():
    spec = ring_spec(2, 0.5)
    assert sampling.dobrushin_upper_bound(spec) == pytest.approx(np.tanh(0.5))


def test_upper_bound_dominates_exact_on_random_specs():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        g = graphs.erdos_renyi_graph(n, 0.6, int(rng.integers(1_000_000))) if n >= 2 else None
        rf = graphs.one_hop_receptive_fields(g)
        j = g.adjacency.astype(float) * rng.uniform(-0.4, 0.4)
        spec = sampling.IsingSpec(coupling=j, external_field=rng.normal(size=n) * 0.3, rf=rf)
        assert sampling.dobrushin_upper_bound(spec) >= sampling.dobrushin_exact(spec) - 1e-12


# ---------------------------------------------------------------------------
# Replacement


def test_replace_empty_lambda_identity():
    s = iid_sampler()
    z = s.sample(1)
    z2 = s.replace(z, [], seed=2)
    assert np.array_equal(z.features, z2.features)
    assert np.array_equal(z.labels, z2.labels)
    assert z2.perturbed == frozenset()


def test_replace_single_vertex_iid():
    s = iid_sampler()
    z = s.sample(1)
    z2 = s.replace(z, [2], seed=2)
    assert z2.perturbed == frozenset({2})
    assert np.array_equal(z.differing_vertices(z2), [2])


def test_replace_changes_exactly_lambda():
    spec = ring_spec(6, 0.2)
    s = sampling.IsingSampler(spec=spec, sweeps=30)
    z = s.sample(4)
    lam = [1, 4]
    z2 = s.replace(z, lam, seed=9, mode="fresh-marginal")
    keep = [i for i in range(6) if i not in lam]
    assert np.array_equal(z.features[keep], z2.features[keep])
    assert np.array_equal(z.labels[keep], z2.labels[keep])
    assert z2.perturbed == frozenset(lam)


REPLACE_SAMPLERS = {
    "iid": lambda: iid_sampler(n=5),
    "ising": lambda: sampling.IsingSampler(spec=ring_spec(5, 0.2), sweeps=20),
}


@pytest.mark.parametrize("name", sorted(REPLACE_SAMPLERS))
def test_replace_validates_mode_and_lambda(name):
    s = REPLACE_SAMPLERS[name]()
    z = s.sample(3)
    with pytest.raises(ValueError, match="unknown replacement mode"):
        s.replace(z, [1], seed=4, mode="fresh")
    for bad in (-1, z.n):
        with pytest.raises(ValueError, match="out of range"):
            s.replace(z, [bad], seed=4)
    z2 = s.replace(z, [3, 1, 3, 1], seed=4)
    assert z2.perturbed == frozenset({1, 3})
    assert z2.seed == z.seed
    keep = [0, 2, 4]
    assert np.array_equal(z.features[keep], z2.features[keep])
    assert np.array_equal(z.labels[keep], z2.labels[keep])
    assert np.array_equal(z2.features, s.replace(z, [1, 3], seed=4).features)


def test_ising_replace_needs_spins():
    s = REPLACE_SAMPLERS["ising"]()
    z = s.sample(3)
    bare = sampling.SampleSet(features=z.features, labels=z.labels, seed=z.seed)
    with pytest.raises(ValueError, match="spins"):
        s.replace(bare, [1], seed=4)


def test_replace_conditional_matches_exact_two_spin_law():
    # conditional of spin 0 given spin 1: P(+1 | s1) = sigmoid(2 J s1)
    spec = ring_spec(2, 0.5, rule="self")
    s = sampling.IsingSampler(spec=spec, sweeps=30)
    base = spec.sample_set_from_spins(np.array([1, 1]), seed=0)
    hits = 0
    trials = 4000
    for k in range(trials):
        z2 = s.replace(base, [0], seed=k, mode="fresh-conditional")
        hits += int(z2.spins[0] == 1)
    expected = 1.0 / (1.0 + np.exp(-2 * 0.5))
    se = np.sqrt(expected * (1 - expected) / trials)
    assert abs(hits / trials - expected) <= 4 * se


def test_exhaustive_enumeration_shapes():
    cfgs = sampling.enumerate_spin_configs(3)
    assert cfgs.shape == (8, 3)
    assert len(np.unique(cfgs, axis=0)) == 8
    spec = ring_spec(3, 0.1)
    p = sampling.gibbs_probabilities(spec)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p > 0)
