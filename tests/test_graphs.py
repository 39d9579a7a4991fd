import re

import numpy as np
import pytest

from grlstab import graphs
from grlstab.seeding import child_rng


def edge_set(g):
    """The graph's edges as (i, j) pairs with i < j."""
    return {(i, j) for i, j in np.argwhere(np.triu(g.adjacency)).tolist()}


def test_single_edge_adjacency():
    g = graphs.build_graph(3, [(0, 1)])
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 1] = expected[1, 0] = True
    assert np.array_equal(g.adjacency, expected)
    assert edge_set(g) == {(0, 1)}


def test_empty_graph():
    g = graphs.build_graph(2, [])
    assert not g.adjacency.any()


def test_duplicate_and_reversed_edges_dedup():
    g = graphs.build_graph(4, [(0, 1), (1, 0), (2, 3), (0, 1)])
    assert edge_set(g) == {(0, 1), (2, 3)}


def test_rejects_self_loop_and_out_of_range():
    with pytest.raises(graphs.GraphError):
        graphs.build_graph(3, [(1, 1)])
    with pytest.raises(graphs.GraphError):
        graphs.build_graph(3, [(0, 3)])


def test_path_one_hop_fields():
    rf = graphs.one_hop_receptive_fields(graphs.path_graph(3))
    assert rf.xi[1] == (0, 1, 2)
    assert rf.sizes[1] == 3 and rf.d[1] == 1.0
    assert rf.xi[0] == (0, 1) and rf.d[0] == pytest.approx(2 / 3)


def test_isolated_vertices_reduce_to_singletons():
    rf = graphs.one_hop_receptive_fields(graphs.empty_graph(5))
    assert all(rf.xi[i] == (i,) for i in range(5))
    assert rf.d_bar == pytest.approx(1.0)
    assert np.allclose(rf.d, 0.2)


def test_complete_graph_full_fields():
    rf = graphs.one_hop_receptive_fields(graphs.complete_graph(4))
    assert np.allclose(rf.d, 1.0)
    assert rf.d_bar == pytest.approx(4.0)


def test_sparsity_stats_arithmetic():
    rf = graphs.receptive_fields_from_map(
        3, [(0, 1), (0, 1, 2), (1, 2)]
    )
    d, d_bar, sup_d = rf.d, rf.d_bar, rf.sup_d
    assert np.allclose(d, [2 / 3, 1.0, 2 / 3])
    assert d_bar == pytest.approx(7 / 3)
    assert sup_d == 1.0


def test_star_graph_sparsity():
    rf = graphs.one_hop_receptive_fields(graphs.star_graph(5))
    assert rf.d[0] == 1.0
    assert np.allclose(rf.d[1:], 2 / 5)
    assert rf.sup_d == 1.0


def test_explicit_map_validation():
    with pytest.raises(graphs.GraphError):
        graphs.receptive_fields_from_map(2, [(1,), (0, 1)])  # missing self
    with pytest.raises(graphs.GraphError):
        graphs.receptive_fields_from_map(2, [(0, 1), (1,)])  # asymmetric


def test_one_hop_properties_on_random_graphs():
    for seed in range(10):
        g = graphs.erdos_renyi_graph(12, 0.3, seed)
        rf = graphs.one_hop_receptive_fields(g)
        for i in range(12):
            assert i in rf.xi[i]
            for j in rf.xi[i]:
                assert i in rf.xi[j]
        assert (rf.d_bar == pytest.approx(1.0)) == (not g.adjacency.any())


def test_sup_d_monotone_under_edge_addition():
    rng = np.random.default_rng(0)
    edges = []
    prev = 0.0
    candidates = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    rng.shuffle(candidates)
    for e in candidates[:12]:
        edges.append(tuple(int(v) for v in e))
        rf = graphs.one_hop_receptive_fields(graphs.build_graph(8, edges))
        assert rf.sup_d >= prev
        prev = rf.sup_d


def test_edge_list_round_trip(tmp_path):
    g = graphs.cycle_graph(5)
    path = tmp_path / "edges.txt"
    path.write_text("# cycle-5\n0 1\n1 2\n\n2 3\n3 4\n0 4\n")
    g2 = graphs.read_edge_list(path, 5)
    assert np.array_equal(g2.adjacency, g.adjacency)


def test_edge_list_blank_lines_ignored():
    assert graphs.parse_edge_list("0 1\n\n2 3\n") == [(0, 1), (2, 3)]
    with pytest.raises(graphs.GraphError):
        graphs.parse_edge_list("0 1 2\n")


@pytest.mark.parametrize("text", ["0 1\n1 x\n", "0 1\n1 2.5\n", "0 1\n\n# c\n 1 0x2\n"],
                         ids=["letter", "decimal", "hex-after-comment"])
def test_edge_list_non_integer_token_names_its_line(text):
    lineno = len(text.splitlines())
    with pytest.raises(graphs.GraphError, match=f"^line {lineno}: expected 'i j'"):
        graphs.parse_edge_list(text)


def test_field_mask_symmetric_with_diagonal():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    assert np.array_equal(rf.mask, rf.mask.T)
    assert rf.mask.diagonal().all()
    assert not rf.mask.flags.writeable
    with pytest.raises(ValueError):
        rf.mask[0, 3] = True


def membership_loop(rf):
    """The field mask built row by row from the member tuples: [i, j] iff j in Xi(i)."""
    mask = np.zeros((rf.n, rf.n), dtype=bool)
    for i in range(rf.n):
        mask[i, list(rf.xi[i])] = True
    return mask


def explicit_fields(rng, n):
    """A symmetric map with self-inclusion, given unsorted and with repeats."""
    pairs = np.triu(rng.random((n, n)) < 0.3, k=1)
    member = pairs | pairs.T | np.eye(n, dtype=bool)
    return [rng.permutation(np.concatenate([row, row[:1]])).tolist()
            for row in (np.flatnonzero(r) for r in member)]


def test_field_mask_and_outside_match_the_membership_loop():
    rng = child_rng(3, "field-mask")
    for trial in range(60):
        n = int(rng.integers(1, 24))
        if trial % 2:
            rf = graphs.receptive_fields_from_map(n, explicit_fields(rng, n))
        else:
            g = graphs.erdos_renyi_graph(n, float(rng.random()), int(rng.integers(1 << 30)))
            rf = graphs.one_hop_receptive_fields(g)
        expected = membership_loop(rf)
        assert rf.mask.dtype == bool and np.array_equal(rf.mask, expected)
        for i in range(n):
            inside = np.zeros(n, dtype=bool)
            inside[list(rf.xi[i])] = True
            outside = rf.outside(i)
            assert np.array_equal(outside, np.nonzero(~inside)[0])
            assert outside.dtype == np.nonzero(~inside)[0].dtype


def reference_field_error(n, xi):
    """The tuple-scan validation: the message of the first failing check, or None."""
    xi = [tuple(sorted({int(j) for j in members})) for members in xi]
    for i, members in enumerate(xi):
        if any(j < 0 or j >= n for j in members):
            return f"field of vertex {i} has out-of-range members"
        if i not in members:
            return f"vertex {i} missing from its own receptive field"
        for j in members:
            if i not in xi[j]:
                return f"field symmetry violated for pair ({i}, {j})"
    return None


def corrupted_fields(rng, n):
    """One-hop fields of a random graph with a few members dropped or added,
    some of them out of range, so every check and their order are exercised."""
    g = graphs.erdos_renyi_graph(n, 0.4, int(rng.integers(1 << 30)))
    xi = [set(m) for m in graphs.one_hop_receptive_fields(g).xi]
    for _ in range(int(rng.integers(0, 4))):
        i = int(rng.integers(n))
        kind = int(rng.integers(3))
        if kind == 0 and xi[i]:
            xi[i].discard(int(rng.choice(sorted(xi[i]))))
        elif kind == 1:
            xi[i].add(int(rng.integers(n)))
        else:
            xi[i].add(int(rng.choice([-2, -1, n, n + 3])))
    return [tuple(m) for m in xi]


def test_field_validation_reports_the_first_failure_of_the_tuple_scan():
    kinds = ("out-of-range", "missing", "symmetry")
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 9))
        xi = corrupted_fields(rng, n)
        expected = reference_field_error(n, xi)
        if expected is None:
            rf = graphs.receptive_fields_from_map(n, xi)
            assert rf.xi == tuple(tuple(sorted(m)) for m in xi)
            seen.add("valid")
        else:
            with pytest.raises(graphs.GraphError) as err:
                graphs.receptive_fields_from_map(n, xi)
            assert str(err.value) == expected
            seen.add(next(kind for kind in kinds if kind in expected))
    assert seen == {"valid", *kinds}


def test_field_validation_reads_in_range_members_of_a_field_with_out_of_range_ones():
    # vertex 1 names 0 as well as the out-of-range 5, so vertex 0 is symmetric
    # and the first failure is vertex 1's range
    with pytest.raises(graphs.GraphError, match="^field of vertex 1 has out-of-range members$"):
        graphs.receptive_fields_from_map(3, [(0, 1), (0, 1, 5), (2,)])
    # vertex 1 does not name 0: vertex 0's symmetry fails first
    with pytest.raises(graphs.GraphError, match="^field symmetry violated for pair \\(0, 1\\)$"):
        graphs.receptive_fields_from_map(3, [(0, 1), (1, 5), (2,)])


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_adjacency_matches_the_edge_set(p):
    g = graphs.erdos_renyi_graph(20, p, 4)
    iu, ju = np.triu_indices(20, k=1)
    keep = child_rng(4, "erdos-renyi").random(iu.size) < p
    expected = np.zeros((20, 20), dtype=bool)
    for i, j in zip(iu[keep].tolist(), ju[keep].tolist()):
        expected[i, j] = expected[j, i] = True
    assert np.array_equal(g.adjacency, expected)
    rf = graphs.one_hop_receptive_fields(g)
    assert rf.xi == tuple(tuple(sorted({i} | {j for j in range(20) if expected[i, j]})) for i in range(20))


def reference_build_graph(n, edges):
    """Per-pair validation and canonicalisation: the adjacency, or the first error message."""
    adjacency = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) out of range for n={n}"
        if i == j:
            return f"self loop at vertex {i} not allowed"
        adjacency[i, j] = adjacency[j, i] = True
    return adjacency


def test_build_graph_matches_a_per_pair_loop():
    rng = np.random.default_rng(12)
    errors = 0
    for trial in range(300):
        n = int(rng.integers(2, 9))
        edges = [tuple(int(v) for v in rng.integers(0, n, size=2))
                 for _ in range(int(rng.integers(0, 12)))]
        if rng.random() < 0.3:  # an out-of-range pair somewhere in the list
            edges.insert(int(rng.integers(len(edges) + 1)), (int(rng.integers(n)), n))
        expected = reference_build_graph(n, edges)
        if isinstance(expected, str):
            errors += 1
            with pytest.raises(graphs.GraphError, match=f"^{re.escape(expected)}$"):
                graphs.build_graph(n, edges)
        else:
            assert np.array_equal(graphs.build_graph(n, edges).adjacency, expected)
    assert 30 <= errors <= 270


def test_build_graph_reports_the_first_bad_pair_range_before_self_loop():
    with pytest.raises(graphs.GraphError, match="^self loop at vertex 2 not allowed$"):
        graphs.build_graph(4, [(0, 1), (2, 2), (0, 9)])
    with pytest.raises(graphs.GraphError, match="^edge \\(0, 9\\) out of range for n=4$"):
        graphs.build_graph(4, [(0, 1), (0, 9), (2, 2)])
    with pytest.raises(graphs.GraphError, match="^edge \\(4, 4\\) out of range for n=4$"):
        graphs.build_graph(4, [(4, 4)])
