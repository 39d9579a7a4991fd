import numpy as np
import pytest

from grlstab import graphs


def test_single_edge_adjacency():
    g = graphs.build_graph(3, [(0, 1)])
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 1] = expected[1, 0] = True
    assert np.array_equal(g.adjacency, expected)
    assert g.edges == frozenset({(0, 1)})


def test_empty_graph():
    g = graphs.build_graph(2, [])
    assert not g.adjacency.any()


def test_duplicate_and_reversed_edges_dedup():
    g = graphs.build_graph(4, [(0, 1), (1, 0), (2, 3)])
    assert len(g.edges) == 2


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
        assert (rf.d_bar == pytest.approx(1.0)) == (len(g.edges) == 0)


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
    assert g2.edges == g.edges


def test_edge_list_blank_lines_ignored():
    assert graphs.parse_edge_list("0 1\n\n2 3\n") == [(0, 1), (2, 3)]
    with pytest.raises(graphs.GraphError):
        graphs.parse_edge_list("0 1 2\n")


def test_mask_from_fields_symmetric_with_diagonal():
    rf = graphs.one_hop_receptive_fields(graphs.cycle_graph(6))
    mask = graphs.mask_from_fields(rf)
    assert np.array_equal(mask, mask.T)
    assert mask.diagonal().all()
