"""Tests for graph containers, neighbor search, and mesh connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph, bidirectional, delaunay_edges, grid_mesh_edges, radius_graph,
    radius_graph_brute, radius_graph_celllist, radius_graph_kdtree,
    triangles_to_edges,
)


class TestGraphContainer:
    def test_basic_counts(self):
        g = Graph(np.zeros((4, 2)), np.zeros((3, 1)), [0, 1, 2], [1, 2, 3])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_validate_rejects_bad_index(self):
        g = Graph(np.zeros((2, 1)), np.zeros((1, 1)), [0], [5])
        with pytest.raises(ValueError):
            g.validate()

    def test_replace(self):
        g = Graph(np.zeros((2, 1)), np.zeros((1, 1)), [0], [1])
        g2 = g.replace(node_features=np.ones((2, 1)))
        assert g2.node_features[0, 0] == 1.0
        assert g.node_features[0, 0] == 0.0

    def test_segments_built_once_over_the_edge_list(self):
        g = Graph(np.zeros((4, 2)), np.zeros((3, 1)), [2, 0, 2], [1, 3, 1])
        send, recv = g.segments()
        assert np.array_equal(send.index, g.senders)
        assert np.array_equal(recv.index, g.receivers)
        assert send.num_segments == recv.num_segments == 4
        assert g.segments() == (send, recv)

    def test_mismatched_connectivity_raises(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 1)), np.zeros((2, 1)), [0, 1], [1])

    def test_to_networkx(self):
        g = Graph(np.zeros((3, 1)), np.zeros((2, 1)), [0, 1], [1, 2])
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 2


class TestRadiusGraph:
    def test_simple_pair(self):
        pos = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        s, r = radius_graph(pos, radius=1.0)
        pairs = set(zip(s.tolist(), r.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_include_self(self):
        pos = np.array([[0.0, 0.0], [5.0, 5.0]])
        s, r = radius_graph(pos, radius=1.0, include_self=True)
        pairs = set(zip(s.tolist(), r.tolist()))
        assert pairs == {(0, 0), (1, 1)}

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(size=(40, 2))
        s, r = radius_graph(pos, radius=0.25)
        pairs = set(zip(s.tolist(), r.tolist()))
        assert all((b, a) in pairs for a, b in pairs)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            radius_graph(np.zeros((2, 2)), 1.0, method="nope")

    @pytest.mark.parametrize("method", ["kdtree", "celllist"])
    def test_matches_brute_force_2d(self, method):
        rng = np.random.default_rng(42)
        pos = rng.uniform(size=(60, 2))
        s0, r0 = radius_graph(pos, 0.3, method="brute")
        s1, r1 = radius_graph(pos, 0.3, method=method)
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(r0, r1)

    def test_celllist_matches_brute_3d(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(size=(50, 3))
        s0, r0 = radius_graph(pos, 0.4, method="brute")
        s1, r1 = radius_graph(pos, 0.4, method="celllist")
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(r0, r1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.05, max_value=0.8))
    def test_property_kdtree_equals_brute(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(size=(n, 2))
        s0, r0 = radius_graph(pos, radius, method="brute")
        s1, r1 = radius_graph(pos, radius, method="kdtree")
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(r0, r1)

    def test_empty_input(self):
        s, r = radius_graph_celllist(np.zeros((0, 2)), 1.0)
        assert s.size == 0 and r.size == 0


class TestMeshConnectivity:
    def test_bidirectional_dedup(self):
        s, r = bidirectional(np.array([0, 0]), np.array([1, 1]))
        pairs = set(zip(s.tolist(), r.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_triangles_to_edges(self):
        s, r = triangles_to_edges(np.array([[0, 1, 2]]))
        pairs = set(zip(s.tolist(), r.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}

    def test_grid_mesh_edge_count(self):
        # nx*ny grid: nx*(ny-1) + ny*(nx-1) undirected edges, doubled
        s, r = grid_mesh_edges(3, 4)
        assert s.shape[0] == 2 * (3 * 3 + 4 * 2)

    def test_grid_mesh_diagonal(self):
        s, r = grid_mesh_edges(2, 2, diagonal=True)
        pairs = set(zip(s.tolist(), r.tolist()))
        assert (0, 3) in pairs and (3, 0) in pairs

    def test_delaunay_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        s, r = delaunay_edges(pts)
        pairs = set(zip(s.tolist(), r.tolist()))
        # all 4 boundary edges must be present
        for a, b in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert (a, b) in pairs and (b, a) in pairs
