"""Tests for repro.graphs.centrality — cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.centrality import betweenness_centrality, closeness_centrality
from repro.graphs.graph import UndirectedGraph

from .closeness_oracle import reference_closeness


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.edges())
    return g


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    g = UndirectedGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                g.add_edge(i, j)
    return g


def random_disconnected_graph(n, n_components, isolated_frac, density, seed):
    """A disconnected graph: isolated nodes plus many random components.

    Node labels are shuffled so iteration order does not follow the
    component structure.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(n)
    g = UndirectedGraph()
    for v in labels:
        g.add_node(int(v))
    n_isolated = int(isolated_frac * n)
    component = rng.integers(0, n_components, size=n - n_isolated)
    members = labels[n_isolated:]
    for c in range(n_components):
        nodes = members[component == c]
        k = len(nodes)
        if k < 2:
            continue
        # A random spanning path keeps the component connected; extra
        # random edges add cycles and shortcuts.
        for u, v in zip(nodes[:-1], nodes[1:]):
            g.add_edge(int(u), int(v))
        extra = rng.integers(0, k, size=(int(density * k), 2))
        for u, v in extra:
            if u != v:
                g.add_edge(int(nodes[u]), int(nodes[v]))
    return g


class TestCloseness:
    def test_star_center(self):
        g = UndirectedGraph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
        c = closeness_centrality(g)
        assert c[0] == pytest.approx(1.0)  # distance 1 to all 4 leaves
        assert c[1] == pytest.approx(4 / 7)  # 1 + 2*3 = 7

    def test_isolated_node_zero(self):
        g = UndirectedGraph()
        g.add_node("solo")
        g.add_edge("a", "b")
        assert closeness_centrality(g)["solo"] == 0.0

    def test_disconnected_uses_reachable_only(self):
        # Paper footnote 5: unreachable pairs removed from the sum.
        g = UndirectedGraph()
        g.add_edge(1, 2)
        g.add_edge(3, 4)
        c = closeness_centrality(g)
        # (n-1)/sum(dist to reachable) = 3/1.
        assert c[1] == pytest.approx(3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 15), st.floats(0.2, 0.9), st.integers(0, 100))
    def test_matches_networkx_on_connected(self, n, p, seed):
        g = random_graph(n, p, seed)
        if len(g.connected_components()) != 1:
            return  # networkx normalizes differently on disconnected graphs
        ours = closeness_centrality(g)
        theirs = nx.closeness_centrality(to_nx(g))
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(257, 700),
        st.integers(2, 80),
        st.floats(0.0, 0.3),
        st.floats(0.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_block_bfs_oracle_on_disconnected(
        self, n, n_components, isolated_frac, density, seed
    ):
        # More than one 256-source block, isolated nodes and many
        # components: the cases the networkx check above skips.
        g = random_disconnected_graph(n, n_components, isolated_frac, density, seed)
        ours = closeness_centrality(g)
        oracle = reference_closeness(g)
        assert list(ours) == list(oracle)
        for node, value in oracle.items():
            assert ours[node] == value


class TestBetweenness:
    def test_path_middle_node(self):
        g = UndirectedGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        b = betweenness_centrality(g)
        assert b[1] == pytest.approx(1.0)  # on the single (0,2) path
        assert b[0] == 0.0 and b[2] == 0.0

    def test_star_center(self):
        g = UndirectedGraph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
        b = betweenness_centrality(g)
        assert b[0] == pytest.approx(6.0)  # C(4,2) leaf pairs
        for leaf in range(1, 5):
            assert b[leaf] == 0.0

    def test_split_paths_half_credit(self):
        # Diamond: 0-1-3 and 0-2-3 are the two shortest 0->3 paths.
        g = UndirectedGraph()
        g.add_edges([(0, 1), (0, 2), (1, 3), (2, 3)])
        b = betweenness_centrality(g)
        assert b[1] == pytest.approx(0.5)
        assert b[2] == pytest.approx(0.5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 15), st.floats(0.1, 0.9), st.integers(0, 100))
    def test_matches_networkx(self, n, p, seed):
        g = random_graph(n, p, seed)
        ours = betweenness_centrality(g)
        theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(3, 12), st.floats(0.2, 0.9), st.integers(0, 50))
    def test_normalized_matches_networkx(self, n, p, seed):
        g = random_graph(n, p, seed)
        ours = betweenness_centrality(g, normalized=True)
        theirs = nx.betweenness_centrality(to_nx(g), normalized=True)
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-9)
