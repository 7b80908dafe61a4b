"""The in-tree interconnect graph keeps the orders pricing reads."""

import pytest

from repro.machine.graph import Graph, is_connected


def _graph(edges, nodes=None):
    g = Graph()
    g.add_nodes_from(nodes if nodes is not None else [])
    for a, b in edges:
        g.add_edge(a, b, link=(a, b))
    return g


class TestOrders:
    def test_edges_once_oriented_by_insertion(self):
        # (3, 0) is inserted that way round but 0 came first
        g = _graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], nodes=range(4))
        assert g.edges() == [(0, 1), (0, 3), (0, 2), (1, 2), (2, 3)]
        assert g.number_of_edges() == 5

    def test_neighbors_in_insertion_order(self):
        g = _graph([(0, 1), (3, 0), (0, 2)], nodes=range(4))
        assert list(g.neighbors(0)) == [1, 3, 2]
        assert g.edges(0, data=True) == [
            (0, 1, {"link": (0, 1)}), (0, 3, {"link": (3, 0)}),
            (0, 2, {"link": (0, 2)})]
        assert g.degree() == [(0, 3), (1, 1), (2, 1), (3, 1)]
        assert g.degree(0) == 3

    def test_add_edge_updates_one_shared_dict(self):
        g = _graph([(0, 1)])
        g.add_edge(1, 0, weight=2)
        assert g.edges[0, 1] is g.edges[1, 0]
        assert g.edges[0, 1] == {"link": (0, 1), "weight": 2}

    def test_remove_edge(self):
        g = _graph([(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.edges() == [(1, 2)]
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)


class TestCopy:
    def test_copy_owns_edge_data_and_graph_dict(self):
        g = _graph([(0, 1), (1, 2)])
        g.graph["fallback_link"] = "pcie"
        h = g.copy()
        h.edges[0, 1]["link"] = "degraded"
        h.remove_edge(1, 2)
        h.graph["node_of"] = {}
        assert g.edges[0, 1]["link"] == (0, 1)
        assert g.has_edge(1, 2)
        assert g.graph == {"fallback_link": "pcie"}
        assert h.graph["fallback_link"] == "pcie"
        assert h.edges[0, 1] is h.edges[1, 0]

    def test_copy_keeps_edge_order(self):
        g = _graph([(2, 3), (3, 0), (1, 3), (0, 1)], nodes=range(4))
        assert g.copy().edges() == g.edges()

    def test_graphs_compare_by_identity(self):
        g = _graph([(0, 1)])
        assert g != g.copy() and g == g
        assert len({g, g.copy()}) == 2


class TestConnected:
    def test_connected(self):
        assert is_connected(_graph([(0, 1), (2, 1)]))
        assert is_connected(_graph([], nodes=[0]))

    def test_islands(self):
        assert not is_connected(_graph([(0, 1), (2, 3)]))
        assert not is_connected(_graph([(0, 1)], nodes=range(3)))
