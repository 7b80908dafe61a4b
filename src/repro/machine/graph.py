"""The interconnect graph: a dict-of-dicts adjacency map.

``adj[a][b]`` is edge ``a-b``'s data dict (one dict for both
directions); ``graph`` holds machine-wide attributes (``fallback_link``,
``node_of``, ``fabric``).  Neighbours come back in insertion order (the
order bandwidths are summed in) and ``edges()`` yields each edge once as
``(a, b)``, ``a`` inserted first (the order seeded fault scenarios
index).  Graphs compare by identity, so a spec can hash the one it holds.
"""

from __future__ import annotations

from collections import deque


class _EdgeView:
    """``g.edges[a, b]`` is the edge's data dict; ``g.edges(...)`` lists."""

    def __init__(self, adj: dict):
        self._adj = adj

    def __getitem__(self, edge: tuple) -> dict:
        return self._adj[edge[0]][edge[1]]

    def __call__(self, node=None, data: bool = False) -> list:
        """Each edge once as ``(a, b)`` (``(a, b, data)`` with ``data``),
        or every edge of ``node`` when one is named."""
        seen, out = set(), []
        for a, nbrs in ([(node, self._adj[node])] if node is not None
                        else self._adj.items()):
            out.extend((a, b, d) if data else (a, b)
                       for b, d in nbrs.items() if b not in seen)
            seen.add(a)
        return out


class Graph:
    """Undirected graph over hashable nodes, edges carrying a data dict."""

    def __init__(self):
        self._adj: dict = {}
        self.graph: dict = {}
        self.edges = _EdgeView(self._adj)

    @property
    def nodes(self):
        """The nodes, in insertion order."""
        return self._adj.keys()

    def add_nodes_from(self, nodes) -> None:
        """Add each of ``nodes`` not already present."""
        for n in nodes:
            self._adj.setdefault(n, {})

    def add_edge(self, a, b, **data) -> None:
        """Add edge ``a-b`` (and its endpoints), or update its data."""
        self.add_nodes_from((a, b))
        d = self._adj[a].get(b, {})
        d.update(data)
        self._adj[a][b] = self._adj[b][a] = d

    def remove_edge(self, a, b) -> None:
        """Remove edge ``a-b`` (KeyError when there is none)."""
        del self._adj[a][b], self._adj[b][a]

    def has_edge(self, a, b) -> bool:
        """True when ``a`` and ``b`` are joined by an edge."""
        return b in self._adj.get(a, ())

    def neighbors(self, n):
        """The nodes adjacent to ``n``, in insertion order."""
        return iter(self._adj[n])

    def degree(self, n=None):
        """The degree of ``n``, or ``(node, degree)`` for every node."""
        if n is None:
            return [(m, len(nbrs)) for m, nbrs in self._adj.items()]
        return len(self._adj[n])

    def number_of_nodes(self) -> int:
        """How many nodes."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """How many edges."""
        return sum(map(len, self._adj.values())) // 2

    def copy(self) -> Graph:
        """A new graph, ``graph`` copied shallowly and each edge's data
        dict copied (editing the copy's links leaves this graph alone).
        Re-adding node by node keeps ``edges()``'s order; each node lists
        the neighbours inserted before it first."""
        h = Graph()
        h.graph.update(self.graph)
        h.add_nodes_from(self._adj)
        for a, nbrs in self._adj.items():
            for b, d in nbrs.items():
                h.add_edge(a, b, **d)
        return h


def is_connected(g: Graph) -> bool:
    """True when a breadth-first search from any node reaches all."""
    seen = set(list(g.nodes)[:1])
    frontier = deque(seen)
    while frontier:
        for m in g.neighbors(frontier.popleft()):
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return len(seen) == g.number_of_nodes()
