"""Graph measurements: BFS, distances, diameter, connectivity.

These supply the parameters the paper assumes devices know (n, Delta, D)
and the verification logic used by tests and experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bfs_layers",
    "eccentricity",
    "diameter",
    "is_connected",
    "distance",
]


def bfs_distances(graph: Graph, source: int) -> List[int]:
    """Distances from ``source``; unreachable vertices get -1.

    Scans the graph's cached CSR adjacency (flat typed arrays).
    """
    indptr, indices = graph.csr()
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for w in indices[indptr[u]:indptr[u + 1]]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_layers(graph: Graph, source: int) -> Dict[int, List[int]]:
    """Vertices grouped by BFS distance from ``source``."""
    layers: Dict[int, List[int]] = {}
    for v, d in enumerate(bfs_distances(graph, source)):
        if d >= 0:
            layers.setdefault(d, []).append(v)
    return layers


def distance(graph: Graph, u: int, v: int) -> int:
    """Hop distance between u and v; -1 if disconnected."""
    return bfs_distances(graph, u)[v]


def eccentricity(graph: Graph, v: int) -> int:
    """Maximum distance from ``v``; raises if the graph is disconnected."""
    dist = bfs_distances(graph, v)
    if min(dist) < 0:
        raise ValueError("eccentricity undefined: graph is disconnected")
    return max(dist)


def diameter(graph: Graph) -> int:
    """The paper's D = max_{u,v} dist(u, v), computed exactly.

    BoundingDiameters (Takes & Kosters, "Determining the diameter of
    small world networks", CIKM 2011): keep a lower and an upper bound
    on every vertex's eccentricity and BFS only from candidates that can
    still raise the diameter.  A BFS from ``v`` with eccentricity ``e``
    bounds every ``w`` at distance ``d`` by
    ``max(e - d, d) <= ecc(w) <= e + d``.  Sources alternate between the
    largest upper bound (likely periphery, raises the best eccentricity
    seen) and the smallest lower bound (likely centre, tightens the
    upper bounds).  A candidate is dropped once its upper bound cannot
    beat the best eccentricity seen or its eccentricity is pinned; when
    none is left, the lower and upper diameter bounds have met.  A path
    needs one BFS run instead of n; vertex-transitive graphs (cycles,
    cliques) cannot be pruned and need up to one per vertex.

    Raises ``ValueError`` if the graph is disconnected.
    """
    n = graph.n
    lo = [0] * n
    hi = [n - 1] * n  # no eccentricity in a connected graph exceeds n-1
    candidates = list(range(n))
    best = 0
    pick_high = True
    while candidates:
        if pick_high:
            v = max(candidates, key=hi.__getitem__)
        else:
            v = min(candidates, key=lo.__getitem__)
        pick_high = not pick_high
        dist = bfs_distances(graph, v)
        if min(dist) < 0:
            raise ValueError("diameter undefined: graph is disconnected")
        e = max(dist)
        for w in candidates:
            d = dist[w]
            low = e - d if e - d > d else d
            if low > lo[w]:
                lo[w] = low
                if low > best:
                    best = low
            if e + d < hi[w]:
                hi[w] = e + d
        # A dropped vertex's eccentricity is at most ``best``: it is
        # pinned (lo == hi; the BFS source always is) or bounded by it.
        candidates = [w for w in candidates if best < hi[w] != lo[w]]
    return best


def is_connected(graph: Graph) -> bool:
    return min(bfs_distances(graph, 0)) >= 0
