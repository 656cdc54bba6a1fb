"""Centrality measures on the SLN graphs.

The paper's social features (xv), (xvi), (xviii), (xix) are closeness and
betweenness centralities.  Footnote 5 specifies the disconnected-graph
convention: node pairs with no connecting path are simply removed from
the sums, so closeness is ``(|U| - 1) / sum(dist to reachable nodes)``
and betweenness only counts source/target pairs in the same component.

Both measures work on a CSR adjacency, one block of sources at a time —
the per-refit centrality recompute of the online loop is the hot path
here.  Closeness takes its distances from scipy's compiled unweighted
shortest paths; betweenness runs a level-synchronous BFS that expands
every source of a block simultaneously with vectorized gathers, because
Brandes' dependency accumulation needs the path counts and levels.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .graph import UndirectedGraph

__all__ = ["closeness_centrality", "betweenness_centrality"]

# Sources per BFS block: bounds the dist/sigma working set to
# _BLOCK x num_nodes while keeping the gathers wide enough to amortize.
_BLOCK = 256


def _csr(graph: UndirectedGraph) -> tuple[list, np.ndarray, np.ndarray]:
    """Nodes in iteration order plus CSR ``(indptr, indices)`` adjacency."""
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    degrees = np.fromiter(
        (len(graph.neighbors(v)) for v in nodes), dtype=np.int64, count=len(nodes)
    )
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, v in enumerate(nodes):
        indices[indptr[i] : indptr[i + 1]] = [index[w] for w in graph.neighbors(v)]
    return nodes, indptr, indices


def _expand(
    indptr: np.ndarray,
    indices: np.ndarray,
    srcs: np.ndarray,
    frontier: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (source, frontier-node, neighbor) edge triples of one level."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    neighbors = indices[np.repeat(indptr[frontier], counts) + offsets]
    return np.repeat(srcs, counts), np.repeat(frontier, counts), neighbors


def _bfs_block(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Level-synchronous BFS from a block of sources at once.

    Returns the distance matrix (block x n, -1 unreachable), the
    shortest-path counts ``sigma`` and the per-level (source, node)
    frontiers.
    """
    b = len(sources)
    dist = np.full((b, n), -1, dtype=np.int64)
    sigma = np.zeros((b, n))
    rows = np.arange(b, dtype=np.int64)
    dist[rows, sources] = 0
    sigma[rows, sources] = 1.0
    levels = [(rows, sources.astype(np.int64))]
    depth = 0
    while levels[-1][0].size:
        depth += 1
        srcs, via, nbrs = _expand(indptr, indices, *levels[-1])
        fresh = dist[srcs, nbrs] < 0
        found = fresh.any()
        if found:
            # Dedup (source, node) pairs discovered via several parents:
            # duplicate writes into the mask are harmless, and nonzero
            # yields each pair once in row-major order.
            mask = np.zeros((b, n), dtype=bool)
            mask[srcs[fresh], nbrs[fresh]] = True
            new_srcs, new_nodes = np.nonzero(mask)
            dist[new_srcs, new_nodes] = depth
        # Path counts flow over every edge that lands on this level,
        # including edges into nodes discovered at an earlier gather.
        on_level = dist[srcs, nbrs] == depth
        np.add.at(
            sigma,
            (srcs[on_level], nbrs[on_level]),
            sigma[srcs[on_level], via[on_level]],
        )
        if not found:
            break
        levels.append((new_srcs, new_nodes))
    return dist, sigma, levels


def closeness_centrality(graph: UndirectedGraph) -> dict[Hashable, float]:
    """Closeness ``l_u = (|U| - 1) / sum_{v reachable} z_uv`` for every node.

    Isolated nodes (no reachable neighbors) get closeness 0.  Hop
    distances are small integers held exactly in float64, so every row
    sum is exact.
    """
    nodes, indptr, indices = _csr(graph)
    n = len(nodes)
    adjacency = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    out: dict[Hashable, float] = {}
    for start in range(0, n, _BLOCK):
        sources = np.arange(start, min(start + _BLOCK, n), dtype=np.int64)
        dist = shortest_path(adjacency, method="D", unweighted=True, indices=sources)
        totals = np.where(np.isfinite(dist), dist, 0.0).sum(axis=1)
        for i, total in zip(sources, totals):
            out[nodes[i]] = (n - 1) / total if total > 0 else 0.0
    return out


def betweenness_centrality(
    graph: UndirectedGraph,
    *,
    normalized: bool = False,
    sample_sources: int | None = None,
    seed: int = 0,
) -> dict[Hashable, float]:
    """Betweenness via Brandes' algorithm on the unweighted graph.

    ``b_u = sum_{s != t != u} sigma_st(u) / sigma_st`` over unordered
    pairs (undirected convention: each pair counted once).  With
    ``normalized=True`` values are divided by ``(n-1)(n-2)/2``.

    ``sample_sources`` caps the number of BFS sources (Brandes-Pich
    approximation): dependencies are accumulated from a uniform random
    subset of sources and rescaled by ``n / |sample|``.  Exact when the
    cap is None or at least the node count.
    """
    nodes, indptr, indices = _csr(graph)
    n = len(nodes)
    scale_sources = 1.0
    if sample_sources is not None and 0 < sample_sources < n:
        rng = np.random.default_rng(seed)
        source_ids = rng.choice(n, size=sample_sources, replace=False)
        scale_sources = n / sample_sources
    else:
        source_ids = np.arange(n, dtype=np.int64)
    betweenness = np.zeros(n)
    for start in range(0, len(source_ids), _BLOCK):
        sources = np.asarray(source_ids[start : start + _BLOCK], dtype=np.int64)
        dist, sigma, levels = _bfs_block(indptr, indices, sources, n)
        b = len(sources)
        delta = np.zeros((b, n))
        # Dependency accumulation, deepest level first; within the BFS
        # DAG a node's successors all sit exactly one level deeper.
        for srcs_l, nodes_l in levels[:0:-1]:
            srcs, w, nbrs = _expand(indptr, indices, srcs_l, nodes_l)
            pred = dist[srcs, nbrs] == dist[srcs, w] - 1
            srcs, w, nbrs = srcs[pred], w[pred], nbrs[pred]
            np.add.at(
                delta,
                (srcs, nbrs),
                sigma[srcs, nbrs] * (1.0 + delta[srcs, w]) / sigma[srcs, w],
            )
        delta[np.arange(b), sources] = 0.0  # s's own dependency is not counted
        betweenness += delta.sum(axis=0)
    scale = 0.5 * scale_sources
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return {v: betweenness[i] * scale for i, v in enumerate(nodes)}
