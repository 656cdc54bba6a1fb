"""Block-BFS reference closeness: the test oracle for ``closeness_centrality``.

A level-synchronous BFS over a CSR adjacency that expands every source of
a 256-source block at once with NumPy gathers, keeping integer hop
distances.  It shares no code with the library, which takes its
distances from scipy's compiled shortest paths; the two must agree bit
for bit, because both sum small integer distances exactly.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 256


def _csr(graph) -> tuple[list, np.ndarray, np.ndarray]:
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(graph.neighbors(v)) for v in nodes], out=indptr[1:])
    indices = np.array(
        [index[w] for v in nodes for w in graph.neighbors(v)], dtype=np.int64
    )
    return nodes, indptr, indices


def _block_distances(indptr, indices, sources, n) -> np.ndarray:
    """Hop distances (block x n, -1 unreachable) from a block of sources."""
    b = len(sources)
    dist = np.full((b, n), -1, dtype=np.int64)
    rows = np.arange(b, dtype=np.int64)
    dist[rows, sources] = 0
    srcs, frontier = rows, sources
    depth = 0
    while srcs.size:
        depth += 1
        counts = indptr[frontier + 1] - indptr[frontier]
        offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        nbrs = indices[np.repeat(indptr[frontier], counts) + offsets]
        srcs = np.repeat(srcs, counts)
        fresh = dist[srcs, nbrs] < 0
        # A node reached via several parents is marked once.
        mask = np.zeros((b, n), dtype=bool)
        mask[srcs[fresh], nbrs[fresh]] = True
        srcs, frontier = np.nonzero(mask)
        dist[srcs, frontier] = depth
    return dist


def reference_closeness(graph) -> dict:
    """``(|U| - 1) / sum(dist to reachable nodes)``; 0 for isolated nodes."""
    nodes, indptr, indices = _csr(graph)
    n = len(nodes)
    out = {}
    for start in range(0, n, _BLOCK):
        sources = np.arange(start, min(start + _BLOCK, n), dtype=np.int64)
        dist = _block_distances(indptr, indices, sources, n)
        totals = np.where(dist > 0, dist, 0).sum(axis=1)
        for i, total in zip(sources, totals):
            out[nodes[i]] = (n - 1) / total if total > 0 else 0.0
    return out
