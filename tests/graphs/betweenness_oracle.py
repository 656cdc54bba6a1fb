"""Edge-expansion Brandes betweenness: the test oracle for ``betweenness_centrality``.

A level-synchronous BFS that expands every edge leaving a 256-source
block's frontier with NumPy gathers, finds each level's nodes through a
dense block x n mask and accumulates path counts and dependencies with
``np.add.at``.  The library instead runs its forward pass as sparse
products and accumulates with ``bincount``; both add each node's
successor shares in ascending successor order, so they must agree bit
for bit.  Source sampling and blocking are the library's.
"""

from __future__ import annotations

import numpy as np

from .closeness_oracle import _csr

_BLOCK = 256


def _expand(indptr, indices, srcs, frontier):
    """All (source, frontier-node, neighbor) edge triples of one level."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    neighbors = indices[np.repeat(indptr[frontier], counts) + offsets]
    return np.repeat(srcs, counts), np.repeat(frontier, counts), neighbors


def _bfs_block(indptr, indices, sources, n):
    """Distances (block x n, -1 unreachable), path counts ``sigma`` and
    the per-level (source, node) frontiers in row-major order."""
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
            # A node reached via several parents is marked once, and
            # nonzero yields each (source, node) pair in row-major order.
            mask = np.zeros((b, n), dtype=bool)
            mask[srcs[fresh], nbrs[fresh]] = True
            new_srcs, new_nodes = np.nonzero(mask)
            dist[new_srcs, new_nodes] = depth
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


def reference_betweenness(
    graph, *, normalized=False, sample_sources=None, seed=0
) -> dict:
    """Brandes betweenness with the library's sampling and scaling."""
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
        # Deepest level first: np.add.at adds in input order, so each
        # predecessor receives its successors' shares in ascending order.
        for srcs_l, nodes_l in levels[:0:-1]:
            srcs, w, nbrs = _expand(indptr, indices, srcs_l, nodes_l)
            pred = dist[srcs, nbrs] == dist[srcs, w] - 1
            srcs, w, nbrs = srcs[pred], w[pred], nbrs[pred]
            np.add.at(
                delta,
                (srcs, nbrs),
                sigma[srcs, nbrs] * (1.0 + delta[srcs, w]) / sigma[srcs, w],
            )
        delta[np.arange(b), sources] = 0.0
        betweenness += delta.sum(axis=0)
    scale = 0.5 * scale_sources
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return {v: betweenness[i] * scale for i, v in enumerate(nodes)}
