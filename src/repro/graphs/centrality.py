"""Centrality measures on the SLN graphs.

The paper's social features (xv), (xvi), (xviii), (xix) are closeness and
betweenness centralities.  Footnote 5 specifies the disconnected-graph
convention: node pairs with no connecting path are simply removed from
the sums, so closeness is ``(|U| - 1) / sum(dist to reachable nodes)``
and betweenness only counts source/target pairs in the same component.

Both measures run one level-synchronous BFS from a block of sources at
once over a CSR adjacency — the per-refit centrality recompute of the
online loop is the hot path here.  Closeness packs 64 sources into each
bit of a ``uint64`` word per node (MS-BFS, Then et al., VLDB 2015), so a
level is one gather, one OR per node and a popcount.  Betweenness needs
Brandes' path counts: its forward pass is one sparse product per level,
and its dependency accumulation one ``bincount`` per level.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable

import numpy as np
from scipy.sparse import csr_matrix

from .graph import UndirectedGraph

__all__ = ["closeness_centrality", "betweenness_centrality"]

# Sources per BFS block: bounds the dist/sigma working set to
# _BLOCK x num_nodes while keeping the gathers wide enough to amortize.
_BLOCK = 256
# Closeness bit words per node, so its blocks hold _BLOCK sources too.
_WORDS = _BLOCK // 64


def _csr(graph: UndirectedGraph) -> tuple[list, np.ndarray, np.ndarray]:
    """Nodes in iteration order plus CSR ``(indptr, indices)`` adjacency,
    each node's neighbors in ascending index order."""
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    degrees = np.fromiter(
        (len(graph.neighbors(v)) for v in nodes), dtype=np.int64, count=len(nodes)
    )
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (index[w] for v in nodes for w in graph.neighbors(v)),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    base = np.repeat(np.arange(len(nodes), dtype=np.int64) * len(nodes), degrees)
    return nodes, indptr, np.sort(base + indices) - base


def closeness_centrality(graph: UndirectedGraph) -> dict[Hashable, float]:
    """Closeness ``l_u = (|U| - 1) / sum_{v reachable} z_uv`` for every node.

    Isolated nodes (no reachable neighbors) get closeness 0.  Distances
    are symmetric, so a node's distance total is the sum over BFS levels
    of the depth times the number of sources that reach it there: an
    exact integer.
    """
    return _closeness(_csr(graph))


def _closeness(csr: tuple) -> dict[Hashable, float]:
    nodes, indptr, indices = csr
    n = len(nodes)
    # Isolated nodes reach no one.  Leaving them out makes every other
    # node's OR over its neighbors one non-empty reduceat segment.
    linked = np.diff(indptr) > 0
    neighbors = (np.cumsum(linked) - 1)[indices]
    starts = indptr[:-1][linked]
    m = len(starts)
    totals = np.zeros(m, dtype=np.int64)
    for start in range(0, m, 64 * _WORDS):
        k = np.arange(min(64 * _WORDS, m - start))
        # Word-major bits: row w holds sources 64w..64w+63 of the block.
        frontier = np.zeros((_WORDS, m), dtype=np.uint64)
        frontier[k // 64, start + k] = np.uint64(1) << (k % 64).astype(np.uint64)
        unseen = ~frontier
        for depth in itertools.count(1):
            gathered = np.take(frontier, neighbors, axis=1)
            reached = np.bitwise_or.reduceat(gathered, starts, axis=1)
            reached &= unseen
            if not reached.any():
                break
            unseen ^= reached
            totals += depth * np.bitwise_count(reached).sum(axis=0, dtype=np.int64)
            frontier = reached
    out = dict.fromkeys(nodes, 0.0)
    for i, total in zip(np.flatnonzero(linked).tolist(), totals.tolist()):
        out[nodes[i]] = (n - 1) / total
    return out


def _bfs_block(
    adjacency: csr_matrix, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Level-synchronous BFS from a block of sources at once.

    Returns the distances (-1 unreachable) and shortest-path counts
    ``sigma``, both flat over ``source_row * n + node`` keys, and each
    level's ``(keys, nodes, sigma)``.
    """
    b, n = len(sources), adjacency.shape[0]
    rows = np.arange(b, dtype=np.int64)
    dist = np.full(b * n, -1, dtype=np.int64)
    sigma = np.zeros(b * n)
    keys, counts = rows * n + sources, np.ones(b)
    dist[keys] = 0
    sigma[keys] = counts
    levels = [(keys, sources, counts)]
    frontier = csr_matrix((counts, sources, np.arange(b + 1)), (b, n))
    for depth in itertools.count(1):
        # Row s of the product sums, for each node, the path counts of
        # its neighbors on the last level; the unseen ones form the next.
        product = frontier @ adjacency
        keys = np.repeat(rows * n, np.diff(product.indptr)) + product.indices
        fresh = dist[keys] < 0
        if not fresh.any():
            return dist, sigma, levels
        keys, nodes, counts = keys[fresh], product.indices[fresh], product.data[fresh]
        dist[keys] = depth
        sigma[keys] = counts
        levels.append((keys, nodes, counts))
        indptr = np.concatenate(([0], np.cumsum(fresh)))[product.indptr]
        frontier = csr_matrix((counts, nodes, indptr), (b, n))


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
    return _betweenness(_csr(graph), normalized, sample_sources, seed)


def _betweenness(
    csr: tuple, normalized: bool, sample_sources: int | None, seed: int
) -> dict[Hashable, float]:
    nodes, indptr, indices = csr
    n = len(nodes)
    adjacency = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
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
        dist, sigma, levels = _bfs_block(adjacency, sources)
        delta = np.zeros_like(sigma)
        # Dependency accumulation, deepest level first; a node's
        # successors sit one level deeper.  Its neighbors come in
        # ascending order and bincount adds in input order, so each node
        # sums its successors' shares in ascending successor order.  A
        # source's own dependency is not counted, so level 0 is skipped.
        for depth in range(len(levels) - 2, 0, -1):
            keys, level_nodes, level_sigma = levels[depth]
            degrees = indptr[level_nodes + 1] - indptr[level_nodes]
            owner = np.repeat(np.arange(len(keys)), degrees)
            first = indptr[level_nodes] - (np.cumsum(degrees) - degrees)
            succ = (keys - level_nodes)[owner] + indices[
                first[owner] + np.arange(len(owner))
            ]
            hit = dist[succ] == depth + 1
            owner, succ = owner[hit], succ[hit]
            share = level_sigma[owner] * (1.0 + delta[succ]) / sigma[succ]
            delta[keys] = np.bincount(owner, share, minlength=len(keys))
        betweenness += delta.reshape(len(sources), n).sum(axis=0)
    scale = 0.5 * scale_sources
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return {v: betweenness[i] * scale for i, v in enumerate(nodes)}


def _closeness_and_betweenness(
    graph: UndirectedGraph, sample_sources: int | None, seed: int
) -> tuple[dict[Hashable, float], dict[Hashable, float]]:
    """Both measures from one CSR build, for the refit path."""
    csr = _csr(graph)
    return _closeness(csr), _betweenness(csr, False, sample_sources, seed)
