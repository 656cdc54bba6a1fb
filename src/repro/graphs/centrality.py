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
Brandes' path counts: its forward pass expands each frontier by CSR
gathers and keeps the edges to unreached nodes as the level's successor
list, so its dependency pass is one gather and one ``bincount`` per
level with no second expansion.  Path counts are integers summed in
``float64``, hence exact in any order while below 2**53.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable

import numpy as np

from .graph import UndirectedGraph

__all__ = ["closeness_centrality", "betweenness_centrality"]

# Sources per BFS block: bounds the dist/sigma working set to
# _BLOCK x num_nodes while keeping the gathers wide enough to amortize.
_BLOCK = 256
# Closeness bit words per node, so its blocks hold _BLOCK sources too.
_WORDS = _BLOCK // 64


def csr_adjacency(
    n: int, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Undirected CSR ``(indptr, indices)`` over nodes ``0..n-1`` from
    the edges ``(u[i], v[i])``: repeats and self-loops dropped, each
    node's neighbors in ascending index order."""
    keep = np.tile(u != v, 2)
    keys = np.sort(np.concatenate([u * n + v, v * n + u])[keep])
    if keys.size:
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


def _csr(graph: UndirectedGraph) -> tuple[list, np.ndarray, np.ndarray]:
    """Nodes in iteration order plus their CSR adjacency, built from the
    graph's edge list."""
    nodes = list(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    ends = np.fromiter(
        (index[x] for edge in graph.edges() for x in edge),
        dtype=np.int64,
        count=2 * graph.num_edges,
    )
    return nodes, *csr_adjacency(len(nodes), ends[0::2], ends[1::2])


def closeness_centrality(graph: UndirectedGraph) -> dict[Hashable, float]:
    """Closeness ``l_u = (|U| - 1) / sum_{v reachable} z_uv`` for every node.

    Isolated nodes (no reachable neighbors) get closeness 0.  Distances
    are symmetric, so a node's distance total is the sum over BFS levels
    of the depth times the number of sources that reach it there: an
    exact integer.
    """
    nodes, indptr, indices = _csr(graph)
    return dict(zip(nodes, _closeness(indptr, indices).tolist()))


def _closeness(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Closeness of every node of a CSR adjacency, by node index."""
    n = indptr.size - 1
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
    out = np.zeros(n)
    out[linked] = (n - 1) / totals
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
    values = _betweenness(indptr, indices, normalized, sample_sources, seed)
    return dict(zip(nodes, values.tolist()))


def _betweenness(
    indptr: np.ndarray,
    indices: np.ndarray,
    normalized: bool,
    sample_sources: int | None,
    seed: int,
) -> np.ndarray:
    """Betweenness of every node of a CSR adjacency, by node index."""
    n = indptr.size - 1
    degrees = np.diff(indptr)
    scale_sources = 1.0
    if sample_sources is not None and 0 < sample_sources < n:
        rng = np.random.default_rng(seed)
        source_ids = rng.choice(n, size=sample_sources, replace=False)
        scale_sources = n / sample_sources
    else:
        source_ids = np.arange(n, dtype=np.int64)
    betweenness = np.zeros(n)
    # slot[key] names the entry of a level's successor list that stands
    # for the key; only just-written slots are read, so it is never reset.
    slot = np.empty(min(len(source_ids), _BLOCK) * n, dtype=np.int64)
    for start in range(0, len(source_ids), _BLOCK):
        sources = np.asarray(source_ids[start : start + _BLOCK], dtype=np.int64)
        b = len(sources)
        # Flat (source_row, node) keys; sigma 0 marks an unreached key.
        sigma = np.zeros(b * n)
        keys, nodes = np.arange(b, dtype=np.int64) * n + sources, sources
        level_sigma = np.ones(b)
        sigma[keys] = level_sigma
        levels = []
        while True:
            # Every edge leaving the frontier, each frontier entry's
            # neighbors in ascending CSR order; the unreached ends, tested
            # before this level is written, are its successor edges.
            counts = degrees[nodes]
            owner = np.repeat(np.arange(len(keys)), counts)
            first = indptr[nodes] - (np.cumsum(counts) - counts)
            ends = indices[first[owner] + np.arange(len(owner))]
            succ = (keys - nodes)[owner] + ends
            fresh = np.flatnonzero(sigma[succ] == 0)
            if not fresh.size:
                break
            owner, succ, ends = owner[fresh], succ[fresh], ends[fresh]
            levels.append((keys, level_sigma, owner, succ))
            # One entry per distinct successor (whichever write won)
            # collects the path counts of all its parents.
            entry = np.arange(len(succ))
            slot[succ] = entry
            rep = slot[succ]
            won = np.flatnonzero(rep == entry)
            level_sigma = np.bincount(rep, level_sigma[owner], len(succ))[won]
            keys, nodes = succ[won], ends[won]
            sigma[keys] = level_sigma
        # Dependency accumulation, deepest level first, over the stored
        # successor edges.  bincount adds in input order, so each node
        # sums its successors' shares in ascending successor order.  A
        # source's own dependency is not counted, so level 0 is skipped.
        delta = np.zeros_like(sigma)
        for keys, level_sigma, owner, succ in levels[:0:-1]:
            share = level_sigma[owner] * (1.0 + delta[succ]) / sigma[succ]
            delta[keys] = np.bincount(owner, share, minlength=len(keys))
        betweenness += delta.reshape(b, n).sum(axis=0)
    scale = 0.5 * scale_sources
    if normalized and n > 2:
        scale /= (n - 1) * (n - 2) / 2.0
    return betweenness * scale
