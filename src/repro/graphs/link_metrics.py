"""Pairwise link metrics on the SLN graphs.

Implements the resource-allocation index of features (xvii)/(xx):
``Re_uv = sum_{n in Gamma_u ∩ Gamma_v} 1 / |Gamma_n|``, with the paper's
convention that the index is 0 when the pair has no common neighbors (or
when either node is absent from the graph).
"""

from __future__ import annotations

from collections.abc import Hashable

from .graph import UndirectedGraph

__all__ = [
    "resource_allocation_index",
    "common_neighbors",
    "jaccard_coefficient",
]


def resource_allocation_index(
    graph: UndirectedGraph, u: Hashable, v: Hashable
) -> float:
    """Resource-allocation index of a node pair; 0 when undefined."""
    if u not in graph or v not in graph:
        return 0.0
    common = graph.neighbors(u) & graph.neighbors(v)
    return sum(1.0 / graph.degree(n) for n in common if graph.degree(n) > 0)


def common_neighbors(graph: UndirectedGraph, u: Hashable, v: Hashable) -> int:
    """Number of shared neighbors; 0 when either node is absent."""
    if u not in graph or v not in graph:
        return 0
    return len(graph.neighbors(u) & graph.neighbors(v))


def jaccard_coefficient(graph: UndirectedGraph, u: Hashable, v: Hashable) -> float:
    """Jaccard overlap of neighbor sets; 0 when undefined."""
    if u not in graph or v not in graph:
        return 0.0
    nu, nv = graph.neighbors(u), graph.neighbors(v)
    union = len(nu | nv)
    return len(nu & nv) / union if union else 0.0
