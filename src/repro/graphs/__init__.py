"""Graph substrate: the Social Learning Network graphs and their metrics."""

from .builders import (
    build_dense_graph,
    build_qa_graph,
    dense_links,
    thread_participants,
)
from .centrality import betweenness_centrality, closeness_centrality
from .graph import UndirectedGraph
from .statistics import (
    average_clustering,
    degree_assortativity,
    degree_histogram,
    local_clustering,
)
from .link_metrics import (
    common_neighbors,
    jaccard_coefficient,
    resource_allocation_index,
)

__all__ = [
    "build_dense_graph",
    "build_qa_graph",
    "dense_links",
    "thread_participants",
    "betweenness_centrality",
    "closeness_centrality",
    "UndirectedGraph",
    "average_clustering",
    "degree_assortativity",
    "degree_histogram",
    "local_clustering",
    "common_neighbors",
    "jaccard_coefficient",
    "resource_allocation_index",
]
