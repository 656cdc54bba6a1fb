"""Builders for the paper's two SLN graphs (Sec. II-B, Fig. 2).

* ``G_QA`` — the question-answer graph: a link between users u and v when
  one asked a question and the other answered it.
* ``G_D`` — the denser graph: every pair of users posting in the same
  thread (asker or answerer) is linked, so co-answerers connect too.

Both builders consume thread participant tuples ``(asker, answerers)``
so they stay decoupled from the forum data model.  They serve the
offline graph statistics (Fig. 2, Fig. 4); a feature window's freeze
builds the same graphs as arrays from its participation columns
(:func:`repro.core.window.build_frozen`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from .graph import UndirectedGraph

__all__ = [
    "build_qa_graph",
    "build_dense_graph",
    "thread_participants",
    "dense_links",
]

ThreadParticipants = tuple[Hashable, Sequence[Hashable]]


def thread_participants(
    asker: Hashable, answerers: Sequence[Hashable]
) -> list[Hashable]:
    """Distinct thread participants, asker first."""
    participants = [asker]
    for answerer in answerers:
        if answerer not in participants:
            participants.append(answerer)
    return participants


def dense_links(
    participants: Sequence[Hashable],
) -> list[tuple[Hashable, Hashable]]:
    """All co-participant pairs of one thread (participants asker-first)."""
    return [
        (u, v)
        for i, u in enumerate(participants)
        for v in participants[i + 1 :]
    ]


def build_qa_graph(threads: Iterable[ThreadParticipants]) -> UndirectedGraph:
    """Question-answer graph: asker linked to each distinct answerer."""
    graph = UndirectedGraph()
    for asker, answerers in threads:
        graph.add_node(asker)
        for answerer in answerers:
            graph.add_edge(asker, answerer)
    return graph


def build_dense_graph(threads: Iterable[ThreadParticipants]) -> UndirectedGraph:
    """Denser graph: all thread co-participants pairwise linked."""
    graph = UndirectedGraph()
    for asker, answerers in threads:
        participants = thread_participants(asker, answerers)
        for u in participants:
            graph.add_node(u)
        for u, v in dense_links(participants):
            graph.add_edge(u, v)
    return graph
