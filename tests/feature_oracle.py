"""Scalar reference featurizer: one (user, question) pair at a time.

The test oracle for :meth:`FeatureExtractor.feature_matrix`.  It
rebuilds the window from ``extractor.window``'s threads and the topic
cache (each user's answer history, discussed topics, questions asked
and thread participation) and the two SLN graphs from the threads'
participants with the offline builders, then follows the paper's
feature definitions (Sec. II-B) pair by pair.  It reads none of the compiled tables, so it shares no
code with the block kernel it checks.  The two agree element-wise to
floating-point roundoff (``atol=1e-12``).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.core.state import question_info_from_thread
from repro.graphs import (
    UndirectedGraph,
    betweenness_centrality,
    build_dense_graph,
    build_qa_graph,
    closeness_centrality,
    resource_allocation_index,
)


def canonical(graph: UndirectedGraph) -> UndirectedGraph:
    """``graph`` with its nodes inserted in ascending id order, the node
    order of the freeze's graphs (sampled betweenness draws its sources
    by node index)."""
    out = UndirectedGraph()
    for node in sorted(graph.nodes()):
        out.add_node(node)
    out.add_edges(graph.edges())
    return out


def window_graphs(window) -> tuple[UndirectedGraph, UndirectedGraph]:
    """``G_QA`` and ``G_D`` of a window's threads, in canonical order."""
    tuples = window.participant_tuples()
    return canonical(build_qa_graph(tuples)), canonical(
        build_dense_graph(tuples)
    )


def _tv_similarity(p: np.ndarray, q: np.ndarray) -> float:
    return float(1.0 - 0.5 * np.abs(p - q).sum())


class _Window:
    """Per-user quantities of the extractor's window, from its threads."""

    def __init__(self, extractor, graphs=None):
        topics = extractor.topics
        frozen = extractor.frozen
        # user -> [(thread id, question topics, votes, response time,
        # answer topics)] in window order.
        self.history = defaultdict(list)
        # user -> {thread id: [topic sum, n posts]}
        self.discussed = defaultdict(dict)
        self.threads_of = defaultdict(set)
        self.asked = Counter()
        response_times = []
        for thread in extractor.window:
            tid = thread.thread_id
            d_q = topics.post_topics(thread.question)
            self.asked[thread.asker] += 1
            self.threads_of[thread.asker].add(tid)
            for answer in thread.answers:
                rt = answer.timestamp - thread.created_at
                response_times.append(rt)
                self.history[answer.author].append(
                    (tid, d_q, answer.votes, rt, topics.post_topics(answer))
                )
                self.threads_of[answer.author].add(tid)
            for post in thread.posts:
                entry = self.discussed[post.author].setdefault(
                    tid, [np.zeros(topics.n_topics), 0]
                )
                entry[0] = entry[0] + topics.post_topics(post)
                entry[1] += 1
        self.global_median = (
            float(np.median(response_times)) if response_times else 1.0
        )
        self.graphs = graphs or window_graphs(extractor.window)
        self.centralities = [
            (
                closeness_centrality(graph),
                betweenness_centrality(
                    graph,
                    sample_sources=frozen.betweenness_sample_size,
                    seed=frozen.seed,
                ),
            )
            for graph in self.graphs
        ]

    def topics_discussed(self, uniform, user: int, exclude_thread: int):
        per_thread = self.discussed.get(user, {})
        total, count = np.zeros(len(uniform)), 0
        for tid, (vec, n) in per_thread.items():
            if tid != exclude_thread:
                total = total + vec
                count += n
        return total / count if count > 0 else uniform


def scalar_features(extractor, user: int, thread, window=None) -> np.ndarray:
    """The full x_uq vector for one (user, question) pair."""
    window = window or _Window(extractor)
    k = extractor.topics.n_topics
    uniform = np.full(k, 1.0 / k)
    tid = thread.thread_id
    info = question_info_from_thread(thread, extractor.topics)

    # Leakage guard: the target thread's rows leave the user's history.
    rows = [row for row in window.history.get(user, []) if row[0] != tid]

    # User features (i)-(v).
    if rows:
        n_answers = float(len(rows))
        votes_sum = float(sum(row[2] for row in rows))
        median_rt = float(np.median([row[3] for row in rows]))
        d_u = np.mean([row[4] for row in rows], axis=0)
    else:
        n_answers = 0.0
        votes_sum = 0.0
        median_rt = window.global_median
        d_u = uniform
    answer_ratio = n_answers / (1.0 + window.asked.get(user, 0))

    # Question features (vi)-(ix).
    d_q = info.topics

    # User-question features (x)-(xii).
    s_uq = _tv_similarity(d_u, d_q)
    sims = [_tv_similarity(row[1], d_q) for row in rows]
    g_uq = float(sum(sims))
    e_uq = float(sum(s * row[2] for s, row in zip(sims, rows)))

    # Social features (xiii)-(xx).
    asker = thread.asker
    s_uv = _tv_similarity(
        window.topics_discussed(uniform, user, tid),
        window.topics_discussed(uniform, asker, tid),
    )
    shared = window.threads_of.get(user, set()) & window.threads_of.get(
        asker, set()
    )
    h_uv = float(len(shared - {tid}))
    (qa_clo, qa_bet), (dense_clo, dense_bet) = window.centralities
    qa_graph, dense_graph = window.graphs
    return np.concatenate(
        [
            [n_answers, answer_ratio, votes_sum, median_rt],
            d_u,
            [info.votes, info.word_length, info.code_length],
            d_q,
            [
                s_uq,
                g_uq,
                e_uq,
                s_uv,
                h_uv,
                qa_clo.get(user, 0.0),
                qa_bet.get(user, 0.0),
                resource_allocation_index(qa_graph, user, asker),
                dense_clo.get(user, 0.0),
                dense_bet.get(user, 0.0),
                resource_allocation_index(dense_graph, user, asker),
            ],
        ]
    ).astype(float)


def scalar_matrix(extractor, pairs, graphs=None) -> np.ndarray:
    """Oracle rows for many pairs, stacked in input order; ``graphs``
    replaces the window's ``(G_QA, G_D)`` when given."""
    window = _Window(extractor, graphs)
    return np.stack(
        [scalar_features(extractor, u, t, window) for u, t in pairs]
    )
