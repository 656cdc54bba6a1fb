"""The SLN graphs a freeze builds from the window columns.

Random append/evict histories over a small user pool (unanswered
threads, self-answers, a user answering one thread twice, questions by
the loaders' anonymous id -1, which the answer log's ids exclude as
answerers) freeze into CSR graphs that must equal the offline
builders' graphs of the same window, with centralities bit-identical to
the public functions' and asker-memo RAI values equal to
:func:`~repro.graphs.resource_allocation_index`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureExtractor
from repro.core.state import ForumState
from repro.core.window import BatchTables
from repro.forum.models import Thread
from repro.graphs import (
    betweenness_centrality,
    closeness_centrality,
    resource_allocation_index,
)
from repro.graphs.centrality import _csr

from ..feature_oracle import window_graphs

ANSWERERS = (0, 1, 2, 3, 4, 5)
TID_BASE = 920_000

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def histories(draw):
    """Threads as (asker, answer authors), and ops: ``None`` appends the
    next thread, a percentage evicts up to that share of those appended."""
    answerer = st.sampled_from(ANSWERERS)
    asker = st.sampled_from((-1,) + ANSWERERS)
    threads = draw(
        st.lists(
            st.tuples(asker, st.lists(answerer, max_size=4)),
            min_size=1,
            max_size=12,
        )
    )
    ops = draw(
        st.lists(st.one_of(st.none(), st.integers(0, 99)), max_size=30)
    )
    sample = draw(st.sampled_from([None, 1, 3, 6]))
    return threads, ops, sample


def build_threads(dataset, specs):
    """Threads of the specs, made of the dataset's posts (so their topics
    are cached) under fresh thread ids, ten hours apart."""
    posts = iter(p for t in dataset for p in t.posts)
    threads = []
    for i, (asker, authors) in enumerate(specs):
        tid = TID_BASE + i

        def post(author, hours, question):
            return dataclasses.replace(
                next(posts),
                thread_id=tid,
                author=author,
                timestamp=hours,
                is_question=question,
            )

        threads.append(
            Thread(
                post(asker, 10.0 * i, True),
                [post(a, 10.0 * i + j + 1, False) for j, a in enumerate(authors)],
            )
        )
    return threads


def replay(topics, threads, ops, sample):
    """The state after ``ops``, then every remaining append."""
    state = ForumState(topics)
    appended = 0
    for op in ops + [None] * len(threads):
        if op is None:
            if appended < len(threads):
                state.append(threads[appended])
                appended += 1
        elif appended:
            state.evict(threads[op * appended // 100].created_at)
    return state, state.freeze(betweenness_sample_size=sample, seed=3)


class TestGraphsFromColumns:
    @SETTINGS
    @given(histories())
    def test_csr_and_centralities_equal_the_builders(
        self, extractor, dataset, history
    ):
        specs, ops, sample = history
        threads = build_threads(dataset, specs)
        state, frozen = replay(extractor.topics, threads, ops, sample)
        qa, dense = window_graphs(state.to_dataset())
        # Every window user takes part in some thread.
        users = frozen.user_ids[:-1].tolist()
        assert users == sorted(qa.nodes()) == sorted(dense.nodes())
        c = extractor.spec.n_features - 6
        for graph, (indptr, indices), col in (
            (qa, (frozen.qa_indptr, frozen.qa_indices), c),
            (dense, (frozen.dense_indptr, frozen.dense_indices), c + 3),
        ):
            nodes, want_ptr, want_idx = _csr(graph)
            assert nodes == users
            assert indptr[-1] == indptr[-2]  # the sentinel has no edges
            np.testing.assert_array_equal(indptr[:-1], want_ptr)
            np.testing.assert_array_equal(indices, want_idx)
            closeness = np.array(list(closeness_centrality(graph).values()))
            betweenness = np.array(
                list(
                    betweenness_centrality(
                        graph, sample_sources=sample, seed=3
                    ).values()
                )
            )
            table = frozen.row_table[:-1]
            assert table[:, col].tobytes() == closeness.tobytes()
            assert table[:, col + 1].tobytes() == betweenness.tobytes()
            assert not frozen.row_table[-1, [col, col + 1]].any()

    @SETTINGS
    @given(histories())
    def test_memo_two_hop_and_rai_equal_the_graphs(
        self, extractor, dataset, history
    ):
        specs, ops, _ = history
        threads = build_threads(dataset, specs)
        state, _ = replay(extractor.topics, threads, ops, None)
        ex = FeatureExtractor.from_state(state)
        f = ex.frozen
        rows = np.arange(f.user_ids.size - 1)
        ex._extend_memo(rows)
        qa, dense = window_graphs(ex.window)
        n_rows = f.user_ids.size
        for a_row, asker in enumerate(f.user_ids[:-1].tolist()):
            own = (ex._memo_key // n_rows) == a_row
            memo = dict(
                zip(
                    f.user_ids[ex._memo_key[own] % n_rows].tolist(),
                    ex._memo_values[own].tolist(),
                )
            )
            for col, graph in ((1, qa), (2, dense)):
                two_hop = set().union(
                    *(graph.neighbors(w) for w in graph.neighbors(asker))
                )
                assert {u for u, v in memo.items() if v[col] > 0} == two_hop
                for user in f.user_ids[:-1].tolist():
                    value = memo.get(user, (0.0, 0.0, 0.0))[col]
                    assert value == pytest.approx(
                        resource_allocation_index(graph, user, asker),
                        rel=0.0,
                        abs=1e-12,
                    )


def test_frozen_state_holds_arrays_and_scalars_only(extractor):
    for field in dataclasses.fields(extractor.frozen):
        value = getattr(extractor.frozen, field.name)
        assert isinstance(
            value, (np.ndarray, BatchTables, int, float, str, type(None))
        ), field.name
