"""The block kernel vs. the scalar reference oracle.

The acceptance bar for :meth:`FeatureExtractor.feature_matrix` is
element-wise equivalence with the one-pair-at-a-time oracle in
``tests/feature_oracle.py`` at ``atol=1e-12`` across every situation the
kernel special-cases: empty histories, target-thread exclusion (the
leakage guard), users and threads unseen by the window, askers missing
from the graphs or the thread sets, and users with duplicate answers.
"""

import dataclasses

import numpy as np
import pytest

from repro import perf
from repro.core import build_extractor
from repro.core.features import FeatureExtractor
from repro.core.serving.service import OnlineReport
from repro.forum.models import Thread
from repro.graphs import UndirectedGraph

from ..feature_oracle import scalar_matrix

UNKNOWN = 10**7
FRESH_ID_BASE = 50_000


def assert_equivalent(extractor, pairs):
    batch = extractor.feature_matrix(pairs)
    reference = scalar_matrix(extractor, pairs)
    np.testing.assert_allclose(batch, reference, rtol=0.0, atol=1e-12)


def rebound(extractor, **changes):
    """An extractor over the same window with frozen fields replaced."""
    frozen = dataclasses.replace(extractor.frozen, **changes)
    ex = FeatureExtractor.__new__(FeatureExtractor)
    ex._bind(frozen, extractor.topics, extractor.window)
    return ex


def fresh_question(dataset, asker, offset=0):
    """A question outside the window, asked by ``asker``.  Its ids sit
    far above the window's, clear of other modules' fresh questions:
    out-of-window question info and post topics are cached by id."""
    source = dataset.threads[-1 - offset]
    base = FRESH_ID_BASE + offset
    return Thread(
        dataclasses.replace(
            source.question,
            thread_id=max(t.thread_id for t in dataset) + base,
            post_id=max(p.post_id for t in dataset for p in t.posts) + base,
            author=asker,
        )
    )


def busiest_asker(dataset):
    """The asker of the most answered threads."""
    counts = {}
    for t in dataset:
        if t.answers:
            counts[t.asker] = counts.get(t.asker, 0) + 1
    return max(counts, key=counts.get)


def block_pairs(dataset, thread):
    """One question against every answerer of the window."""
    return [(u, thread) for u in sorted(dataset.answerers)]


@pytest.fixture(scope="module")
def mixed_pairs(dataset):
    """Positives (exclusion path), negatives, and asker self-pairs."""
    records = dataset.answer_records()[:120]
    pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
    pairs += [
        (u, dataset.thread(tid))
        for u, tid in dataset.sample_negative_pairs(120, seed=3)
    ]
    pairs += [(t.asker, t) for t in dataset.threads[:40]]
    return pairs


@pytest.fixture(scope="module")
def partial_extractor(dataset, predictor_config):
    """Extractor over the first 15 days only, so later threads (and the
    users active only in them) are out of window."""
    window = dataset.threads_in_days(1, 15)
    assert len(window) > 0
    return build_extractor(window, predictor_config)


class TestEquivalence:
    def test_mixed_pairs(self, extractor, mixed_pairs):
        assert_equivalent(extractor, mixed_pairs)

    def test_exclusion_pairs_only(self, extractor, dataset):
        """Every pair hits the leave-one-thread-out leakage guard."""
        records = dataset.answer_records()[:200]
        pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
        assert_equivalent(extractor, pairs)

    def test_single_answer_user_excluded(self, extractor, dataset):
        """Users whose lone answer is the target thread fall back to the
        empty-history defaults."""
        counts = dataset.answers_per_user()
        singles = [u for u, c in counts.items() if c == 1]
        pairs = []
        for u in singles:
            for t in dataset:
                if u in t.answerers:
                    pairs.append((u, t))
                    break
        assert pairs, "seeded forum should have one-answer users"
        assert_equivalent(extractor, pairs)

    def test_unseen_users(self, extractor, dataset):
        threads = dataset.threads[:10]
        pairs = [(999_000 + i, t) for i, t in enumerate(threads)]
        assert_equivalent(extractor, pairs)

    def test_unseen_threads_and_users(self, partial_extractor, dataset):
        """Pairs from outside the feature window: out-of-window threads
        resolve through the LRU; window-less users get defaults."""
        late = dataset.threads_in_days(20, 30)
        assert len(late) > 0
        pairs = [(t.asker, t) for t in late.threads[:60]]
        pairs += [
            (r.user, late.thread(r.thread_id))
            for r in late.answer_records()[:60]
        ]
        assert_equivalent(partial_extractor, pairs)

    def test_duplicate_pairs_in_batch(self, extractor, dataset):
        record = dataset.answer_records()[0]
        pair = (record.user, dataset.thread(record.thread_id))
        assert_equivalent(extractor, [pair] * 7)

    def test_batch_is_deterministic(self, extractor, mixed_pairs):
        a = extractor.feature_matrix(mixed_pairs)
        b = extractor.feature_matrix(mixed_pairs)
        np.testing.assert_array_equal(a, b)

    def test_small_chunk_size(self, extractor, mixed_pairs, monkeypatch):
        """Chunked similarity passes agree with the one-shot result."""
        reference = extractor.feature_matrix(mixed_pairs)
        monkeypatch.setattr(extractor, "_SIM_CHUNK_ELEMENTS", 16)
        np.testing.assert_array_equal(
            extractor.feature_matrix(mixed_pairs), reference
        )

    def test_blocks_scatter_back_in_input_order(self, extractor, mixed_pairs):
        """Each row equals that pair featurized alone, wherever the
        pair's block sits in the batch."""
        order = np.random.default_rng(0).permutation(len(mixed_pairs))
        shuffled = [mixed_pairs[i] for i in order]
        x = extractor.feature_matrix(shuffled)
        np.testing.assert_array_equal(
            x[np.argsort(order)], extractor.feature_matrix(mixed_pairs)
        )
        for i in range(0, len(shuffled), 37):
            np.testing.assert_array_equal(
                x[i], extractor.feature_matrix([shuffled[i]])[0]
            )


class TestBlockEdgeCases:
    def test_empty_pair_list(self, extractor):
        registry = perf.get_registry()
        before = registry.counter("features.pairs_batched")
        x = extractor.feature_matrix([])
        assert x.shape == (0, extractor.spec.n_features)
        assert registry.counter("features.pairs_batched") == before

    def test_unknown_candidates_take_the_sentinel_row(
        self, extractor, dataset
    ):
        """Users unknown to the window all get the no-evidence row."""
        thread = dataset.threads[5]
        pairs = [(UNKNOWN + i, thread) for i in range(6)]
        x = extractor.feature_matrix(pairs)
        np.testing.assert_array_equal(x, np.tile(x[0], (6, 1)))
        spec = extractor.spec
        for name in (
            "answers_provided",
            "net_answer_votes",
            "thread_cooccurrence",
            "qa_closeness",
            "qa_resource_allocation",
            "dense_betweenness",
            "dense_resource_allocation",
        ):
            assert x[0, spec.columns_of(name)[0]] == 0.0
        assert_equivalent(extractor, pairs + block_pairs(dataset, thread))

    def test_asker_absent_from_both_graphs(self, extractor, dataset):
        """An unknown asker: no thread set, no graph node."""
        question = fresh_question(dataset, UNKNOWN)
        assert UNKNOWN not in extractor.dense_graph
        pairs = block_pairs(dataset, question)
        x = extractor.feature_matrix(pairs)
        spec = extractor.spec
        for name in (
            "thread_cooccurrence",
            "qa_resource_allocation",
            "dense_resource_allocation",
        ):
            assert not x[:, spec.columns_of(name)[0]].any()
        assert_equivalent(extractor, pairs)

    @pytest.mark.parametrize(
        "dropped, kept",
        [("qa_graph", "dense_graph"), ("dense_graph", "qa_graph")],
    )
    def test_asker_absent_from_one_graph(
        self, extractor, dataset, dropped, kept
    ):
        """The other graph's RAI survives while the dropped graph's
        column falls to zero."""
        asker = busiest_asker(dataset)
        graph = UndirectedGraph()
        for u, v in getattr(extractor, dropped).edges():
            if asker not in (u, v):
                graph.add_edge(u, v)
        ex = rebound(extractor, **{dropped: graph})
        own = [t for t in dataset if t.asker == asker]
        pairs = block_pairs(dataset, own[0])
        pairs += block_pairs(dataset, fresh_question(dataset, asker))
        x = ex.feature_matrix(pairs)
        column = {
            "qa_graph": "qa_resource_allocation",
            "dense_graph": "dense_resource_allocation",
        }
        assert not x[:, ex.spec.columns_of(column[dropped])[0]].any()
        assert x[:, ex.spec.columns_of(column[kept])[0]].any()
        assert_equivalent(ex, pairs)

    def test_asker_without_thread_set(self, extractor, dataset):
        asker = busiest_asker(dataset)
        thread_sets = dict(extractor.frozen.thread_sets)
        del thread_sets[asker]
        ex = rebound(extractor, thread_sets=thread_sets)
        own = next(t for t in dataset if t.asker == asker)
        pairs = block_pairs(dataset, own)
        pairs += block_pairs(dataset, fresh_question(dataset, asker))
        x = ex.feature_matrix(pairs)
        assert not x[:, ex.spec.columns_of("thread_cooccurrence")[0]].any()
        assert_equivalent(ex, pairs)

    def test_duplicate_answerer_on_in_window_thread(
        self, dataset, predictor_config
    ):
        """A user who answered the target thread twice takes the masked
        fallback; the rest of the block keeps the fast path."""
        threads = list(dataset.threads)
        i, target = next(
            (i, t) for i, t in enumerate(threads) if len(t.answers) >= 1
        )
        first = target.answers[0]
        again = dataclasses.replace(
            first,
            post_id=max(p.post_id for t in threads for p in t.posts) + 1,
            timestamp=first.timestamp + 0.5,
            votes=first.votes + 2,
        )
        threads[i] = Thread(target.question, [*target.answers, again])
        window = type(dataset)(threads)
        ex = build_extractor(window, predictor_config)
        assert first.author in ex.frozen.batch_tables.dup_users
        pairs = block_pairs(window, threads[i])
        pairs += [(first.author, t) for t in threads[:30]]
        assert_equivalent(ex, pairs)


class TestQuestionInfoLru:
    def test_out_of_window_cache_is_bounded(self, partial_extractor, dataset):
        ex = partial_extractor
        ex._extra_question_info.clear()
        ex._OUT_OF_WINDOW_CACHE_SIZE = 8
        late = dataset.threads_in_days(20, 30).threads
        assert len(late) > 8
        for t in late:
            ex._question_info_for(t)
        assert len(ex._extra_question_info) == 8
        # Most-recently-used entries survive.
        assert late[-1].thread_id in ex._extra_question_info
        assert late[0].thread_id not in ex._extra_question_info

    def test_window_threads_never_enter_lru(self, extractor, dataset):
        extractor._extra_question_info.clear()
        extractor._question_info_for(dataset.threads[0])
        assert len(extractor._extra_question_info) == 0

    def test_lru_hit_refreshes_entry(self, partial_extractor, dataset):
        ex = partial_extractor
        ex._extra_question_info.clear()
        ex._OUT_OF_WINDOW_CACHE_SIZE = 2
        a, b, c = dataset.threads_in_days(20, 30).threads[:3]
        ex._question_info_for(a)
        ex._question_info_for(b)
        ex._question_info_for(a)  # refresh a: b is now least recent
        ex._question_info_for(c)
        assert a.thread_id in ex._extra_question_info
        assert b.thread_id not in ex._extra_question_info


class TestAskerMemo:
    def test_one_entry_for_fifty_questions_by_one_asker(
        self, serving_core, dataset
    ):
        extractor = serving_core._predictor.extractor
        # Rebinding the same snapshot starts an empty memo.
        extractor._bind(extractor.frozen, extractor.topics, extractor.window)
        asker = busiest_asker(dataset)
        report = OnlineReport()
        sizes = []
        for j in range(50):
            question = fresh_question(dataset, asker, offset=j)
            response = serving_core.route(
                question, dataset.duration_hours, report
            )
            assert response.status == "ok"
            sizes.append(extractor._memo_key.size)
        assert np.count_nonzero(extractor._memoized) == 1
        assert sizes[0] > 0 and len(set(sizes)) == 1


class TestPerfInstrumentation:
    def test_batch_records_stage_and_counter(self, extractor, mixed_pairs):
        registry = perf.get_registry()
        before_calls = registry.stage("features.batch").calls
        before_pairs = registry.counter("features.pairs_batched")
        extractor.feature_matrix(mixed_pairs)
        assert registry.stage("features.batch").calls == before_calls + 1
        assert (
            registry.counter("features.pairs_batched")
            == before_pairs + len(mixed_pairs)
        )

    def test_build_records_stage(self):
        assert perf.get_registry().stage("features.build").calls >= 1
