"""Fig. 4 — CDFs of selected features.

Reproduces the six panels as printed quantiles and asserts the paper's
qualitative reads: (a) many users answer repeatedly, (b) more active
users answer faster, (c) activity does not keep raising average votes,
(d) answerers are topically closer to askers than to questions,
(e) code length varies more than word length, (f) centralities spread
widely with many zero-betweenness users.
"""

import numpy as np

from repro.core import build_pair_dataset
from repro.forum.stats import (
    answer_activity_cdf,
    ecdf,
    median_response_time_by_activity,
)
from repro.graphs import (
    betweenness_centrality,
    build_qa_graph,
    closeness_centrality,
)
from repro.topics.tokenizer import split_text_and_code


def show_cdf(label, values, probs=(0.1, 0.5, 0.9)):
    values = np.asarray(values, dtype=float)
    qs = np.quantile(values, probs)
    print(f"  {label:34s} " + "  ".join(f"p{int(100*p)}={q:9.3f}" for p, q in zip(probs, qs)))


def test_fig4a_answer_activity(benchmark, dataset):
    x, y = benchmark.pedantic(answer_activity_cdf, args=(dataset,), rounds=1, iterations=1)
    frac_multi = float(np.mean(x >= 2))
    print("\nFig. 4a: answers per user")
    show_cdf("a_u", x)
    print(f"  fraction of users with >=2 answers: {frac_multi:.2f}")
    assert 0.2 < frac_multi < 0.8  # paper: ~40 %


def test_fig4b_response_time_by_activity(benchmark, dataset):
    groups = benchmark.pedantic(
        median_response_time_by_activity,
        args=(dataset, (1, 2, 3, 5)),
        rounds=1,
        iterations=1,
    )
    print("\nFig. 4b: median response time (h) by activity threshold")
    for threshold, values in groups.items():
        if len(values):
            show_cdf(f"a_u >= {threshold}", values)
    # Shape: more active users respond faster.
    assert np.median(groups[5]) < np.median(groups[1])


def test_fig4c_votes_by_activity(benchmark, dataset):
    def compute():
        by_user = {}
        for r in dataset.answer_records():
            by_user.setdefault(r.user, []).append(r.votes)
        means = {u: np.mean(v) for u, v in by_user.items()}
        counts = {u: len(v) for u, v in by_user.items()}
        return {
            t: np.array([m for u, m in means.items() if counts[u] >= t])
            for t in (1, 2, 5)
        }

    groups = benchmark.pedantic(compute, rounds=1, iterations=1)
    print("\nFig. 4c: average answer votes by activity threshold")
    for t, vals in groups.items():
        if len(vals):
            show_cdf(f"a_u >= {t}", vals)
    # Paper: beyond a_u >= 2 there is no strong further shift.
    assert abs(np.median(groups[5]) - np.median(groups[2])) < 1.0


def test_fig4d_topic_similarities(benchmark, dataset, extractor):
    def compute():
        spec = extractor.spec
        uq_col = spec.columns_of("user_question_topic_similarity")[0]
        uv_col = spec.columns_of("user_user_topic_similarity")[0]
        pairs = [
            (user, thread)
            for thread in dataset.threads[:300]
            for user in thread.answerers
        ]
        x = extractor.feature_matrix(pairs)
        return x[:, uq_col], x[:, uv_col]

    s_uq, s_uv = benchmark.pedantic(compute, rounds=1, iterations=1)
    print("\nFig. 4d: topic similarities of answerers")
    show_cdf("user-question s_uq", s_uq)
    show_cdf("user-asker    s_uv", s_uv)
    # Paper: answerers are more similar to the asker than to the question.
    assert np.median(s_uv) > np.median(s_uq)


def test_fig4e_question_lengths(benchmark, dataset):
    def compute():
        words, code = [], []
        for thread in dataset:
            split = split_text_and_code(thread.question.body)
            words.append(split.word_length)
            code.append(split.code_length)
        return np.array(words, dtype=float), np.array(code, dtype=float)

    words, code = benchmark.pedantic(compute, rounds=1, iterations=1)
    print("\nFig. 4e: question word/code lengths (chars)")
    show_cdf("words x_q", words)
    show_cdf("code  c_q", code)
    # Paper: medians near 300 chars, code length far more variable.
    assert 100 < np.median(words) < 600
    assert np.std(np.log1p(code)) > np.std(np.log1p(words))


def test_fig4f_centralities(benchmark, dataset):
    def compute():
        graph = build_qa_graph(dataset.participant_tuples())
        closeness = np.array(list(closeness_centrality(graph).values()))
        betweenness = np.array(
            list(betweenness_centrality(graph, normalized=True).values())
        )
        return closeness, betweenness

    closeness, betweenness = benchmark.pedantic(compute, rounds=1, iterations=1)
    print("\nFig. 4f: centralities on G_QA (normalized)")
    show_cdf("closeness l_u", closeness)
    show_cdf("betweenness b_u", betweenness)
    zero_b = float(np.mean(betweenness == 0.0))
    print(f"  fraction of users with zero betweenness: {zero_b:.2f}")
    # Paper: a large share of users lie on no shortest path (60 % at the
    # paper's scale; smaller but still substantial at bench scale).
    assert zero_b > 0.2
