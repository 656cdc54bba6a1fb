"""Online deployment replay: strictly-causal routing over a live stream.

Simulates the paper's proposed deployment (Sec. VI): models are refit
periodically on a sliding window of past threads, every arriving
question is ranked and routed while still unanswered, and the rankings
are scored afterwards against the users who actually answered.

Run with:  python examples/online_deployment.py
"""

import numpy as np

from repro.core import OnlineConfig, PredictorConfig, ServingCore, replay
from repro.forum import ForumConfig, generate_forum


def main() -> None:
    forum = generate_forum(
        ForumConfig(n_users=500, n_questions=700, activity_tail=1.4), seed=4
    )
    dataset, _ = forum.dataset.preprocess()
    print(f"streaming {len(dataset)} questions over 30 days")

    core = ServingCore(
        PredictorConfig(
            vote_epochs=100, timing_epochs=100, betweenness_sample_size=150
        ),
        OnlineConfig(
            refit_interval_hours=168.0,  # weekly refits
            window_hours=336.0,  # two-week training window
            warmup_hours=168.0,
            epsilon=0.25,
        ),
    )
    report = replay(core, dataset)

    pool = len(dataset.answerers)
    mean_relevant = float(np.mean([len(a) for _, a in report.rankings]))
    print(f"\nquestions seen after warmup: {report.n_questions_seen}")
    print(f"routed: {report.n_routed} | model refits: {report.n_refits}")
    print("\nwho-will-answer ranking vs. reality:")
    print(f"  hit@1:  {report.hit_rate_at_1:.3f}")
    print(f"  P@5:    {report.precision_at(5):.3f} "
          f"(chance {mean_relevant / pool:.3f})")
    print(f"  MRR:    {report.mrr:.3f}")
    print(f"  NDCG@5: {report.ndcg_at(5):.3f}")
    print(f"\nmean LP objective of routed picks: "
          f"{np.mean(report.routed_scores):+.3f}")


if __name__ == "__main__":
    main()
