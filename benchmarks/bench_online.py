"""Online deployment replay: incremental refits vs. full rebuilds.

Streams the benchmark forum through the periodic-refit replay three
times:

* incremental — the serving core: one long-lived :class:`ForumState`
  absorbs each thread (``append``/``evict``); refits freeze the state
  and warm-start the task models;
* warm rebuild — the test oracle ``tests/online_oracle.py`` with
  model reuse; must produce a report identical to the incremental run
  (both freeze states holding the same threads under the same topics);
* cold rebuild — the same oracle refitting topics, graphs and networks
  from scratch every refit (the original fit monolith).

An incremental refit's cost is its ``online.refit`` stage plus the
window's ``state.evict`` just before it, which settles the posts
ingested since the last flush.  That sum is compared, per refit, with
the cold rebuild's ``online.refit``; the speedup is asserted, and the
measurement — including a per-refit breakdown into feature, topic and
model-fit stages — is recorded in ``BENCH_online.json`` at the repo
root.

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/bench_online.py -q -s
"""

import sys
import time
from pathlib import Path

import numpy as np

from _meta import write_bench
from conftest import FORUM_CONFIG

from repro import perf
from repro.core import OnlineConfig, ResilienceConfig, ServingCore, replay

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.online_oracle import RebuildCore  # noqa: E402

RESULT_PATH = ROOT / "BENCH_online.json"

# Alternating plain/guarded replay pairs behind the resilience
# overhead.  On a shared 2-vCPU host one replay swings by 40-110 % and
# one pair's guarded/plain ratio has an interquartile range of about
# 0.15, so the median of 15 pairs still read 0.091 once; 25 put its
# standard error near 0.03, a third of the 0.10 bound.
RESILIENCE_ROUNDS = 25

ONLINE = OnlineConfig(
    refit_interval_hours=168.0,
    window_hours=336.0,
    warmup_hours=168.0,
    epsilon=0.25,
)


# Where each refit's wall-clock goes: feature matrices, topic refit,
# task-model fits (with the vote and timing heads inside them), and the
# graph centralities of the state freeze.  Anything outside these (the
# rest of the freeze, bookkeeping) shows up as the remainder against
# ``online.refit``.
_REFIT_STAGES = (
    "pipeline.features",
    "pipeline.fit_topics",
    "pipeline.fit_models",
    "pipeline.fit_vote",
    "pipeline.fit_timing",
    "state.centrality",
)


def run_replay(core, dataset):
    """One replay in a private perf registry; returns per-refit timings.

    The evict seconds have one sample per refit after the bootstrap
    one, which builds its state instead of evicting from it.
    """
    with perf.use_registry() as registry:
        report = replay(core, dataset)
    stages = {
        name: [round(t, 6) for t in registry.samples(name)]
        for name in _REFIT_STAGES
    }
    return (
        report,
        registry.samples("online.refit"),
        registry.samples("state.evict"),
        stages,
    )


def _stage_breakdown(stages):
    """Steady-state mean per stage (first refit is startup, excluded)."""
    return {
        name: {
            "per_refit_seconds": vals,
            "steady_mean_seconds": (
                round(float(np.mean(vals[1:])), 6) if len(vals) > 1 else None
            ),
        }
        for name, vals in stages.items()
    }


def assert_reports_equal(a, b):
    assert a.n_questions_seen == b.n_questions_seen
    assert a.n_routed == b.n_routed
    assert a.n_refits == b.n_refits
    assert len(a.rankings) == len(b.rankings)
    for (rank_a, rel_a), (rank_b, rel_b) in zip(a.rankings, b.rankings):
        assert rank_a == rank_b
        assert rel_a == rel_b
    np.testing.assert_array_equal(
        np.asarray(a.routed_scores), np.asarray(b.routed_scores)
    )


def test_online_refit_speedup(benchmark, dataset, config):
    incremental, inc_times, evict_times, inc_stages = run_replay(
        ServingCore(config, ONLINE), dataset
    )
    warm = run_replay(RebuildCore(config, ONLINE, warm_start=True), dataset)[0]
    cold, cold_times, _, cold_stages = run_replay(
        RebuildCore(config, ONLINE, warm_start=False), dataset
    )

    # The incremental engine is an optimisation, not a model change:
    # report-for-report identical to a warm full rebuild.
    assert_reports_equal(incremental, warm)

    # Resilience-layer overhead on a clean stream: with the guard in
    # place but no faults injected, the report must stay identical and
    # the added wall-clock should stay marginal (< 5% is the target).
    # One replay of each swings by more than that on a shared host, so
    # each round runs one plain and one guarded replay back to back,
    # each side leading every other round, and the median of the
    # per-round guarded/plain ratios is compared.
    replay_seconds = {"plain": [], "guarded": []}
    for i in range(RESILIENCE_ROUNDS):
        for arm in ("plain", "guarded")[:: 1 if i % 2 == 0 else -1]:
            resilience = ResilienceConfig() if arm == "guarded" else None
            start = time.perf_counter()
            report = run_replay(
                ServingCore(config, ONLINE, resilience), dataset
            )[0]
            replay_seconds[arm].append(time.perf_counter() - start)
            assert_reports_equal(incremental, report)
            if arm == "guarded":
                assert report.degradation is not None and report.degradation.ok
    ratios = np.divide(replay_seconds["guarded"], replay_seconds["plain"])
    resilience_overhead = float(np.median(ratios)) - 1.0
    assert resilience_overhead < 0.10

    report = benchmark.pedantic(
        lambda: run_replay(ServingCore(config, ONLINE), dataset)[0],
        rounds=1,
        iterations=1,
    )
    pool = len(dataset.answerers)
    mean_relevant = float(np.mean([len(a) for _, a in report.rankings]))
    chance = mean_relevant / pool

    # The first refit of either arm is startup, not steady state: it
    # fits topics and networks from scratch over the warmup window.
    # Serving cost is the recurring refit, so that is what is asserted;
    # the overall means are recorded alongside.  Every incremental refit
    # after the first pays the evict (and its settle) that precedes it.
    assert len(inc_times) >= 3 and len(cold_times) >= 3
    assert len(evict_times) == len(inc_times) - 1
    inc_totals = inc_times[:1] + [
        refit + evict for refit, evict in zip(inc_times[1:], evict_times)
    ]
    inc_steady = float(np.mean(inc_totals[1:]))
    cold_steady = float(np.mean(cold_times[1:]))
    speedup = cold_steady / inc_steady
    overall_speedup = float(np.mean(cold_times) / np.mean(inc_totals))
    record = {
        "forum": {
            "n_users": FORUM_CONFIG.n_users,
            "n_questions": FORUM_CONFIG.n_questions,
        },
        "n_refits": incremental.n_refits,
        "n_questions_seen": incremental.n_questions_seen,
        "incremental_refit_seconds": [round(t, 6) for t in inc_times],
        "incremental_evict_seconds": [round(t, 6) for t in evict_times],
        "incremental_refit_plus_evict_seconds": [
            round(t, 6) for t in inc_totals
        ],
        "cold_rebuild_refit_seconds": [round(t, 6) for t in cold_times],
        "incremental_steady_mean_seconds": round(inc_steady, 6),
        "incremental_steady_evict_mean_seconds": round(
            float(np.mean(evict_times)), 6
        ),
        "cold_rebuild_steady_mean_seconds": round(cold_steady, 6),
        "incremental_refit_stages": _stage_breakdown(inc_stages),
        "cold_rebuild_refit_stages": _stage_breakdown(cold_stages),
        "steady_state_speedup": round(speedup, 2),
        "overall_speedup": round(overall_speedup, 2),
        "warm_rebuild_report_identical": True,
        "resilient_report_identical": True,
        "resilience_overhead": round(resilience_overhead, 4),
        "resilience_replay_seconds": {
            arm: [round(t, 4) for t in times]
            for arm, times in replay_seconds.items()
        },
        "resilience_replay_spread": {
            arm: round(max(times) / min(times) - 1.0, 4)
            for arm, times in replay_seconds.items()
        },
        "resilience_round_overhead_quartiles": [
            round(float(q) - 1.0, 4)
            for q in np.percentile(ratios, [25, 50, 75])
        ],
        "precision_at_5": round(report.precision_at(5), 6),
        "mrr": round(report.mrr, 6),
    }
    write_bench(RESULT_PATH, record)
    print("\nOnline deployment replay")
    print(f"  questions seen / routed: {report.n_questions_seen} / {report.n_routed}")
    print(f"  refits: {report.n_refits}")
    print(
        f"  steady refit mean: incremental {inc_steady * 1e3:.0f} ms "
        f"(evict {np.mean(evict_times) * 1e3:.1f} ms of it), "
        f"cold rebuild {cold_steady * 1e3:.0f} ms, "
        f"{speedup:.1f}x ({overall_speedup:.1f}x incl. startup) "
        f"-> {RESULT_PATH.name}"
    )
    print(
        f"  resilience overhead (faults disabled, median of "
        f"{RESILIENCE_ROUNDS} alternating pairs): "
        f"{resilience_overhead * 100:+.1f}%"
    )
    for arm, stages in (
        ("incremental", inc_stages),
        ("cold rebuild", cold_stages),
    ):
        parts = ", ".join(
            f"{name.split('.')[1]} {np.mean(vals[1:]) * 1e3:.0f} ms"
            for name, vals in stages.items()
            if len(vals) > 1
        )
        print(f"  steady stages ({arm}): {parts}")
    print(f"  hit@1:  {report.hit_rate_at_1:.3f}")
    print(f"  P@5:    {report.precision_at(5):.3f}  (chance {chance:.3f})")
    print(f"  MRR:    {report.mrr:.3f}")
    print(f"  NDCG@5: {report.ndcg_at(5):.3f}")
    assert report.n_refits >= 2
    assert report.n_routed > 0
    # Strictly-causal ranking must beat per-slot chance by 2x.
    assert report.precision_at(5) > 2.0 * chance
    # The vectorized training engine cut cold-rebuild refits roughly 3x
    # (the batched warm-started LDA E-step is most of a rebuild), so the
    # incremental engine's *relative* edge shrank from ~4x to ~2x even
    # though every refit got faster in absolute terms.  The stage
    # breakdown above records where the remaining time goes.
    assert speedup >= 1.8
