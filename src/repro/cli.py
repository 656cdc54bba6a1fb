"""Command-line interface.

Subcommands cover the library's end-to-end workflow:

* ``generate``  — create a synthetic forum dataset and write it to disk;
* ``stats``     — print the Sec.-III descriptive summary of a dataset;
* ``train``     — fit the three predictors and save them;
* ``evaluate``  — run the Table-I comparison on a dataset;
* ``route``     — recommend answerers for a question with a saved model;
* ``replay``    — stream a dataset through the online deployment loop;
* ``serve``     — run a seeded concurrent load test against the async
  serving stack and print latency percentiles;
* ``validate``  — check a dataset file for integrity violations;
* ``scale``     — stream a large synthetic forum into columnar stores;
* ``scenarios`` — run the scenario preset matrix (support desk, flash
  crowd, brigading, ...) through replay + serving and print per-regime
  accuracy deltas, latency percentiles and degradation counts.

Usage: ``python -m repro <subcommand> ...`` (see ``--help`` per command).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    ForumPredictor,
    OnlineConfig,
    PredictorConfig,
    QuestionRouter,
    ResilienceConfig,
    RetrievalConfig,
    ServingCore,
    run_table1,
)
from .core.persistence import load_predictor, save_predictor
from .forum import ForumConfig, generate_forum, load_dataset, save_dataset
from .forum.stats import summarize_dataset, summarize_graphs, vote_time_correlation
from .forum.validation import validate_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Joint prediction of answer timing and quality in CQA forums "
        "(reproduction of Hansen et al., ICDCS 2019).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic forum dataset")
    gen.add_argument("--output", type=Path, required=True, help="output .jsonl[.gz]")
    gen.add_argument("--questions", type=int, default=3000)
    gen.add_argument("--users", type=int, default=2000)
    gen.add_argument("--topics", type=int, default=8)
    gen.add_argument("--days", type=float, default=30.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--raw",
        action="store_true",
        help="skip the paper's Sec. III-A preprocessing before saving",
    )

    stats = sub.add_parser("stats", help="summarize a dataset")
    stats.add_argument("--input", type=Path, required=True)

    train = sub.add_parser("train", help="train the three predictors")
    train.add_argument("--input", type=Path, required=True)
    train.add_argument("--model", type=Path, required=True, help="output .npz")
    train.add_argument("--topics", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--betweenness-samples", type=int, default=None)

    evaluate = sub.add_parser("evaluate", help="run the Table-I comparison")
    evaluate.add_argument("--input", type=Path, required=True)
    evaluate.add_argument("--folds", type=int, default=5)
    evaluate.add_argument("--repeats", type=int, default=1)
    evaluate.add_argument("--topics", type=int, default=8)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--betweenness-samples", type=int, default=None)

    validate = sub.add_parser("validate", help="check dataset integrity")
    validate.add_argument("--input", type=Path, required=True)
    validate.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any violation is found",
    )
    validate.add_argument(
        "--repair-to",
        type=Path,
        default=None,
        help="write a repaired copy (invalid posts dropped) to this path",
    )

    replay = sub.add_parser(
        "replay", help="stream a dataset through the online deployment loop"
    )
    replay.add_argument("--input", type=Path, required=True)
    replay.add_argument("--topics", type=int, default=8)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--betweenness-samples", type=int, default=None)
    replay.add_argument("--refit-interval", type=float, default=120.0)
    replay.add_argument("--window", type=float, default=480.0)
    replay.add_argument("--warmup", type=float, default=120.0)
    replay.add_argument("--top-k", type=int, default=5)
    replay.add_argument(
        "--two-stage",
        action="store_true",
        help="route through two-stage candidate retrieval (topic inverted "
        "index + recency + MF embeddings, rank-fusion pool) instead of "
        "scoring every candidate",
    )
    replay.add_argument(
        "--retrieval-top-k",
        type=int,
        default=None,
        metavar="K",
        help="per-generator candidate budget for --two-stage "
        "(default: RetrievalConfig defaults)",
    )
    replay.add_argument(
        "--perf", action="store_true", help="print the stage-timer report"
    )
    replay.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="replay through the fault injector + hardened loop; SPEC is "
        "comma-separated key=value pairs, e.g. "
        "'seed=7,dup=0.05,ooo=0.1,nan=0.02,skew=0.05,trunc=0.02' "
        "(keys: seed, dup[licate], ooo/out_of_order, nan/missing, "
        "skew/clock_skew, skew_hours, trunc[ate], delay/max_delay)",
    )

    serve = sub.add_parser(
        "serve",
        help="drive a seeded concurrent load test against the async "
        "serving stack (admission control + micro-batching) and print "
        "latency percentiles",
    )
    serve.add_argument("--input", type=Path, required=True)
    serve.add_argument("--askers", type=int, default=1000,
                       help="concurrent question askers in the load run")
    serve.add_argument("--events", type=int, default=200,
                       help="event submissions interleaved with the queries")
    serve.add_argument("--duration", type=float, default=60.0,
                       help="virtual seconds the arrival schedule spans")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--topics", type=int, default=8)
    serve.add_argument("--betweenness-samples", type=int, default=None)
    serve.add_argument("--max-batch", type=int, default=8,
                       help="micro-batcher coalescing limit")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batcher max collection window")
    serve.add_argument("--max-pending-queries", type=int, default=512,
                       help="admission bound on the query queue")
    serve.add_argument("--max-pending-events", type=int, default=4096,
                       help="admission bound on the event queue")

    scale = sub.add_parser(
        "scale",
        help="stream a synthetic forum into columnar stores "
        "(bounded memory; prints throughput and peak RSS)",
    )
    scale.add_argument("--users", type=int, default=100_000)
    scale.add_argument("--questions", type=int, default=150_000)
    scale.add_argument("--topics", type=int, default=8)
    scale.add_argument("--days", type=float, default=30.0)
    scale.add_argument(
        "--chunk-questions",
        type=int,
        default=50_000,
        help="questions generated per streamed chunk (memory/throughput knob)",
    )
    scale.add_argument("--seed", type=int, default=0)

    scenarios = sub.add_parser(
        "scenarios",
        help="run the scenario preset matrix through the full stack and "
        "print per-regime accuracy deltas, latency and degradation",
    )
    scenarios.add_argument(
        "--preset",
        action="append",
        default=None,
        metavar="NAME",
        help="preset to run (repeatable; default: all registered); "
        "baseline always runs for the accuracy deltas",
    )
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="forum size multiplier (users and questions together)",
    )
    scenarios.add_argument(
        "--no-serving",
        action="store_true",
        help="skip the async serving leg (replay metrics only)",
    )
    scenarios.add_argument(
        "--list", action="store_true", help="list presets and exit"
    )
    scenarios.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the full matrix report as JSON",
    )

    route = sub.add_parser("route", help="recommend answerers for a question")
    route.add_argument("--input", type=Path, required=True)
    route.add_argument("--model", type=Path, required=True)
    route.add_argument("--question-id", type=int, required=True)
    route.add_argument("--epsilon", type=float, default=0.3)
    route.add_argument("--tradeoff", type=float, default=0.1)
    route.add_argument("--top", type=int, default=10)
    return parser


def _cmd_generate(args) -> int:
    config = ForumConfig(
        n_users=args.users,
        n_questions=args.questions,
        n_topics=args.topics,
        duration_days=args.days,
    )
    forum = generate_forum(config, seed=args.seed)
    dataset = forum.dataset
    if not args.raw:
        dataset, report = dataset.preprocess()
        print(
            f"preprocessed: dropped {report.questions_dropped_unanswered} "
            f"unanswered, {report.duplicate_answers_removed} duplicates, "
            f"{report.zero_delay_answers_removed} zero-delay answers"
        )
    save_dataset(dataset, args.output)
    print(
        f"wrote {len(dataset)} threads ({dataset.num_answers} answers) "
        f"to {args.output}"
    )
    return 0


def _cmd_stats(args) -> int:
    dataset = load_dataset(args.input)
    summary = summarize_dataset(dataset)
    print(f"questions:  {summary.n_questions}")
    print(f"answers:    {summary.n_answers}")
    print(f"askers:     {summary.n_askers}")
    print(f"answerers:  {summary.n_answerers}")
    print(f"users:      {summary.n_users}")
    print(f"density:    {100 * summary.answer_matrix_density:.4f}%")
    if dataset.num_answers >= 2:
        corr = vote_time_correlation(dataset)
        print(f"vote-time correlation: pearson {corr['pearson']:+.4f}")
    for name, g in summarize_graphs(dataset).items():
        print(
            f"graph {name}: {g.n_nodes} nodes, {g.n_edges} edges, "
            f"avg degree {g.average_degree:.2f}, {g.n_components} components"
        )
    return 0


def _config_from_args(args) -> PredictorConfig:
    return PredictorConfig(
        n_topics=args.topics,
        seed=args.seed,
        betweenness_sample_size=args.betweenness_samples,
    )


def _cmd_train(args) -> int:
    dataset = load_dataset(args.input)
    predictor = ForumPredictor(_config_from_args(args)).fit(dataset)
    save_predictor(predictor, args.model)
    print(f"trained on {len(dataset)} threads; model saved to {args.model}")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = load_dataset(args.input)
    result = run_table1(
        dataset,
        config=_config_from_args(args),
        n_folds=args.folds,
        n_repeats=args.repeats,
    )
    print(f"{'task':6s} {'metric':6s} {'baseline':>10s} {'model':>10s} {'improve':>9s}")
    for task, metric, base, model, imp in result.as_rows():
        print(f"{task:6s} {metric:6s} {base:10.3f} {model:10.3f} {imp:8.1f}%")
    return 0


_FAULT_KEYS = {
    "seed": "seed",
    "dup": "duplicate_rate",
    "duplicate": "duplicate_rate",
    "ooo": "out_of_order_rate",
    "out_of_order": "out_of_order_rate",
    "nan": "missing_field_rate",
    "missing": "missing_field_rate",
    "skew": "clock_skew_rate",
    "clock_skew": "clock_skew_rate",
    "skew_hours": "clock_skew_hours",
    "trunc": "truncate_rate",
    "truncate": "truncate_rate",
    "delay": "max_delay_slots",
    "max_delay": "max_delay_slots",
}


def _parse_fault_plan(spec: str):
    from .core.resilience import FaultPlan

    kwargs: dict = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        field_name = _FAULT_KEYS.get(key.strip())
        if not sep or field_name is None:
            raise ValueError(
                f"bad --faults entry {item!r}; keys: "
                + ", ".join(sorted(set(_FAULT_KEYS)))
            )
        if field_name in ("seed", "max_delay_slots"):
            kwargs[field_name] = int(value)
        else:
            kwargs[field_name] = float(value)
    return FaultPlan(**kwargs)


def _cmd_replay(args) -> int:
    from . import perf
    from .core.online import replay

    fault_plan = None
    if args.faults is not None:
        try:
            fault_plan = _parse_fault_plan(args.faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    dataset = load_dataset(args.input)
    retrieval = None
    if args.two_stage:
        overrides = {"seed": args.seed}
        if args.retrieval_top_k is not None:
            overrides.update(
                topic_top_k=args.retrieval_top_k,
                recency_top_k=args.retrieval_top_k,
                mf_top_k=args.retrieval_top_k,
                pool_size=2 * args.retrieval_top_k,
            )
        retrieval = RetrievalConfig(**overrides)
    online = OnlineConfig(
        refit_interval_hours=args.refit_interval,
        window_hours=args.window,
        warmup_hours=args.warmup,
        top_k=args.top_k,
        retrieval=retrieval,
    )
    resilience = ResilienceConfig() if fault_plan is not None else None
    core = ServingCore(_config_from_args(args), online, resilience)
    with perf.use_registry() as registry:
        report = replay(core, dataset, fault_plan)
    print(
        f"{report.n_refits} refits, "
        f"{report.n_questions_seen} questions seen, {report.n_routed} routed"
    )
    refit = registry.stage("online.refit")
    print(
        f"refit time: {refit.total_seconds:.2f}s total, "
        f"{refit.mean_seconds:.2f}s mean over {refit.calls} refits"
    )
    if args.two_stage:
        queries = registry.counter("retrieval.queries")
        pooled = registry.counter("retrieval.pool_users")
        fallbacks = registry.counter("retrieval.dense_fallbacks")
        mean_pool = pooled / queries if queries else 0.0
        print(
            f"retrieval: {queries} pool queries, "
            f"{mean_pool:.1f} candidates/pool mean, "
            f"{fallbacks} dense fallbacks"
        )
    if report.rankings:
        print(
            f"hit@1 {report.hit_rate_at_1:.4f}  "
            f"P@{args.top_k} {report.precision_at(args.top_k):.4f}  "
            f"MRR {report.mrr:.4f}  "
            f"NDCG@{args.top_k} {report.ndcg_at(args.top_k):.4f}"
        )
    if report.degradation is not None:
        summary = report.degradation.summary()
        if summary:
            print("degradation:")
            for action, count in sorted(summary.items()):
                print(f"  {action}: {count}")
        else:
            print("degradation: none (stream replayed clean)")
        injected = registry.counter("resilience.faults_injected")
        if injected:
            print(f"faults injected: {injected}")
    if args.perf:
        print(registry.report())
    return 0


def _cmd_serve(args) -> int:
    from .core.serving import (
        AdmissionConfig,
        BatchPolicy,
        RecommendationService,
        ServiceConfig,
        ServingCore,
        run_load,
    )
    from .forum.traffic import TrafficConfig, generate_traffic

    dataset = load_dataset(args.input)
    core = ServingCore(_config_from_args(args))
    service = RecommendationService(
        core,
        ServiceConfig(
            admission=AdmissionConfig(
                max_pending_events=args.max_pending_events,
                max_pending_queries=args.max_pending_queries,
            ),
            batch=BatchPolicy(
                max_batch=args.max_batch,
                max_wait_s=args.max_wait_ms / 1000.0,
            ),
        ),
    )
    print(f"warming on {len(dataset)} threads ...")
    service.warm(dataset)
    health = service.health()
    if not health["warmed"]:
        print("error: dataset too small to warm the model", file=sys.stderr)
        return 1
    traffic = generate_traffic(
        dataset,
        TrafficConfig(
            n_askers=args.askers,
            n_events=args.events,
            duration_s=args.duration,
            seed=args.seed,
        ),
    )
    report = run_load(service, traffic)
    metrics = report.metrics
    print(
        f"load: {report.n_queries} queries + {report.n_events} events over "
        f"{args.duration:.0f}s virtual ({report.wall_s:.2f}s wall, "
        f"{report.requests_per_wall_s:.0f} req/s sustained)"
    )
    print(
        f"admission: {metrics['queries']['admitted']} queries admitted, "
        f"{metrics['queries']['rejected']} rejected; "
        f"{metrics['events']['admitted']} events admitted, "
        f"{metrics['events']['rejected']} rejected"
    )
    print(
        f"batching: {metrics['queries']['batches']} batches, "
        f"mean size {metrics['queries']['mean_batch_size']:.2f}"
    )
    latency = metrics["query_latency"]
    if latency["count"]:
        print(
            f"query latency (virtual): p50 {latency['p50_ms']:.2f}ms  "
            f"p95 {latency['p95_ms']:.2f}ms  p99 {latency['p99_ms']:.2f}ms"
        )
    statuses = ", ".join(
        f"{status}={count}"
        for status, count in sorted(report.query_statuses.items())
    )
    print(f"responses: {statuses}; {report.n_degraded} degraded")
    summary = service.degradation.summary()
    if summary:
        print("degradation:")
        for action, count in sorted(summary.items()):
            print(f"  {action}: {count}")
    print(f"health: {service.health()['status']}")
    return 0


def _cmd_scale(args) -> int:
    import time

    from .forum.streaming import ingest_stream

    config = ForumConfig(
        n_users=args.users,
        n_questions=args.questions,
        n_topics=args.topics,
        duration_days=args.days,
    )
    start = time.perf_counter()
    log, questions, report = ingest_stream(
        config, seed=args.seed, chunk_questions=args.chunk_questions
    )
    seconds = time.perf_counter() - start
    posts = report.n_questions + report.n_answers
    print(
        f"streamed {report.n_questions} questions + {report.n_answers} "
        f"answers ({report.n_active_users} active of {report.n_users} "
        f"users) in {seconds:.2f}s ({posts / seconds:.0f} posts/s)"
    )
    print(
        f"columnar store: {questions.n_rows} question rows "
        f"({report.question_bytes / 1024**2:.1f} MB), "
        f"{log.n_rows} answer rows ({report.answer_bytes / 1024**2:.1f} MB)"
    )
    print(
        f"{report.n_chunks} chunks of <= {args.chunk_questions} questions; "
        f"peak RSS {report.peak_rss_bytes / 1024**2:.0f} MB"
    )
    return 0


def _cmd_scenarios(args) -> int:
    import json

    from .forum.scenarios import (
        ScenarioMatrixRunner,
        get_scenario,
        list_scenarios,
    )

    if args.list:
        for name in list_scenarios():
            print(f"{name:16s} {get_scenario(name).description}")
        return 0
    names = args.preset or list_scenarios()
    for name in names:
        get_scenario(name)  # fail fast on typos, before any model fits
    runner = ScenarioMatrixRunner(
        names,
        seed=args.seed,
        scale=args.scale,
        include_serving=not args.no_serving,
    )
    result = runner.run()
    header = (
        f"{'scenario':16s} {'threads':>7s} {'hit@1':>7s} {'Δhit@1':>8s} "
        f"{'MRR':>7s} {'p50ms':>8s} {'p99ms':>8s} {'shed':>5s} {'degr':>5s}"
    )
    print(header)
    for name, rep in result["scenarios"].items():
        latency = rep["latency_ms"]
        delta = rep["accuracy_delta"].get("hit_rate_at_1")
        print(
            f"{name:16s} {rep['n_threads']:7d} "
            f"{rep['accuracy']['hit_rate_at_1']:7.4f} "
            f"{('%+8.4f' % delta) if delta is not None else '       -'} "
            f"{rep['accuracy']['mrr']:7.4f} "
            f"{latency.get('p50_ms', float('nan')):8.2f} "
            f"{latency.get('p99_ms', float('nan')):8.2f} "
            f"{rep['n_rejected']:5d} {rep['n_degradations']:5d}"
        )
        if rep["degradation"]:
            for action, count in sorted(rep["degradation"].items()):
                print(f"  {action}: {count}")
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=1, sort_keys=True))
        print(f"matrix report written to {args.output}")
    return 0


def _cmd_route(args) -> int:
    dataset = load_dataset(args.input)
    if args.question_id not in dataset:
        print(f"error: question {args.question_id} not in dataset", file=sys.stderr)
        return 1
    predictor = load_predictor(args.model, dataset)
    router = QuestionRouter(predictor, epsilon=args.epsilon)
    thread = dataset.thread(args.question_id)
    candidates = sorted(dataset.answerers - {thread.asker})
    result = router.recommend(thread, candidates, tradeoff=args.tradeoff)
    if result is None:
        print("no eligible answerers for this question")
        return 1
    print(f"{'user':>8s} {'p':>6s} {'P(answer)':>10s} {'votes':>7s} {'hours':>7s}")
    for user, prob in result.ranked_users()[: args.top]:
        idx = int(result.users.tolist().index(user))
        print(
            f"{user:8d} {prob:6.2f} {result.predictions['answer'][idx]:10.3f} "
            f"{result.predictions['votes'][idx]:7.2f} "
            f"{result.predictions['response_time'][idx]:7.2f}"
        )
    return 0


def _cmd_validate(args) -> int:
    dataset = load_dataset(args.input)
    report = validate_dataset(dataset)
    if report.ok:
        print(f"{args.input}: OK ({len(dataset)} threads)")
        return 0
    for code, count in sorted(report.summary().items()):
        print(f"{code}: {count}")
    for issue in report.issues[:20]:
        print(f"  thread {issue.thread_id}: [{issue.code}] {issue.detail}")
    if len(report.issues) > 20:
        print(f"  ... and {len(report.issues) - 20} more")
    if args.repair_to is not None:
        from .forum.repair import repair_dataset

        repaired, repair_report = repair_dataset(dataset)
        save_dataset(repaired, args.repair_to)
        print(f"repaired copy written to {args.repair_to}: {repair_report}")
        return 0
    return 1 if args.strict else 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "validate": _cmd_validate,
    "route": _cmd_route,
    "replay": _cmd_replay,
    "serve": _cmd_serve,
    "scale": _cmd_scale,
    "scenarios": _cmd_scenarios,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
