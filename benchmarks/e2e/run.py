"""Wall-clock end-to-end benchmark of the recommendation service.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                    # every workload
    python3 benchmarks/e2e/run.py --workload dense_steady --seed 3 --seconds 16
    python3 benchmarks/e2e/run.py --trace                     # per-layer run
    python3 benchmarks/e2e/run.py --repeat 10                 # spread check

With ``--workload`` and no ``--repeat`` one workload runs in this
process; otherwise each (workload, seed) runs in a fresh subprocess,
one after another, and the runs are summarised.  A single run prints
every metric by name with its unit, the diagnostics and the correctness
checks, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace`` its per-layer ones.
The exit code is non-zero when any check fails.  A single run pins
itself to one core, and its end-to-end times are scaled to a fixed CPU
speed by ``hostspeed.SpeedProbe``.

``--seed`` draws the traffic; the forum is the same for every seed,
so every seed does the same work.
``--repeat N`` runs seeds ``seed .. seed+N-1`` per workload and prints
the median and quartiles of every metric, flagging each end-to-end
metric whose spread (interquartile range over median) exceeds its
bound; ``--record PATH`` adds that set, with the medians of a few
diagnostics, to a JSON baseline file.  Span files of ``--trace`` runs
are written only when ``--out DIR`` is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread and serial model fits: the heads' matrices are small,
# and a second thread only adds scheduling noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_N_JOBS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("dense_steady", "two_stage_burst", "refit_churn")
DEFAULT_SECONDS = 16.0
CHILD_TIMEOUT_S = 600
DIAGNOSTICS_PREFIX = "  diagnostics "
# Diagnostics whose medians a --record set keeps beside the metrics:
# what each traffic mix exercises (batching, shedding, pruning) and how
# fast the host ran.
RECORDED_DIAGNOSTICS = (
    "open_batch_size", "mean_batch_size", "rejected", "pool_frac",
    "candidates", "query_p99_ms", "speed_setup", "speed_open",
)


def _import_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no source tree at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, spec: dict) -> int:
    """Run one workload in this process and print its result."""
    # One core for the whole process, so the speed probe's thread runs
    # on the core the service runs on: the cores of a shared machine
    # slow down independently of each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_source_tree()
    from repro import perf

    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  scale {args.scale}  trace {int(args.trace)}"
    )
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            with perf.use_registry() as registry:
                result = workloads.run_workload(
                    args.workload, args.seed, args.seconds, args.scale,
                    setups=1,
                )
            spans = list(tracer.spans)
            overhead = tracer.overhead(result.service.core, result.questions)
        metrics = tracing.layer_metrics(
            spans, result.service.metrics(), registry, overhead
        )
        for label, a, b, ok in tracing.reconcile(spans, registry):
            result.checks.append(
                (
                    f"reconcile {label}",
                    ok,
                    f"perf {a:.4f} s vs spans {b:.4f} s "
                    f"(tolerance {tracing.RECONCILE_TOLERANCE:.0%})",
                )
            )
        if args.out:
            out = Path(args.out) / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(out, spans)
            print(f"  {len(spans)} spans written to {out}")
        else:
            print(f"  {len(spans)} spans recorded (--out DIR writes them)")
        print("  end-to-end (traced, not gated):")
        for name, value in result.metrics.items():
            print(f"    {name:34s} {_fmt(value)}")
    else:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, args.scale
        )
        metrics = result.metrics
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    unmeasured = [name for name in units if not math.isfinite(metrics[name])]
    result.checks.append(
        (
            "every metric measured",
            not unmeasured,
            f"{len(units) - len(unmeasured)} of {len(units)} finite",
        )
    )
    for name in unmeasured:
        metrics[name] = 0.0
    print(f"  {kind.replace('_', '-')} metrics:")
    for name in units:
        print(f"    {name:34s} {_fmt(metrics[name])} {units[name]}")
    print(DIAGNOSTICS_PREFIX + json.dumps(result.diagnostics))
    print(f"  requests: {result.attempted} attempted, {result.failed} failed")
    for label, ok, detail in result.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if result.correct else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_many(args, spec: dict) -> int:
    """Run (workload, seed) pairs in fresh subprocesses and summarise."""
    kind = "per_layer" if args.trace else "end_to_end"
    defs = {m["name"]: m for m in spec[kind]}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    # Per workload, one (result, diagnostics) pair per finished run.
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    all_ok = True
    for name in names:
        for r in range(args.repeat):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed + r),
                "--seconds", str(args.seconds),
                "--scale", args.scale,
                "--trace", str(int(args.trace)),
            ]
            if args.out:
                cmd += ["--out", args.out]
            try:
                child = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                print(f"{name} seed {args.seed + r}: timed out", file=sys.stderr)
                all_ok = False
                continue
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            all_ok &= child.returncode == 0
            lines = child.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} seed {args.seed + r}: no result", file=sys.stderr)
                all_ok = False
                continue
            diagnostics = next(
                (
                    json.loads(line[len(DIAGNOSTICS_PREFIX):])
                    for line in lines
                    if line.startswith(DIAGNOSTICS_PREFIX)
                ),
                {},
            )
            runs[name].append((result, diagnostics))
    summary: dict[str, dict] = {}
    print(f"\nsummary over seeds {args.seed}..{args.seed + args.repeat - 1}")
    for name, pairs in runs.items():
        if not pairs:
            continue
        print(f"{name}  ({len(pairs)} runs)")
        stats: dict[str, dict] = {}
        for metric, d in defs.items():
            values = [res["metrics"][metric]["value"] for res, _ in pairs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            stats[metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            flag = ""
            if "bound" in d and spread > d["bound"]:
                flag = f"  SPREAD > bound {d['bound']}"
            print(
                f"  {metric:34s} median {med:.6g} {d['unit']}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{flag}"
            )
        diagnostics = {
            key: statistics.median(diag[key] for _, diag in pairs)
            for key in RECORDED_DIAGNOSTICS
            if all(key in diag for _, diag in pairs)
        }
        print(f"  diagnostics (medians) {json.dumps(diagnostics)}")
        summary[name] = {"metrics": stats, "diagnostics": diagnostics}
    if args.record:
        _record(Path(args.record), args, summary)
    results = [res for pairs in runs.values() for res, _ in pairs]
    print(
        json.dumps(
            {
                "correct": all_ok and all(res["correct"] for res in results),
                "attempted": sum(res["attempted"] for res in results),
                "failed": sum(res["failed"] for res in results),
                "metrics": {
                    f"{name}.{metric}": {
                        "value": stats["median"],
                        "unit": defs[metric]["unit"],
                    }
                    for name, per_workload in summary.items()
                    for metric, stats in per_workload["metrics"].items()
                },
            }
        )
    )
    return 0 if all_ok else 1


def _record(path: Path, args, summary: dict) -> None:
    """Append this set of runs, with provenance, to a baseline file."""
    sys.path.insert(0, str(HERE.parent))
    from _meta import bench_meta

    record = json.loads(path.read_text()) if path.exists() else {"sets": []}
    record["sets"].append(
        {
            "meta": bench_meta(args.seed),
            "seconds": args.seconds,
            "seeds": [args.seed + r for r in range(args.repeat)],
            "trace": bool(args.trace),
            "workloads": summary,
        }
    )
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded set {len(record['sets'])} in {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the traffic"
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--out", help="directory to write span files to (default: none)"
    )
    parser.add_argument("--record", help="baseline JSON to add this set to")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload and args.repeat == 1 and not args.record:
        return run_one(args, spec)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no source tree at {ROOT / 'src'}")
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
