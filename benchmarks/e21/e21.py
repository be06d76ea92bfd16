#!/usr/bin/env python3
"""E21: absolute end-to-end latency budget for the query service, layer by layer.

Three ways in, one measurement underneath::

    # what the benchmark driver runs (one workload, one JSON line out)
    python3 benchmarks/e21/e21.py --workload adhoc_point --seed 21 --seconds 10 --trace 0

    # every workload, end to end and traced, every metric printed by name
    python3 benchmarks/e21/e21.py run --seed 21 --out DIR [--repeats 5] [--quick]

    # two such directories: within bound / regression / unresolved per metric
    python3 benchmarks/e21/e21.py compare DIR_A DIR_B

``--trace 0`` boots the real server (``python -m repro.cli serve``, default
configuration), drives it closed-loop through the real ``ServiceClient`` and
prints the end-to-end metrics; ``--trace 1`` replays a fixed sample of the
same requests through each layer's public functions with a span around
every call and prints the per-layer budget.  Names, units and regression
bounds live in ``BENCHMARK.json`` at the repository root and nowhere else.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"e21: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402 - needs the path set up above
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Window constants, in one place.  The issue's 20 s window with a 2 s warm-up
#: does not fit the driver's time cap (114 runs in 3420 s); all five workloads
#: are shortened equally: ``--seconds`` (10 in BENCHMARK.json) and 1 s.
WARMUP_SECONDS = 1.0
#: How often a run sets the system up, by shard count; ``setup_s`` is the
#: median.  A cluster boot takes ~8 s here (partition, persist three
#: snapshots, two workers), so it is set up once — its relative noise is the
#: smallest of all.
SETUPS = {1: 3, 2: 1}
#: Peak memory is read once this share of the requests a workload generates
#: per second of window (workloads.WORKLOADS) is done: about the middle of the
#: window on this machine, and the same *request count* on any machine.
RSS_AFTER_SHARE = 0.25
#: Allowed distance between a measured cache / routing share and its design.
SHARE_TOLERANCE = 0.03


def _check_shares(workload: workloads.Workload, before: dict, after: dict) -> tuple[dict, list[str]]:
    """Measured cache / routing shares over the window, and how they miss the design."""
    shares = {
        "answer_hit_share": harness.hit_share(before["answer_cache"], after["answer_cache"]),
        "plan_hit_share": harness.hit_share(before["plan_cache"], after["plan_cache"]),
    }
    problems = []
    if abs(shares["answer_hit_share"] - workload.answer_hit_share) > SHARE_TOLERANCE:
        problems.append(
            f"answer_hit_share is {shares['answer_hit_share']:.3f}, designed {workload.answer_hit_share:.2f}"
        )
    for key, design in workload.routing.items():
        share = harness.routing_share(before["routing"], after["routing"], key)
        shares[f"routing_{key}_share"] = share
        if abs(share - design) > SHARE_TOLERANCE:
            problems.append(f"routing share of {key} is {share:.3f}, designed {design:.2f}")
    return shares, problems


def measure_end_to_end(name: str, seed: int, seconds: float) -> dict:
    """One untraced run of workload *name*: the end-to-end metrics."""
    workdir = harness.run_directory(name)
    database = workloads.build_database()
    workload = workloads.build_workload(name, database, seed, seconds)
    deployment = None
    setup_times = []
    try:
        for __ in range(SETUPS[workload.shards]):
            if deployment is not None:
                deployment.close()
            deployment = harness.set_up(workdir, workload.shards, workload.prepared, workload.both_check)
            setup_times.append(deployment.setup_seconds)
        rss_after = int(RSS_AFTER_SHARE * workloads.WORKLOADS[name][1] * seconds)
        result = harness.drive(deployment, workload, WARMUP_SECONDS, seconds, rss_after)
        checked = violations = 0
        if workload.both_check:
            checked, violations = harness.both_check(deployment.client)
        environment = harness.environment_stanza(deployment.server)
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(workdir, ignore_errors=True)

    verified, wrong, digest = harness.verify(workload, result.retained, database)
    shares, problems = _check_shares(workload, result.before, result.after)
    for problem in problems:
        print(f"e21: {name}: {problem}", file=sys.stderr)
    window = harness.window_statistics(result.samples, result.marks)
    per_segment = [harness.window_statistics(result.samples, pair) for pair in zip(result.marks, result.marks[1:])]
    segments = {key: [segment[key] for segment in per_segment if segment] for key in window}
    values = {**window, "server_peak_rss_mb": result.peak_rss_mb, "setup_s": statistics.median(setup_times)}
    latencies = sorted(latency for __, latency in result.samples)
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "correct": wrong == 0 and violations == 0 and not problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "values": values,
        "details": {
            "samples": len(result.samples),
            "segments": segments,
            "segment_iqr_share": {key: harness.iqr_share(series) for key, series in segments.items()},
            "latency_p99_ms": 1000.0 * harness.percentile(latencies, 0.99),
            "latency_max_ms": 1000.0 * latencies[-1],
            "latency_mean_ms": 1000.0 * statistics.fmean(latencies),
            "failed_share": result.failed / result.attempted,
            "wrong_answers": wrong + violations,
            "verified": verified,
            "both_checked": checked,
            "answers_digest": digest,
            "shares": shares,
            "design_problems": problems,
            "setup_times_s": setup_times,
            "loadgen_cpu_share": result.loadgen_cpu_share,
        },
        "environment": environment,
    }


def _declared(result: dict) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    return SPEC["per_layer"] if result["trace"] else SPEC["end_to_end"]


def final_line(result: dict) -> str:
    """The driver's contract: one JSON object, exactly these four keys."""
    metrics = {
        metric["name"]: {"value": result["values"][metric["name"]], "unit": metric["unit"]}
        for metric in _declared(result)
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    harness.pin_to_one_cpu()
    out.mkdir(parents=True, exist_ok=True)
    if trace:
        import layers

        result = layers.measure_layers(name, seed, seconds, out)
    else:
        result = measure_end_to_end(name, seed, seconds)
    (out / f"result_{name}_trace{trace}_seed{seed}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return result


def print_metrics(result: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"# {result['workload']} (seed {result['seed']}, {result['seconds']} s, trace {result['trace']})")
    print(f"#   why: {result['why']}")
    for metric in _declared(result):
        print(f"{result['workload']:16s} {metric['name']:44s} {result['values'][metric['name']]:14.4f} {metric['unit']}")
    if not result["trace"]:
        details = result["details"]
        print(
            f"{result['workload']:16s} samples={details['samples']} verified={details['verified']} "
            f"wrong_answers={details['wrong_answers']} failed_share={details['failed_share']:.4f} "
            f"answers_digest={details['answers_digest'][:16]}"
        )


# run: every workload, both modes ------------------------------------------------


def command_run(arguments: argparse.Namespace) -> int:
    out = Path(arguments.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    seconds = 1.0 if arguments.quick else float(SPEC["run_seconds"])
    runs = []
    database = workloads.build_database()
    for name in workloads.WORKLOADS:
        workloads.save_requests(
            workloads.build_workload(name, database, arguments.seed, seconds), out / f"requests_{name}.jsonl"
        )
    # Round robin: this machine slows down by a quarter for minutes at a time,
    # and such a stretch then costs every workload a run or two (which a
    # median forgets) instead of costing one workload most of its runs.
    for repeat in range(arguments.repeats):
        for name in workloads.WORKLOADS:
            for trace in (0, 1) if repeat == 0 else (0,):  # one traced run per workload
                runs.append(run_one(name, arguments.seed + repeat, seconds, trace, out))
                print_metrics(runs[-1])
    ok = all(run["correct"] for run in runs)
    summary = {
        "schema": "e21-results/v1",
        "seed": arguments.seed,
        "seconds": seconds,
        "quick": bool(arguments.quick),
        "repeats": arguments.repeats,
        "bounds": {metric["name"]: metric for metric in SPEC["end_to_end"]},
        "runs": runs,
    }
    (out / "results.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(f"e21: wrote {out / 'results.json'}" + ("" if ok else " - FAILED the correctness gate"))
    return 0 if ok else 1


# compare: two result directories ------------------------------------------------


def _series(results: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every untraced run."""
    series: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        for metric, value in run["values"].items():
            series.setdefault((run["workload"], metric), []).append(value)
    return series


def _segment_spread(results: dict, workload: str, metric: str) -> float:
    """Within-run spread of a timing metric (the fallback with too few runs)."""
    shares = [
        run["details"]["segment_iqr_share"][metric]
        for run in results["runs"]
        if not run["trace"] and run["workload"] == workload and metric in run["details"]["segment_iqr_share"]
    ]
    return statistics.median(shares) if shares else 0.0


def command_compare(arguments: argparse.Namespace) -> int:
    """Classify each end-to-end metric of each workload: B against baseline A."""
    first = json.loads((Path(arguments.a) / "results.json").read_text())
    second = json.loads((Path(arguments.b) / "results.json").read_text())
    series_a, series_b = _series(first), _series(second)
    regressions = unresolved = 0
    print(f"{'workload':16s} {'metric':28s} {'A median':>12s} {'B median':>12s} {'change':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for metric in SPEC["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in workloads.WORKLOADS:
            a, b = series_a.get((workload, name)), series_b.get((workload, name))
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a if better == "lower" else (median_a - median_b) / median_a
            if min(len(a), len(b)) >= 4:
                spread = max(harness.iqr_share(a), harness.iqr_share(b))
            else:
                spread = max(_segment_spread(first, workload, name), _segment_spread(second, workload, name))
            if name != "setup_s" and spread > bound:
                verdict = "UNRESOLVED (spread wider than bound)"
                unresolved += 1
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "within bound"
            print(
                f"{workload:16s} {name:28s} {median_a:12.4f} {median_b:12.4f} {worse:+8.3f} {spread:8.3f} {bound:6.2f}  {verdict}"
            )
    print(f"e21 compare: {regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


# Entry point --------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="e21.py run", description="run every workload, end to end and traced")
        parser.add_argument("--seed", type=int, default=21)
        parser.add_argument("--out", required=True, help="directory for results.json, request logs and span dumps")
        parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload (seeds N, N+1, ...)")
        parser.add_argument("--quick", action="store_true", help="1 s windows: a smoke test, not a measurement")
        return command_run(parser.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="e21.py compare", description="compare two `run --out` directories")
        parser.add_argument("a", help="baseline directory")
        parser.add_argument("b", help="candidate directory")
        return command_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    started = time.perf_counter()
    result = run_one(arguments.workload, arguments.seed, arguments.seconds, arguments.trace, harness.WORK / "out")
    print_metrics(result)
    print(f"# whole run took {time.perf_counter() - started:.1f} s")
    print(final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
