"""The repo's benchmark: one device round, five ways.

    python3 bench/run.py --workload http_round --seed 3 --seconds 12 --trace 0
    python3 bench/run.py [--runs N] [--trace] [--smoke]        # every workload

With ``--workload`` the workload runs in this process and the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Without it every workload runs in a child
process of its own (``--runs`` times each, seeds ``seed .. seed+runs-1``,
then once traced if ``--trace``) and the medians land in
``bench/results/latest.json`` (spans in ``trace.json``).  A run whose
outputs are wrong exits non-zero and publishes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from catalog import BENCH_DIR, REPO_ROOT, SRC_DIR, load_contract

RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SCRATCH_DIR = os.path.join(BENCH_DIR, "scratch")
SMOKE_SECONDS = 1.0
TRACE_SPAN_CAP = 1000  # spans kept per workload in trace.json


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process (default: all, "
                             "each in a child process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the separate traced run that yields the per-layer metrics")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload when running all (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s windows and 100-device sim arms; publishes nothing")
    parser.add_argument("--out", default=None,
                        help="with --workload: also write the run's full report "
                             "(details, spans) here; without: write the results here "
                             "instead of bench/results/latest.json")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_average_1min": os.getloadavg()[0],
    }


def warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > 0.5 * cores:
        print(f"warning: 1-min load average {load:.2f} exceeds half of "
              f"{cores} cores; timings will be noisy", file=sys.stderr)


# --------------------------------------------------------------------- #
# one workload, in this process                                         #
# --------------------------------------------------------------------- #


def run_one(args: argparse.Namespace, contract: dict) -> int:
    sys.path.insert(0, SRC_DIR)
    from workloads import RUNNERS, Context  # imports numpy and repro

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    wanted = contract["per_layer" if traced else "end_to_end"]
    scratch = os.path.join(SCRATCH_DIR, f"run-{os.getpid()}")
    os.makedirs(scratch)
    warn_if_loaded()
    ctx = Context(
        seed=args.seed, seconds=args.seconds, trace=traced, smoke=args.smoke,
        scratch=scratch,
    )
    try:
        outcome = RUNNERS[args.workload](ctx)
    finally:
        for server in ctx.servers:  # a no-op for the ones already stopped
            server.kill()
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for spec in wanted:
        # A layer the workload's rounds never enter reads 0.
        value = outcome.metrics.get(spec["name"], 0.0) if traced \
            else outcome.metrics[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    unknown = set(outcome.metrics) - set(metrics)
    if unknown:
        outcome.problems.append(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    width = max(len(name) for name in metrics)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(traced)} attempted={outcome.attempted} failed={outcome.failed}")
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
    if "round_ms_samples" in outcome.details:
        print(f"  (round_ms_p50 is over {outcome.details['round_ms_samples']} samples; "
              f"their 90th percentile, not gated, is {outcome.details['round_ms_p90']:.6g} ms)")
    if args.out:
        report = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, details=outcome.details,
                      problems=outcome.problems, spans=outcome.spans[:TRACE_SPAN_CAP],
                      spans_recorded=len(outcome.spans))
        with open(args.out, "w") as handle:
            json.dump(report, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# every workload, each in its own child process                         #
# --------------------------------------------------------------------- #


def child_report(workload: str, seed: int, args: argparse.Namespace, trace: int) -> dict:
    out_path = os.path.join(SCRATCH_DIR, f"report-{os.getpid()}.json")
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", out_path]
    if args.smoke:
        command.append("--smoke")
    try:
        completed = subprocess.run(command, cwd=REPO_ROOT, timeout=600)
        if completed.returncode != 0:
            raise SystemExit(f"{workload} (seed {seed}, trace {trace}) exited "
                             f"{completed.returncode}; nothing published")
        with open(out_path) as handle:
            return json.load(handle)
    finally:
        if os.path.exists(out_path):
            os.unlink(out_path)


def run_all(args: argparse.Namespace, contract: dict) -> int:
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    warn_if_loaded()
    results = {
        "environment": environment(),
        "settings": {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
                     "smoke": args.smoke, "traced": bool(args.trace)},
        "workloads": {},
    }
    spans = {}
    for spec in contract["workloads"]:
        name = spec["name"]
        runs = [child_report(name, args.seed + k, args, trace=0) for k in range(args.runs)]
        entry = {
            "runs": [{"seed": r["seed"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {m: v["value"] for m, v in r["metrics"].items()},
                      "details": r["details"]} for r in runs],
            "median": {m["name"]: statistics.median(
                r["metrics"][m["name"]]["value"] for r in runs)
                for m in contract["end_to_end"]},
        }
        if args.trace:
            traced = child_report(name, args.seed, args, trace=1)
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["traced_details"] = traced["details"]
            spans[name] = {"spans_recorded": traced["spans_recorded"],
                           "fields": ["name", "start", "end", "parent", "round_id"],
                           "spans": traced["spans"]}
        results["workloads"][name] = entry
    if args.smoke:
        print("smoke mode: results not published")
        return 0
    os.makedirs(RESULTS_DIR, exist_ok=True)
    results_path = args.out or os.path.join(RESULTS_DIR, "latest.json")
    with open(results_path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if args.trace:
        with open(os.path.join(os.path.dirname(results_path), "trace.json"), "w") as handle:
            json.dump(spans, handle)
            handle.write("\n")
    print(f"wrote {os.path.relpath(results_path)}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench/run.py measures the program under {SRC_DIR}; it is not there",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    if args.workload is not None:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
