#!/usr/bin/env python3
"""Compares two sets of benchmark results, or makes them first.

    python3 perfbench/compare.py report PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py run PARENT_ROOT CHANGE_ROOT --out DIR \
        [--workloads fit-ota,predict,serve-jobs]

`report` reads the records run.py saves (one JSON file per run) and
prints, per workload and end-to-end metric: each side's median and
quartiles, how many seed-matched pairs the change won, each side's
failed operations, and a verdict:

  incorrect    a change run reported `correct: false`, or the change
               failed more operations than the parent; no other verdict
               counts then
  better       the change won at least 9 in 10 pairs and the medians
               differ by more than the parent's quartile spread
  regression   the change's median is worse by more than the metric's
               bound in BENCHMARK.json
  unresolved   a side's quartile spread exceeds the bound, and not every
               change run beats every parent run
  no change    none of the above

`run` benchmarks two checkouts (each builds into its own .bench_build),
alternating which side runs first, on seeds 1..10 and then on the
held-out seeds below, which were never used while the benchmark was
built. Every run lasts BENCHMARK.json's `run_seconds`, and `run` stops
at the first run that reports itself incorrect. It then prints the
report, with held-out seeds in rows of their own.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
HOLDOUT_SEEDS = (104729, 130363)


def load(directory):
    """Records by workload, end-to-end runs only."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        prov = rec["provenance"]
        if prov["trace"]:
            continue
        out.setdefault(prov["workload"], []).append(rec)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(a, b, pairs, bound, lower_better):
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    sign = 1 if lower_better else -1
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    worse_by = sign * (mb - ma) / ma
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > (q3a - q1a):
        return wins, "better"
    if spread > bound and not all_better:
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "regression"
    return wins, "no change"


def correctness(recs):
    """Whether every run was correct, and its failed operations summed."""
    results = [r["result"] for r in recs]
    return all(r["correct"] for r in results), sum(r["failed"] for r in results)


def report(parent_dir, change_dir, benchmark):
    with open(benchmark) as f:
        spec = json.load(f)
    parent, change = load(parent_dir), load(change_dir)
    header = f"{'workload':<18}{'metric':<18}{'parent q1/med/q3':<34}{'change q1/med/q3':<34}{'wins':<8}{'failed':<10}verdict"
    print(header)
    for workload in sorted(set(parent) | set(change)):
        for holdout in (False, True):
            recs_a = [r for r in parent.get(workload, []) if (r["provenance"]["seed"] in HOLDOUT_SEEDS) == holdout]
            recs_b = [r for r in change.get(workload, []) if (r["provenance"]["seed"] in HOLDOUT_SEEDS) == holdout]
            if not recs_a or not recs_b:
                continue
            label = workload + (" (held out)" if holdout else "")
            _, failed_a = correctness(recs_a)
            correct_b, failed_b = correctness(recs_b)
            incorrect = not correct_b or failed_b > failed_a
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a = [r["metrics"][name]["value"] for r in recs_a]
                b = [r["metrics"][name]["value"] for r in recs_b]
                by_seed = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in recs_a}
                pairs = [
                    (by_seed[r["provenance"]["seed"]], r["metrics"][name]["value"])
                    for r in recs_b
                    if r["provenance"]["seed"] in by_seed
                ]
                wins, word = verdict(a, b, pairs, metric["bound"], metric["better"] == "lower")
                if incorrect:
                    word = "incorrect"
                fa = "/".join(f"{v:.4g}" for v in quartiles(a))
                fb = "/".join(f"{v:.4g}" for v in quartiles(b))
                print(f"{label:<18}{name:<18}{fa:<34}{fb:<34}{f'{wins}/{len(pairs)}':<8}{f'{failed_a}/{failed_b}':<10}{word}")


def bench_digest(root):
    digest = hashlib.sha256()
    bench = os.path.join(root, "perfbench")
    for dirpath, dirnames, filenames in os.walk(bench):
        dirnames[:] = sorted(dirnames)
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return digest.hexdigest()


def run_one(root, workload, seed, seconds, out_dir):
    """Runs one workload and saves its record; stops on a failed or
    incorrect run."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{root}: {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])
    record["result"] = json.loads(lines[-1])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}.json"), "w") as f:
        json.dump(record, f)
    if not record["result"]["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} reported incorrect output:\n{proc.stderr[-2000:]}")


def run(args):
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    if bench_digest(roots[0]) != bench_digest(roots[1]):
        sys.exit("the two checkouts carry different benchmark code; compare with identical perfbench/")
    with open(os.path.join(roots[1], "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    sides = [os.path.join(args.out, "parent"), os.path.join(args.out, "change")]
    seeds = list(range(1, PAIRS + 1)) + list(HOLDOUT_SEEDS)
    for workload in args.workloads.split(","):
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                run_one(roots[side], workload, seed, seconds, sides[side])
                print(f"{workload} seed {seed} {'parent' if side == 0 else 'change'} done", file=sys.stderr)
    report(sides[0], sides[1], os.path.join(roots[1], "BENCHMARK.json"))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("report")
    r.add_argument("parent_dir")
    r.add_argument("change_dir")
    r.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    m = sub.add_parser("run")
    m.add_argument("parent")
    m.add_argument("change")
    m.add_argument("--out", required=True)
    m.add_argument("--workloads", default="fit-ota,predict,serve-jobs")
    args = p.parse_args()
    if args.mode == "report":
        report(args.parent_dir, args.change_dir, args.benchmark)
    else:
        run(args)


if __name__ == "__main__":
    main()
