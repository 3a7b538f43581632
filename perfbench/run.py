#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fit-ota|predict|serve-jobs \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default .bench_build). Its standard output passes through unchanged:
a provenance record, then as the last line the JSON result. The record
is also saved under .perfbench-results/ for compare.py.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench-results")
# A run measures for --seconds; set-up, warm-up and checks come on top.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tool_output(argv, cwd):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the sources the benchmark builds, which identifies the
    code when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "fixtures"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    # Cargo's own output goes to stderr so the result stays the last
    # line of standard output.
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "caffeine-perfbench")


def main():
    args = sys.argv[1:]
    for needed in ("crates", "vendor"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            fail(f"no {needed}/ next to perfbench/: run from a full checkout of the repository")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    binary = build(env)
    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "--version"], ROOT)
    env["PERFBENCH_COMMIT"] = (
        tool_output(["git", "rev-parse", "HEAD"], ROOT)
        if os.path.exists(os.path.join(ROOT, ".git"))
        else "unknown"
    )
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    try:
        proc = subprocess.run(
            [binary] + args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S}s")
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        record = json.loads(lines[-2])
        record["result"] = json.loads(lines[-1])
        os.makedirs(RESULTS, exist_ok=True)
        p = record["provenance"]
        name = f"{p['workload']}-seed{p['seed']}-trace{int(p['trace'])}-{time.time_ns()}.json"
        with open(os.path.join(RESULTS, name), "w") as f:
            json.dump(record, f)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
