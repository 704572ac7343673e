#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run builds `perfbench/` (a Cargo package of its own) in release mode,
runs one workload and prints its result as the last line of standard
output: one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`. The line before it carries the run's host fingerprint.
Every result is also appended, with its fingerprint, to
`perfbench/out/results.jsonl`.

`--all` runs every workload in turn and prints one `<workload> <result>`
line each; it exits nonzero if any run did.

`--compare` prints the change of every end-to-end median between two
such files against the bounds in BENCHMARK.json. It refuses to compare
results whose host fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RESULTS = os.path.join(OUT_DIR, "results.jsonl")
# Host fields that must match for two results to be comparable.
HOST_KEYS = ("nproc", "cpu_model", "rustc", "profile")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        log("build failed")
        return None
    return os.path.join(target_dir(), "release", "drai-perfbench")


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "out"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                    paths.append(os.path.join(dirpath, name))
    for path in paths:
        try:
            with open(path, "rb") as f:
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(f.read())
        except OSError:
            continue
    return h.hexdigest()[:16]


def fingerprint(args):
    git_rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git_rev = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "git_rev": git_rev,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_metrics(spec, result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if result.get("correct") and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return None


def run(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        return 1
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result: {lines[-1][:200]}")
        return 1
    problem = check_metrics(spec, result, args.trace)
    if problem:
        log(problem)
        return 1
    fp = fingerprint(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"fingerprint": fp, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))
    return proc.returncode


def run_all(args):
    worst = 0
    for w in load_spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"{w['name']} {lines[-1] if lines else '(no result)'}", flush=True)
        worst = worst or proc.returncode
    return worst


def self_test():
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([binary, "--self-test"], cwd=ROOT).returncode


def load_results(path):
    out = []
    with open(path) as f:
        for line in f:
            if line.strip():
                out.append(json.loads(line))
    return out


def compare(old_path, new_path):
    spec = load_spec()
    old, new = load_results(old_path), load_results(new_path)
    hosts = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS) for r in old + new}
    if len(hosts) != 1:
        log("refusing to compare results from different hosts or toolchains:")
        for h in sorted(hosts, key=str):
            log("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)))
        return 2
    regressions = 0
    print(f"{'workload':<18} {'metric':<18} {'old median':>12} {'new median':>12} {'worse by':>9} {'bound':>6}")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            def values(rs):
                return [
                    r["result"]["metrics"][m["name"]]["value"]
                    for r in rs
                    if r["fingerprint"]["workload"] == w["name"]
                    and not r["fingerprint"]["trace"]
                    and r["result"].get("correct")
                ]
            a, b = values(old), values(new)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  REGRESSION" if worse > m["bound"] else ""
            regressions += bool(flag)
            print(f"{w['name']:<18} {m['name']:<18} {ma:>12.4f} {mb:>12.4f} {worse:>+9.3f} {m['bound']:>6.2f}{flag}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
