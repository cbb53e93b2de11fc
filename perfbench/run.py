#!/usr/bin/env python3
"""Builds and runs the ViteX repository benchmark (see README.md here).

Run from the root of a checkout:

  python3 perfbench/run.py --workload feed|ticker|protein --seed N \\
      --seconds S --trace 0|1
      Builds the library and the perfbench program from the checkout's
      sources (Release, under $CARGO_TARGET_DIR or .bench_build), runs one
      measurement and passes its output through. The last line of stdout is the result
      JSON. The full output is also kept in .bench_results/.

  python3 perfbench/run.py selftest
      Builds and runs the delivery checker's self-test.

  python3 perfbench/run.py compare --base FILE... --new FILE...
      Compares saved outputs metric by metric (medians) against the bounds
      in BENCHMARK.json. Refuses, with exit status 3, to compare results
      whose hardware/build fingerprints differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds; returns the binary directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return out


def run_measurement(args):
    binary = os.path.join(build(), "perfbench")
    results = ".bench_results"
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", stem + ".spans.tsv"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: run failed with status %d" %
                         proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("perfbench: malformed result line")
    with open(stem + ".txt", "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


def selftest():
    binary = os.path.join(build(), "perfbench_checker_test")
    raise SystemExit(subprocess.run([binary]).returncode)


def load(path):
    """Fingerprint and result JSON of one saved output."""
    fingerprint, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("# fingerprint "):
                fingerprint = json.loads(line[len("# fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        raise SystemExit("perfbench: %s is not a saved perfbench output" % path)
    return fingerprint, result


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]
    prints = {json.dumps(fp, sort_keys=True) for fp, _ in base + new}
    if len(prints) != 1:
        print("refusing to compare results from different hardware or builds:")
        for p in sorted(prints):
            print("  " + p)
        raise SystemExit(3)
    worse = False
    for name, m in bounds.items():
        b = [r["metrics"][name]["value"] for _, r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for _, r in new if name in r["metrics"]]
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else 0.0
        regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
        worse |= regress
        print("%-24s base %12.6g  new %12.6g  %+7.1f%%  bound %4.0f%%  %s" %
              (name, mb, mn, 100 * change, 100 * m["bound"],
               "WORSE" if regress else "ok"))
    for _, r in base + new:
        if not r["correct"]:
            print("a compared run was not correct")
            worse = True
    raise SystemExit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        selftest()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", nargs="+", required=True)
        p.add_argument("--new", nargs="+", required=True)
        compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["feed", "ticker", "protein"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run_measurement(p.parse_args())


if __name__ == "__main__":
    main()
