#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --smoke ...

The first call configures and builds the `perfbench` target from the
sources in this checkout into $CARGO_TARGET_DIR (default .bench_build);
later calls only rebuild what changed. One workload runs in one child
process, so its peak RSS is its own. The child's report is passed through
and its last line, one JSON object with the keys correct, attempted,
failed and metrics, is checked against BENCHMARK.json and printed last.
`--workload all` runs every workload untraced and then traced and
prints every metric by name with its unit.

Exits non-zero when any operation fails, and without a result line when
the checkout has no sources to build, the build fails, or a run misses a
metric or prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build the harness; returns the binary path."""
    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: nothing to build" % (needed, ROOT))
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_one(binary, spec, workload, seed, seconds, trace, smoke):
    """Run one workload in its own process; returns its result object."""
    out_dir = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line (exit %d)" %
             (workload, proc.returncode))
    expected = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in expected:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"]:
            fail("%s: metric %s missing or not in %s" %
                 (workload, m["name"], m["unit"]))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: malformed result keys %s" % (workload, sorted(result)))
    ok = proc.returncode == 0 and result["correct"] and not result["failed"]
    if not ok:
        print("perfbench: %s: %d of %d operations failed (exit %d)" %
              (workload, result["failed"], result["attempted"],
               proc.returncode), file=sys.stderr)
    return result, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run briefly; checks wiring, not performance")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r; expected one of %s or all" %
             (args.workload, ", ".join(names)))
    seconds = args.seconds
    if seconds is None:
        seconds = 0.1 if args.smoke else spec["run_seconds"]
    binary = build()

    if args.workload != "all":
        result, ok = run_one(binary, spec, args.workload, args.seed,
                             seconds, args.trace, args.smoke)
        print(json.dumps(result))
        sys.exit(0 if ok else 1)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for w in names:
            print("== %s (%s)" % (w, "traced" if trace else "end to end"))
            r, ok = run_one(binary, spec, w, args.seed, seconds, trace,
                            args.smoke)
            summary["correct"] = summary["correct"] and ok
            summary["attempted"] += r["attempted"]
            summary["failed"] += r["failed"]
            for k, v in r["metrics"].items():
                summary["metrics"]["%s/%s" % (w, k)] = v
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
