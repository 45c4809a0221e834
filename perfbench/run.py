#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`) and runs it with the same arguments; its last
line of output is the result as one JSON object.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <k>

runs the workload k times with seeds n, n+1, ..., prints each run's metrics
beside the share of host CPU time stolen by the hypervisor during the run
(from /proc/stat), then per metric the median, the quartiles and the
spread (q3 - q1) / median.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({r.returncode})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def run_once(binary, args):
    """Run once; returns (result dict, steal share) or exits on failure."""
    before = cpu_times()
    r = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    after = cpu_times()
    if r.returncode != 0:
        sys.exit(f"error: benchmark exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return json.loads(lines[-1]), steal


def repeat(binary, args, k):
    i = args.index("--seed")
    seed0 = int(args[i + 1])
    runs = []
    for n in range(k):
        a = list(args)
        a[i + 1] = str(seed0 + n)
        res, steal = run_once(binary, a)
        runs.append(res)
        vals = " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items())
        st = "n/a" if steal is None else f"{100 * steal:.2f}%"
        print(f"seed {seed0 + n}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} steal={st} {vals}", flush=True)
    summary = {}
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for m in runs[0]["metrics"]:
        vals = [r["metrics"][m]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{m:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    print(json.dumps(summary))


def main():
    args = sys.argv[1:]
    k = None
    if "--repeat" in args:
        i = args.index("--repeat")
        k = int(args[i + 1])
        del args[i:i + 2]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if k is None:
        sys.stdout.flush()
        os.execv(str(binary), [str(binary)] + args)
    repeat(binary, args, k)


if __name__ == "__main__":
    main()
