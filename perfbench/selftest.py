#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/selftest.py

1. Same-seed determinism: two runs of each simulator workload with one
   seed give bit-identical sim-clock metrics and alloc_words_per_op.
2. A second seed passes every output check on every workload.
3. The traced run completes: each traced run checks in-process that its
   traced trial completed the same op count as the untraced one (TCP) or
   simulated identically (simulator), and reports any difference as a
   failed check.

Exits non-zero on the first failing test.  Runs are short (--seconds 3).
"""

import json
import os
import subprocess
import sys

SECONDS = "3"
WORKLOADS = ["ezk-tcp-write", "ezk-tcp-read", "eds-queue-sim", "shard-2pc-failover-sim"]
SIM_WORKLOADS = ["eds-queue-sim", "shard-2pc-failover-sim"]
# metrics whose value is a pure function of the seed on the simulator
DETERMINISTIC = ["latency_p50_us", "kb_per_op", "alloc_words_per_op", "retained_mb"]
DETERMINISTIC_LINES = ["latency_p99_us", "sim_throughput_ops_s", "unavailable_ms",
                       "latency_samples"]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %s: exit %d\n%s" % (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    named = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "[%s]" % workload:
            named[parts[1]] = parts[2]
    return result, named, out.stdout


def check(cond, what, detail=""):
    if not cond:
        sys.exit("FAIL " + what + ("\n" + detail if detail else ""))
    print("ok   " + what)


def main():
    if not os.path.isfile("perfbench/run.py"):
        sys.exit("run from the repository root")

    for w in SIM_WORKLOADS:
        (a, na, _), (b, nb, _) = run(w, 1, 0), run(w, 1, 0)
        same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in DETERMINISTIC)
        same = same and all(na.get(m) == nb.get(m) for m in DETERMINISTIC_LINES)
        check(same and a["attempted"] == b["attempted"],
              "%s: same seed, identical sim-clock metrics" % w,
              json.dumps([a["metrics"], b["metrics"]]))

    for w in WORKLOADS:
        r, _, out = run(w, 2, 0)
        check(r["correct"] and r["failed"] == 0, "%s: seed 2 passes every output check" % w, out)

    for w in WORKLOADS:
        r, _, out = run(w, 1, 1)
        check(r["correct"], "%s: traced run, same op count as untraced" % w, out)


if __name__ == "__main__":
    main()
