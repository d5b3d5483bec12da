# Tier-1 verification in one command (see ROADMAP.md).
.PHONY: all build test check bench-quick chaos linearize membership reads sharding wire perfbench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

check:
	dune build @all && dune runtest

bench-quick:
	dune exec bench/main.exe -- all --quick

# Seeded fault-injection sweep on EZK and EDS (counter + queue recipes
# under the standard nemesis schedule; asserts invariants + determinism).
chaos:
	dune exec bench/main.exe -- chaos

# Linearizability: WGL search over client histories captured by the
# chaos harness and stress workloads, plus the Zab mutation self-test
# (re-enables the divergent-tail bug and asserts the checker convicts).
linearize:
	dune exec bench/main.exe -- linearize

# Elastic membership: seeded 3->5->3 joint-consensus autoscaling runs
# under a reconfiguration-targeted nemesis (leader killed mid-reconfig,
# learner links cut mid-bootstrap); writes BENCH_membership.json.
membership:
	dune exec bench/main.exe -- membership

# Scale-free read path: observer read scaling at 3 voters, leader-lease
# economics (coordination bytes/latency vs the quorum path), and the
# stale-read detector self-test (safe default passes, the lease-expiry
# mutation is convicted on every seed); writes BENCH_reads.json.
reads:
	dune exec bench/main.exe -- reads

# Sharded namespace: write-throughput scaling across 1/2/4/8 replication
# groups (gates >=3x at 4 and >=5x at 8 on a 0%-cross-shard workload),
# the cross-shard 2PC latency/throughput ablation, and seeded chaos runs
# (coordinator leader kills + shard-targeted inter-shard partitions)
# gated on per-shard WGL linearizability and deployment-wide atomicity;
# writes BENCH_sharding.json.
sharding:
	dune exec bench/main.exe -- sharding

# Wire codec + transport: streaming-vs-Marshal codec costs (gated:
# streaming within 2x Marshal on both shapes; the streamed bytes are
# re-parsed as canonical frames before timing; the byte format itself is
# pinned by test/test_golden.ml), corrupt-input rejection costs, and the
# pipelined TCP end-to-end run (gated >= 6700 ops/s over >= 5000 ops,
# with p50/p95/p99); writes BENCH_wire.json.
wire:
	dune exec bench/main.exe -- wire

# Benchmark smoke: one short run of the sharded failover workload (4
# groups, cross-shard 2PC, shard 0's leader killed and restarted) and one
# of the EZK counter write path over loopback TCP (pipelined writes
# group-committed into shared Zab proposals).  Fails unless each run's
# last-line JSON reports "correct": true (atomicity, per-shard replica
# reconciliation and same-seed determinism; an exact counter) and
# "failed": 0.
PERFBENCH_OK = python3 -c 'import json, sys; r = json.load(sys.stdin); ok = r["correct"] is True and r["failed"] == 0; sys.exit(0 if ok else "perfbench smoke failed: correct=%s failed=%s" % (r["correct"], r["failed"]))'

perfbench-smoke:
	python3 perfbench/run.py --workload shard-2pc-failover-sim --seed 1 --seconds 3 --trace 0 \
	  | tee /dev/stderr | tail -n 1 | $(PERFBENCH_OK)
	python3 perfbench/run.py --workload ezk-tcp-write --seed 1 --seconds 3 --trace 0 \
	  | tee /dev/stderr | tail -n 1 | $(PERFBENCH_OK)

clean:
	dune clean
