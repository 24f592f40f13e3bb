.PHONY: all build test check bench bench-gate bench-dist examples fuzz proof-check serve-smoke perfbench-smoke soak clean

all: build

build:
	dune build

test:
	dune runtest --force

# the gate a PR must pass: full build plus the whole test suite, including
# the certification and chaos-injection suites (test_check) and cram tests
check:
	dune build
	dune runtest

bench:
	dune exec bench/main.exe

# perf-regression gate: re-run the committed sweep cells (the Table 3
# myciel3/myciel4/queen5_5 subset at the committed 2 s budget) and compare
# the fresh BENCH.json against the one committed at HEAD — failing if the
# geomean time over solved cells regresses more than 15% or a previously
# solved cell becomes unsolved. The fresh report replaces BENCH.json in the
# working tree; commit it when the change is intentional.
BENCH_GATE_INSTANCES ?= myciel3,myciel4,queen5_5
bench-gate: build
	git show HEAD:BENCH.json > _build/bench_baseline.json
	dune exec bench/main.exe -- table3 \
	  --instances $(BENCH_GATE_INSTANCES) --run-id gate
	sh scripts/bench_gate.sh _build/bench_baseline.json BENCH.json

# distributed-solve scaling bench + smoke gate: run the certified
# cube-and-conquer driver at 1/2/4 workers over hard UNSAT cells (each
# tree proof re-replayed by the parent), write the curve to
# BENCH_DIST.json, and gate it — red when the report is empty, a cell
# lost a jobs point or its certification, or the best parallel time
# degrades past the core-count-aware slack (flat curves are expected
# and fine on a 1-core box). Commit the fresh report when intentional.
BENCH_DIST_OUT ?= BENCH_DIST.json
BENCH_DIST_TIMEOUT ?= 120
bench-dist: build
	dune exec bench/dist.exe -- --out $(BENCH_DIST_OUT) \
	  --run-id local --timeout $(BENCH_DIST_TIMEOUT)
	sh scripts/bench_dist_gate.sh $(BENCH_DIST_OUT)

# long differential fuzzing run: random graphs and PB formulas against
# brute-force oracles, every settled answer replayed through the RUP
# checker. A short run (COLIB_FUZZ defaults to 220) rides in `make test`;
# override the count for a smoke run: `make fuzz COLIB_FUZZ=60`.
COLIB_FUZZ ?= 2000
fuzz: build
	COLIB_FUZZ=$(COLIB_FUZZ) dune exec test/test_fuzz.exe

# end-to-end certification of the shipped example graphs: solve each with
# proof logging, then replay the proof through the independent checker
# (`check-proof` exits 3 on any rejected proof). The myciel3 -k 3 run
# exercises the UNSAT side: chi(myciel3) = 4, so 3 colors are refutable.
proof-check: build
	@set -e; mkdir -p _build/proofs; \
	for g in examples/graphs/*.col; do \
	  name=$$(basename $$g .col); \
	  echo "== $$g"; \
	  dune exec bin/color.exe -- solve $$g \
	    --proof _build/proofs/$$name.proof; \
	  dune exec bin/color.exe -- check-proof _build/proofs/$$name.proof; \
	done; \
	echo "== examples/graphs/myciel3.col -k 3 (refutation)"; \
	dune exec bin/color.exe -- solve examples/graphs/myciel3.col -k 3 \
	  --proof _build/proofs/myciel3-k3.proof; \
	dune exec bin/color.exe -- check-proof _build/proofs/myciel3-k3.proof; \
	echo "proof-check: all example proofs verified"

# crash-recovery smoke for the coloring service: submit a job, kill -9 the
# daemon mid-solve, restart it, and verify the retrying client still gets
# the certified answer and that resubmitting the same job id is re-delivered
# from the journal instead of recomputed
serve-smoke: build
	sh scripts/serve_smoke.sh

# benchmark smoke: ten seconds of each perfbench workload (oneshot,
# session, serve; see perfbench/README.md). Every workload checks its own
# outputs: proofs replayed, colorings certified, session answers matched
# against a from-scratch exact solve, a verdict for every served job. Red
# unless each result line reports correct, at least one attempted
# operation and no failure.
perfbench-smoke: build
	@set -e; for w in oneshot session serve; do \
	  echo "== perfbench $$w"; \
	  line=$$(dune exec ./perfbench/perfbench.exe -- --workload $$w \
	    --seed 1 --seconds 10 --trace 0 | tail -n 1); \
	  echo "$$line"; \
	  echo "$$line" | grep -q \
	    '^{"correct": true, "attempted": [1-9][0-9]*, "failed": 0,' \
	    || { echo "perfbench-smoke: $$w failed"; exit 1; }; \
	done; \
	echo "perfbench-smoke: all workloads correct"

# randomized chaos soak for the coloring service: a seeded schedule of
# client load against a TWO-daemon fleet routed through the balancer,
# daemon SIGKILLs on either member, fd pressure, injected ENOSPC/EIO
# against the durable-I/O layer, and portfolio races with forged
# clause-share frames — with each daemon's warm worker pool recycling
# aggressively (every worker retires after 2 jobs) under seeded
# worker-kill chaos, and the result cache + coalescing on — with
# end-of-run invariant checks (every job ends exactly once, both
# journals replay, every forged-share race certifies, no orphans, no
# tmp debris).
# Override the knobs: `make soak SOAK_SEEDS="7" SOAK_DURATION=120`.
SOAK_SEEDS ?= 1 2 3
SOAK_DURATION ?= 20
soak: build
	sh scripts/soak.sh "$(SOAK_SEEDS)" $(SOAK_DURATION)

# run each example binary once
examples: build
	dune exec examples/quickstart.exe
	dune exec examples/register_allocation.exe
	dune exec examples/frequency_assignment.exe
	dune exec examples/exam_timetabling.exe
	dune exec examples/queens_scheduling.exe
	dune exec examples/map_coloring.exe
	dune exec examples/dynamic_recoloring.exe

clean:
	dune clean
