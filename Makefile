# Developer entry points. CI (.github/workflows/ci.yml) runs the same steps
# as `make check`, in the same order (build, vet, test, race, lint, then the
# tracegate/detgate/chaosgate determinism gates), plus the bench artifact.

GO ?= go

# Bench knobs: CI uses BENCHTIME=1x for a fast, non-noisy artifact; local
# runs can leave the default measurement time. BENCHCOUNT repeats each
# benchmark; benchjson keeps the best observation per metric (min cost,
# max fps), the standard defence against scheduler/GC noise on shared
# machines. BENCHBASE is the committed baseline benchdiff compares against.
BENCHTIME ?= 1s
BENCHCOUNT ?= 5
BENCHOUT ?= BENCH_pr10.json
BENCHBASE ?= BENCH_pr7.json

.PHONY: check build vet test race lint lintgraph bench benchdiff benchsmoke tracegate detgate chaosgate mpgate miggate scalegate

check: build vet test race lint tracegate detgate chaosgate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the full 12-analyzer suite with per-analyzer wall time on
# stderr, so a slow analyzer is visible the day it regresses.
lint:
	$(GO) run ./cmd/scoutlint -timing ./...

# lintgraph dumps the data-path call graph (roots + resolved edges) in its
# stable text form; CI uploads it as an artifact so reviewers can diff how
# the data-path surface changed.
LINTGRAPH ?= callgraph.txt
lintgraph:
	$(GO) run ./cmd/scoutlint -graph $(LINTGRAPH) ./...

# bench emits the machine-readable perf trajectory: raw `go test -bench`
# output is kept in BENCH_raw.txt and parsed into $(BENCHOUT) by
# cmd/benchjson. Two steps (not a pipe) so a bench failure fails the target.
# The packages are the end-to-end benches (root) and every package that has
# layer microbenches: the tracer, engine (sim), checksums (inet), messages
# (msg), fbufs and the codec (mpeg).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . ./internal/pathtrace ./internal/sim ./internal/proto/inet ./internal/msg ./internal/fbuf ./internal/mpeg > BENCH_raw.txt
	$(GO) run ./cmd/benchjson -in BENCH_raw.txt -out $(BENCHOUT)

# benchdiff gates the perf trajectory: the committed candidate artifact must
# hold its thresholds against the committed baseline (allocs strictly, ns/op
# within ratio when CPUs match, fps no regression, and the flow cache's
# hit-vs-walk separation within the candidate itself).
benchdiff:
	$(GO) run ./cmd/benchjson -base $(BENCHBASE) -new $(BENCHOUT)

# benchsmoke is the CI-fast subset: one iteration of the wall-clock micro
# benchmarks (E1–E3 + cold miss) to prove they still run; timings at
# -benchtime=1x are indicative only.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE1|BenchmarkE2|BenchmarkE3' -benchmem -benchtime 1x .

# tracegate is the determinism regression gate: two same-seed E10 smoke runs
# must export byte-identical traces and metrics.
tracegate:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/mpegbench -run e10 -e10-smoke -trace $$dir/a.json -metrics $$dir/am.json >/dev/null && \
	$(GO) run ./cmd/mpegbench -run e10 -e10-smoke -trace $$dir/b.json -metrics $$dir/bm.json >/dev/null && \
	cmp $$dir/a.json $$dir/b.json && cmp $$dir/am.json $$dir/bm.json && \
	echo "tracegate: E10 exports byte-identical across same-seed runs"; \
	rc=$$?; rm -rf $$dir; exit $$rc

# detgate is the cross-process determinism gate. Each experiment below runs
# twice, as two separate processes, and the two reports must be
# byte-identical once wall-clock lines are dropped:
#   - E9 loss: the sender's retransmit path (fast retransmit, RTO backoff).
#   - E12 smoke: the {fast path, burst} 2x2 grid, whose runner also exits
#     non-zero unless all four cells give identical outputs.
#   - E13 smoke: the k x policy multipath grid with a mid-run link fault.
#   - E14 smoke: a link killed mid-clip and the path respliced onto the
#     spare NIC; the runner enforces one migration within budget, zero
#     incomplete frames and clean audits.
#   - E15 smoke: the sharded kernel; the runner requires identical digests,
#     totals and event counts across shard counts.
#   - E11 overload smoke: chaos, watchdog and graceful degradation.
# A run that exits non-zero fails the gate: its report is written to a file
# before filtering, so no pipe hides the exit status.
detgate:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o $$dir/mpegbench ./cmd/mpegbench && \
	for run in 'loss' 'e12 -e12-smoke' 'e13 -e13-smoke' 'e14 -e14-smoke' 'e15 -e15-smoke' 'overload -overload-smoke'; do \
		for side in a b; do \
			$$dir/mpegbench -run $$run > $$dir/$$side.raw || exit 1; \
			grep -v wall-clock $$dir/$$side.raw > $$dir/$$side.txt; \
		done; \
		cmp $$dir/a.txt $$dir/b.txt || exit 1; \
		echo "detgate: $$run report byte-identical across same-seed runs"; \
	done

# The per-experiment gate names CI and the docs used before detgate existed.
mpgate miggate scalegate: detgate

# chaosgate is the overload-survival gate: the seeded chaos suite (fault
# plane, watchdog, degradation, lifecycle audits) must be race-clean, and
# detgate's same-seed E11 runs must print byte-identical reports.
chaosgate: detgate
	$(GO) test -race ./internal/chaos ./internal/exp -run 'Chaos|E11|Inflate|Stall|Squeeze|Poison|Audit|Destroy'
