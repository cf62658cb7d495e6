# CI runs exactly these targets (.github/workflows/ci.yml), so local runs
# and the gate can never drift apart.

GO ?= go

.PHONY: build test race bench bench-gate perfbench-test fmt examples smoke smoke-shards smoke-workspace

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The multi-seed runner is concurrent; always gate it under the race
# detector.
race:
	$(GO) test -race ./...

# One seed per figure benchmark: a smoke reproduction whose output CI
# uploads as an artifact. -benchmem publishes allocs/op next to the
# custom metrics (BenchmarkScale adds segs/sec of wall time), so the
# artifact tracks both the figures and the zero-allocation data path.
# Redirect-then-cat instead of tee: a pipe would report tee's exit
# status and let a failing benchmark slip past CI.
# On success the text output is also rendered into BENCH_6.json — the
# machine-readable artifact (committed as the baseline, uploaded by CI)
# that makes the custom metrics diffable across commits.
# The zero-allocation hot-path micros (netlink event marshal/parse,
# segment wire append, trace record, metrics increment) are then re-run
# at -benchtime=3x
# and appended: benchjson keeps the LAST result per benchmark, so the
# artifact carries their steadier 3x numbers (observed allocs/op spread
# across repeated 3x runs: exactly 0) and cmd/benchgate can hold them to
# its tight alloc ceiling while the figure macros stay at the loose one.
MICRO_BENCH = ^Benchmark(NetlinkEvent(Marshal|Parse)|SegmentAppendWire|TraceRecord|MetricsInc)$$

bench:
	@$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' . > bench.txt; \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) test -bench='$(MICRO_BENCH)' -benchtime=3x -benchmem -run '^$$' . >> bench.txt || status=$$?; \
	fi; \
	cat bench.txt; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/benchjson -o BENCH_6.json bench.txt; \
	fi; exit $$status

# Regression gate over the bench artifact: stash the committed
# BENCH_6.json as the baseline, rerun `make bench` (which overwrites it),
# and fail if any throughput metric (*_per_wall_s) or allocs/op column
# regressed past cmd/benchgate's thresholds — loose on purpose, since
# -benchtime=1x on shared runners is noisy; the gate is for cliffs and
# leaks, not single-digit noise. A benchmark that vanished also fails;
# new benchmarks ride free until the baseline is re-committed.
bench-gate:
	@set -e; \
	base=$$(mktemp); \
	cp BENCH_6.json $$base; \
	trap 'rm -f '$$base EXIT; \
	$(MAKE) bench; \
	$(GO) run ./cmd/benchgate $$base BENCH_6.json

# perfbench/ is its own Go module, so the root `go vet ./...` and
# `go test ./...` never build it. Vet and self-test it against the
# current tree (its go.mod replaces the root module with ../), so an API
# change in the simulator cannot silently break the benchmark harness.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Run EVERY registered scenario end to end with -smoke (reduced
# durations/sizes/seeds); any non-zero exit fails. The list is taken from
# the scenario registry itself, so a newly registered scenario is smoked
# automatically — no Makefile edit needed. The last step exercises the
# tracing pipeline end to end: record a traced fig2a run and analyse it
# with `mpexp report` (text, JSON, and CSV exports all must succeed).
smoke:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	for s in $$($$bin list -names); do \
		echo "== smoke: mpexp run $$s"; \
		$$bin run $$s -smoke >/dev/null; \
	done; \
	echo "== smoke: mpexp run fleet (48 devices, 2x handover rate)"; \
	$$bin run fleet -smoke -set devices=48 -set handover_rate=2 >/dev/null; \
	echo "== smoke: mpexp run ctlstress (wide window, tight queue)"; \
	$$bin run ctlstress -smoke -set window=1ms -set queue=16 >/dev/null; \
	tdir=$$(mktemp -d); \
	echo "== smoke: mpexp run fleet -metrics-out (runtime metrics export)"; \
	$$bin run fleet -smoke -metrics-out $$tdir/fleet.metrics.json >/dev/null; \
	test -s $$tdir/fleet.metrics.json; \
	echo "== smoke: mpexp run fig2a -trace && mpexp report"; \
	$$bin run fig2a -smoke -trace $$tdir/fig2a.trace >/dev/null; \
	$$bin report $$tdir/fig2a.trace -csv $$tdir/csv >/dev/null 2>&1; \
	$$bin report $$tdir/fig2a.trace -json >/dev/null; \
	rm -rf $$tdir

# Every registered scenario once more, but with -shards 4 on a
# race-instrumented binary: the end-to-end gate for the sharded parallel
# core's cross-shard synchronisation. Per-seed results are bit-identical
# at any shard count, so any divergence or data race here is a bug in
# the lookahead windows, not the model. Tracing is single-shard only
# (rejected with -shards > 1), so the traced run stays in `smoke`.
smoke-shards:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -race -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	for s in $$($$bin list -names); do \
		echo "== smoke (-race, -shards 4): mpexp run $$s"; \
		$$bin run $$s -smoke -shards 4 >/dev/null; \
	done; \
	echo "== smoke (-race, -shards 4): mpexp run fleet (64 devices)"; \
	$$bin run fleet -smoke -shards 4 -set devices=64 >/dev/null; \
	echo "== smoke (-race, -shards 4): mpexp run ctlstress (8 conns)"; \
	$$bin run ctlstress -smoke -shards 4 -set conns=8 >/dev/null

# Workspace round-trip gate: init a temp .mpexp workspace, run every
# registered scenario twice (same seed, captured into the workspace) and
# require `mpexp diff` to come back clean at tolerance 0 — any drift
# between two identical runs is a determinism regression. The committed
# example manifests (examples/manifests/) are also run twice and diffed,
# gating the manifest loader and the sweep cell layout end to end. The
# final fleet pair runs with -metrics, so the diff also covers the two
# captured metrics.json snapshots (wall-clock-tagged metrics excluded,
# everything else compared at tolerance 0).
smoke-workspace:
	@set -e; \
	bin=$$(mktemp -u); \
	$(GO) build -o $$bin ./cmd/mpexp; \
	trap 'rm -f '$$bin EXIT; \
	ws=$$(mktemp -d); \
	( cd $$ws; $$bin init >/dev/null; \
	  for s in $$($$bin list -names); do \
		echo "== workspace smoke: $$s (run twice + diff)"; \
		$$bin run $$s -smoke >/dev/null; \
		$$bin run $$s -smoke >/dev/null; \
		$$bin diff $$s-001 $$s-002; \
	  done; \
	  for m in $(CURDIR)/examples/manifests/*.json; do \
		n=$$(basename $$m .json); \
		echo "== workspace smoke: manifest $$n (run twice + diff)"; \
		$$bin run $$m >/dev/null; \
		$$bin run $$m >/dev/null; \
		$$bin diff $$n-001 $$n-002; \
	  done; \
	  echo "== workspace smoke: fleet -metrics (run twice + diff metrics.json)"; \
	  $$bin run fleet -smoke -metrics >/dev/null; \
	  $$bin run fleet -smoke -metrics >/dev/null; \
	  test -s .mpexp/runs/fleet-003/metrics.json; \
	  $$bin diff fleet-003 fleet-004 ); \
	rm -rf $$ws

# Build and RUN every example end to end; any non-zero exit fails. The
# examples are the facade's acceptance surface, so they are executed,
# not just compiled. examples/manifests/ holds scenario manifests, not
# Go programs — directories without Go files are skipped (the manifests
# are exercised by smoke-workspace instead).
examples:
	@set -e; for d in examples/*/; do \
		ls $$d*.go >/dev/null 2>&1 || continue; \
		echo "== $$d"; $(GO) run ./$$d; \
	done
