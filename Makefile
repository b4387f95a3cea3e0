# Developer entry points. `make check` is what CI (and the PR checklist)
# runs: vet, build, race-enabled tests, and the proof that disabled
# telemetry costs zero allocations.

GO ?= go

.PHONY: all check vet build lint lint-fix-dryrun test bench-telemetry bench bench-compare fuzz fuzz-zns fuzz-ftl fuzz-faults fuzz-shards fault-campaign slo-campaign whatif-campaign explain-campaign shard-campaign update-golden clean

all: check

check: vet build lint test bench-telemetry fault-campaign slo-campaign whatif-campaign explain-campaign shard-campaign

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Project-specific static analysis (docs/static-analysis.md): determinism
# (no wall clock/global rand/map-order leaks), concurrency (sim core is a
# single-threaded virtual-time loop), nilguard (nil instruments are no-ops),
# tickunit (no time.Duration in tick arithmetic), pairing (AttrSink
# brackets close on every path), exhaustive (zone-state switches and the
# experiment registry are complete). Diffs against the committed baseline —
# LINT_BASELINE.json holds the accepted findings (currently none) — and
# fails on anything new AND on stale entries, so suppression debt can only
# shrink deliberately.
lint:
	$(GO) run ./cmd/simlint -baseline LINT_BASELINE.json ./...

# Triage helper: list the findings the tool could fix mechanically (nilguard
# inserts, missing switch cases) with the edit each would get. Never edits.
lint-fix-dryrun:
	$(GO) run ./cmd/simlint -fix-dryrun ./...

test:
	$(GO) test -race ./...

# The telemetry layer's contract: with no probe attached, every instrument
# (including the latency-attribution sink, the zone state-machine auditor,
# and the flight recorder) is a nil no-op — 0 allocs/op. A regression here
# slows every simulation.
bench-telemetry:
	$(GO) test -run='^$$' -bench=ProbeDisabled -benchmem ./internal/telemetry/ ./internal/telemetry/critpath/ ./internal/telemetry/exemplar/ ./internal/zns/ ./internal/fault/

# Regenerate the pinned JSON schemas served by /metrics.json and
# /attribution.json after a deliberate schema change.
update-golden:
	$(GO) test ./internal/telemetry/httpserve/ -update

# The full per-table benchmark suite (slow; custom metrics carry results).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Rerun the committed benchmark suite (full E4+E6) and gate it against the
# committed baseline at 0.1%: the run is deterministic, so any drift is a
# modeling change that must regenerate BENCH_baseline.json deliberately.
# The E14 SLO run keeps a 25% threshold against BENCH_slo.json. The last
# line pins -bench-json byte-for-byte across pool widths (benchdiff does
# not compare max_us). Loosen per-investigation with
# `go run ./cmd/benchdiff -threshold ...`.
bench-compare:
	$(GO) run ./cmd/znsbench -run E4,E6 -bench-json /tmp/blockhead-bench-new.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.001 BENCH_baseline.json /tmp/blockhead-bench-new.json
	$(GO) run ./cmd/znsbench -slo -run E14 -bench-json /tmp/blockhead-bench-slo.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.25 BENCH_slo.json /tmp/blockhead-bench-slo.json
	$(GO) run ./cmd/znsbench -shards 4 -run E4,E6 -bench-json /tmp/blockhead-bench-width4.json > /dev/null
	cmp /tmp/blockhead-bench-new.json /tmp/blockhead-bench-width4.json

# The fault campaign's acceptance bar (docs/faults.md): the same seed and
# profile reproduce the E13 report bit-for-bit — NAND faults, the power
# loss, and both stacks' recoveries included.
fault-campaign:
	$(GO) run ./cmd/znsbench -quick -faults default -run E13 > /tmp/blockhead-e13-a.txt
	$(GO) run ./cmd/znsbench -quick -faults default -run E13 > /tmp/blockhead-e13-b.txt
	cmp /tmp/blockhead-e13-a.txt /tmp/blockhead-e13-b.txt

# The SLO campaign's acceptance bar: the same seed reproduces the E14
# noisy-neighbor report bit-for-bit — per-tenant breakdowns, the blame
# matrix with its exact conservation line, and the SLO verdicts included.
slo-campaign:
	$(GO) run ./cmd/znsbench -quick -slo -run E14 > /tmp/blockhead-e14-a.txt
	$(GO) run ./cmd/znsbench -quick -slo -run E14 > /tmp/blockhead-e14-b.txt
	cmp /tmp/blockhead-e14-a.txt /tmp/blockhead-e14-b.txt

# The what-if campaign's acceptance bar: a counterfactual run (scaled
# timing parameters + write-pointer early ack) reproduces its report
# bit-for-bit — the early-ack path is computed from device state alone, so
# probes cannot perturb the schedule.
whatif-campaign:
	$(GO) run ./cmd/znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4 > /tmp/blockhead-whatif-a.txt
	$(GO) run ./cmd/znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4 > /tmp/blockhead-whatif-b.txt
	cmp /tmp/blockhead-whatif-a.txt /tmp/blockhead-whatif-b.txt

# The explain campaign's acceptance bar (docs/observability.md): the
# forensic replay of one measured IO — timeline, blame, device state, and
# what-if verdicts — reproduces byte-for-byte across two runs, because the
# narrative is a pure function of (seed, experiment, sequence number).
explain-campaign:
	$(GO) run ./cmd/znsbench -quick -explain E6:926 > /tmp/blockhead-explain-a.txt
	$(GO) run ./cmd/znsbench -quick -explain E6:926 > /tmp/blockhead-explain-b.txt
	cmp /tmp/blockhead-explain-a.txt /tmp/blockhead-explain-b.txt

# The part pool's acceptance bar (docs/parallel-sim.md): the same seed
# renders byte-identical reports whatever the -shards count (the pool
# width). TestShardEquivalence covers every experiment under -race; this
# campaign pins the shipped binary end to end.
shard-campaign:
	$(GO) run ./cmd/znsbench -quick -shards 1 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-1.txt
	$(GO) run ./cmd/znsbench -quick -shards 2 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-2.txt
	$(GO) run ./cmd/znsbench -quick -shards 4 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-4.txt
	cmp /tmp/blockhead-shards-1.txt /tmp/blockhead-shards-2.txt
	cmp /tmp/blockhead-shards-1.txt /tmp/blockhead-shards-4.txt

# Short fuzz pass over the trace decoder.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=30s ./internal/trace/

# Short fuzz pass over the ZNS zone state machine (auditor attached).
fuzz-zns:
	$(GO) test -run='^$$' -fuzz=FuzzZoneStateMachine -fuzztime=30s ./internal/zns/

# Short fuzz pass over the conventional FTL's GC victim index: random
# (seed, policy/mode/streams/separation/fault profile, crash point) churn,
# every pick checked against the full-device scan oracle and the index
# against a from-scratch rebuild after every op.
fuzz-ftl:
	$(GO) test -run='^$$' -fuzz=FuzzVictimIndex -fuzztime=30s ./internal/ftl/

# Short fuzz pass over the differential fault harness: random
# (seed, profile, crash point) schedules against the integrity oracle and
# the zone state-machine auditor, both stacks.
fuzz-faults:
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/core/

# Short fuzz pass over the part pool: random (seed, pool width, crash
# point) schedules run both fault-campaign stacks serially and on the pool;
# the oracle verdicts must match exactly.
fuzz-shards:
	$(GO) test -run='^$$' -fuzz=FuzzShardSchedule -fuzztime=30s ./internal/core/

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.json cpu.pprof
