GO ?= go

.PHONY: all build test vet race racecp bench crashcheck affcheck overloadcheck ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# racecp is the focused race gate for the parallel CP engine: the smoke
# tests plus the parallel-CP regression and determinism tests.
racecp:
	$(GO) test -race ./... -run 'TestSmoke|TestParallelCP'

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) run ./cmd/waflbench -exp agedvol -benchjson BENCH_PR4.json
	$(GO) run ./cmd/waflbench -exp parallelcp -benchjson BENCH_PR5.json
	$(GO) run ./cmd/waflbench -exp flexgroup -members 4 -benchjson BENCH_PR6.json
	$(GO) run ./cmd/waflbench -exp overload -benchjson BENCH_PR7.json
	$(GO) run ./cmd/waflbench -exp clonefleet -benchjson BENCH_PR8.json

# crashcheck runs the fixed crash corpus (harness.CrashCorpus): whole-node
# crashes at event indices and CP phase boundaries under both CP modes, one
# point mid admission shedding, the clone window, member crashes on a
# two-member cluster, and combined-feature cases. Every point is recovered,
# crashed again before it runs, quiesced, and checked against the model of
# acknowledged state plus fsck on each leg. Deeper search:
# go test -fuzz=FuzzCrashCase ./harness
crashcheck:
	$(GO) run ./cmd/waflbench -crashcheck

# affcheck enforces the single-point member resolution rule: among the
# facade sources, only member.go may index the Waffinity hierarchy's
# aggregate array directly — everything else routes through the Member
# helpers (volAffs/stripeAff/logicalAff).
affcheck:
	@bad=$$(grep -ln 'Aggrs\[' *.go | grep -v '^member\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "affcheck: direct h.Aggrs[...] access outside member.go:"; \
		grep -n 'Aggrs\[' $$bad; \
		exit 1; \
	fi; \
	echo "affcheck OK: Aggrs[] indexed only in member.go"

# overloadcheck runs the open-loop burst study (admission control off vs
# on) and asserts the SLO contract: without admission the burst drives the
# latency-sensitive p99.9 into open-loop blowup; with admission the
# controller sheds bulk load and the latency-sensitive tail stays bounded.
overloadcheck:
	$(GO) run ./cmd/waflbench -overloadcheck

# ci is the gate run before merging (GitHub CI runs it as is): vet, build,
# the affinity-access gate, the full test suite under the race detector, the
# parallel-CP race gate, the crash corpus and the admission-control SLO
# check.
ci: vet build affcheck race racecp crashcheck overloadcheck

clean:
	rm -f wafltop waflbench *.test
