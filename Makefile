GO ?= go
AGGVET := bin/aggvet

.PHONY: build test fmt vet lint lint-fixtures race chaos check bench fuzz cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt over every Go file outside testdata (analyzer fixtures and fuzz
# corpora are inputs, not sources): any file it would rewrite fails.
fmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own determinism/networking invariants (DESIGN.md §8),
# enforced by the custom multichecker in cmd/aggvet via the vettool
# protocol. The script prints a per-analyzer diagnostic summary and
# exits non-zero on any finding; coverage of sqlagg/ and live/ is
# asserted, not assumed.
lint:
	GO="$(GO)" AGGVET="$(AGGVET)" sh scripts/lint.sh

# The analyzers' own test suites: CFG/dataflow engine tests plus the
# hermetic want-comment fixtures under internal/analysis/*/testdata.
lint-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/aggvet/

race:
	$(GO) test -race ./...

# The distributed layer's fault-injection scenarios, race-checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/dist/... ./internal/faultnet/...

# Short fuzz sweep over the wire decoder, the record codecs, the
# fault-spec parser, the aggregation tables and the query layer's group
# keys — the same smoke CI runs; use `go test -fuzz=... -fuzztime=10m` for a
# real session.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame' -fuzztime 15s ./internal/dist/
	$(GO) test -run '^$$' -fuzz 'FuzzRawRoundTrip' -fuzztime 15s ./internal/tuple/
	$(GO) test -run '^$$' -fuzz 'FuzzPartialRoundTrip' -fuzztime 15s ./internal/tuple/
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec' -fuzztime 15s ./internal/faultnet/
	$(GO) test -run '^$$' -fuzz 'FuzzInsertMergeDrain' -fuzztime 15s ./internal/aggtable/
	$(GO) test -run '^$$' -fuzz 'FuzzConcurrentInsertMerge' -fuzztime 15s ./internal/aggtable/
	$(GO) test -run '^$$' -fuzz 'FuzzBatchUpdate' -fuzztime 15s ./internal/aggtable/
	$(GO) test -run '^$$' -fuzz 'FuzzKeyEncoding' -fuzztime 15s ./internal/query/

# Statement-coverage ratchet against scripts/coverage-floor.txt.
cover:
	GO="$(GO)" sh scripts/coverage.sh

# What CI runs (CI additionally shuffles test order and runs
# staticcheck/govulncheck, which need network access to install).
check: fmt vet lint race

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...
