GO ?= go

.PHONY: build test race vet fmt-check lint check verify golden golden-check bench-json bench-check bench-smoke scale-smoke devirt-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail, listing the files, if any tracked Go file is not gofmt-clean.
# Listing files with git skips the module cache under .bench_build/.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go') | tee /dev/stderr)"

# The CI gate: lint every example hierarchy, failing on any
# error-severity finding (the frontend's diagnostics; hierarchy rules
# are warnings and notes by design — see README "Linting a hierarchy").
lint:
	$(GO) run ./cmd/chglint -fail-on=error ./examples

# Run the machine-readable benchmark families of internal/harness
# (harness.Families, the configs and strategies of E14–E20) and write
# their records: BENCH_table_build.json (ns/op, allocs/op, visited slots
# per config and strategy), BENCH_edit_relookup.json (edit→requery
# round times per serving strategy, cache-survival fractions),
# BENCH_mro.json (whole-table build per resolution backend, divergent
# cell counts), BENCH_lint.json (edit→re-lint round times, full vs
# cone-scoped re-analysis), BENCH_image.json (warm start per strategy:
# mmap-load vs cold rebuild vs gob decode), BENCH_scale.json
# (20k/50k/100k-class giant hierarchies: streamed vs batched whole-table
# build with peak heap and bytes/class, plus 10k-edit sessions served
# by bulk cone carry vs serial per-edit carry), and BENCH_devirt.json
# (Zipf call-site streams drained by CHA resolution: single-call probe
# vs batched vs parallel-batched ns/site, plus the stream's
# monomorphic/polymorphic census) — the perf trajectory record
# across changes. The scale and devirt families each take minutes; without
# -family, benchjson measures every family but those two.
bench-json:
	$(GO) run ./cmd/benchjson -family table_build,edit_relookup,mro,lint,image,scale,devirt

# The CI-sized scale gate: a 20k-class streamed build plus a 100-edit
# bulk-carry session, with the streaming invariants (chunked working
# set within budget, republish count, carried cells) asserted.
scale-smoke:
	$(GO) test -count=1 -run 'TestFamilySmoke/^scale$$' ./internal/harness

# The CI-sized devirt gate: a 200k-site Zipf stream over a 20k-class
# hierarchy, asserting batched throughput (bottom-up target sets, one
# lookup per class of each member's cone union) is at least the
# single-call baseline and the site census is coherent (monomorphic +
# polymorphic + unresolved covers every site, some monomorphic).
devirt-smoke:
	$(GO) test -count=1 -run 'TestFamilySmoke/^devirt$$' ./internal/harness

# Fail if the checked-in benchmark JSON records no longer match the
# registry structurally (benchmark ids, config or strategy names
# changed without re-running benchjson). Timings are not compared.
bench-check:
	$(GO) test -count=1 -run 'TestBenchRecordsMatchFamilies$$' .

# Compile and smoke-run the repository benchmark (bench/, its own Go
# module), which the root `go build/test ./...` never see, so an API
# change cannot break it unnoticed. Not under -race: race-instrumented
# lint workers overrun the smoke's per-file deadline.
bench-smoke:
	cd bench && $(GO) test ./...

# Regenerate the CLI golden transcripts in internal/cli/testdata/golden.
golden:
	$(GO) test ./internal/cli -run Goldens -update

# Fail if the checked-in goldens are stale w.r.t. the current code.
golden-check: golden
	git diff --exit-code internal/cli/testdata/golden

check: build vet test lint

# Everything CI runs: build, vet, gofmt, the full test suite, the
# example lint gate, golden/benchmark-snapshot staleness, and the
# repository benchmark's smoke test.
verify: build vet fmt-check test lint golden-check bench-check bench-smoke
