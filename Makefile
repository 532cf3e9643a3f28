# Developer entry points for the repro tree. CI runs vet+build+test
# (also under -tags purego), the arm64 no-fused-multiply-add check
# (`make nofma`), a -race job over the distributed layer, the statgate static-analysis
# gate (`make analyze`), and the docs gate (see
# .github/workflows/ci.yml); `make bench` records the GEMM,
# attention and elementwise (GELU, LayerNorm, AdamW, Σx²) kernel throughput into BENCH_gemm.json, `make bench-dist`
# the multi-rank training throughput into BENCH_dist.json, and `make
# bench-serve` the inference-serving latency percentiles into
# BENCH_serve.json for the perf trajectory across PRs.

GO ?= go

.PHONY: build vet test test-all race nofma analyze docs bench bench-dist bench-serve calibrate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags purego ./...

test:
	$(GO) test -short ./...

test-all:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dist/ ./internal/train/ ./internal/opt/ ./internal/mae/ ./internal/dataload/ ./internal/probe/ ./internal/serve/ ./cmd/pretrain/ ./cmd/serve/ ./cmd/linprobe/ ./cmd/repro/
	$(GO) test -race -run 'BF16|Flash|SoftmaxScaled|GELU|LayerNorm|AdamW|SumSq|ColumnSums|MatMulBias|PackedReference|AsmKernel|PackBPanelT' ./internal/tensor/
	$(GO) test -race ./internal/nn/ ./internal/vit/
	$(GO) test -race -short ./internal/calib/ ./internal/sim/ ./internal/trace/ ./internal/perfmodel/

# No fused multiply-adds: the Go kernels define the bits on every
# build, and the arm64 compiler fuses x*y+z (amd64's does not). Cross-
# build the commands for arm64 and fail if any function of the training
# and serving packages or of the cost model holds an FMADD/FMSUB/
# FNMADD/FNMSUB; a product that feeds a sum is written float32(a*b) + c
# (float64(a*b) + c in the cost model).
NOFMA_PKGS = tensor|nn|vit|mae|opt|train|dist|dataload|geodata|rng|probe|serve|metrics|fsdp|comm|perfmodel|hw|sim|trace

nofma:
	@set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	GOARCH=arm64 $(GO) build -o "$$out/" ./cmd/...; \
	fused=$$(for b in "$$out"/*; do $(GO) tool objdump "$$b"; done | \
		awk '/^TEXT /{fn=$$2} /\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD] /{print fn}' | \
		grep -E '^repro/internal/($(NOFMA_PKGS))[.(]' | sort -u); \
	if [ -n "$$fused" ]; then echo "fused multiply-adds in:"; echo "$$fused"; exit 1; fi; \
	echo "nofma: no fused multiply-adds"

# Static-analysis gate: the repo-invariant analyzer suite (statgate)
# over the whole tree, plus the analyzers' own fixture tests. Findings
# are suppressible only via //statgate:allow pragmas.
analyze:
	$(GO) test ./internal/analysis/ ./cmd/statgate/ ./tools/docgate/ ./tools/benchjson/
	$(GO) run ./cmd/statgate

# Docs gate: formatting, vet, static analysis, and a package comment on
# every package.
docs: analyze
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt -l:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./tools/docgate

# Pass -cpu 1 for kernel rows comparable across PRs on a noisy host:
# `GOFLAGS=-cpu=1 make bench`, alternating with a parent checkout. The
# worker pool's wake-up cost is measured beside it, not recorded here:
#   go test -bench DispatchWake -run NONE -benchtime 1x ./internal/parallel/
bench:
	$(GO) test -bench 'GEMM|GELU|LayerNorm|AdamW|SumSq' -run NONE -benchtime 2s ./internal/tensor/ ./internal/nn/ > bench_gemm.out
	@cat bench_gemm.out
	$(GO) run ./tools/benchjson < bench_gemm.out > BENCH_gemm.json
	@rm -f bench_gemm.out
	@echo "wrote BENCH_gemm.json"

bench-dist:
	$(GO) test -bench 'DistStep|ElasticRestart' -run NONE -benchtime 20x ./internal/train/ > bench_dist.out
	@cat bench_dist.out
	$(GO) run ./tools/benchjson < bench_dist.out > BENCH_dist.json
	@rm -f bench_dist.out
	@echo "wrote BENCH_dist.json"

# Serving: the wall-clock server under timed open-loop load (measured
# p50/p99/throughput) plus its deterministic virtual counterpart.
bench-serve:
	$(GO) test -bench 'Serve' -run NONE -benchtime 3x ./internal/serve/ > bench_serve.out
	@cat bench_serve.out
	$(GO) run ./tools/benchjson < bench_serve.out > BENCH_serve.json
	@rm -f bench_serve.out
	@echo "wrote BENCH_serve.json"

# Calibration: measure this host (GEMM roofline, STREAM, collective α–β
# sweeps, train probe) into hwprofile.json, then run the executed
# simulator-validation matrix once and record the agreement statistics
# into BENCH_calib.json. Not part of tier-1 — it times real runs.
calibrate:
	$(GO) run ./cmd/calibrate -quick -out hwprofile.json
	$(GO) test -bench CalibValidate -run NONE -benchtime 1x ./internal/calib/ > bench_calib.out
	@cat bench_calib.out
	$(GO) run ./tools/benchjson < bench_calib.out > BENCH_calib.json
	@rm -f bench_calib.out
	@echo "wrote hwprofile.json and BENCH_calib.json"
