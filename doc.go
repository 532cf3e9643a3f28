// Package repro is a from-scratch Go reproduction of "Pretraining
// Billion-scale Geospatial Foundational Models on Frontier" (Tsaris et
// al., IPDPS 2024; arXiv:2404.11706).
//
// The repository contains three complete systems:
//
//   - A pure-Go deep-learning stack (tensors, transformer layers with
//     explicit backprop, ViT, masked autoencoders, AdamW/LARS, data
//     loaders, procedural remote-sensing datasets) that really trains
//     the paper's Section V pipeline at laptop scale.
//
//   - A real multi-rank execution layer (internal/dist +
//     train.PretrainDistributed): in-process goroutine ranks with
//     working ring collectives and subgroup communicators executing
//     the paper's full strategy matrix — DDP, ZeRO-1, ZeRO-3-style
//     FULL_SHARD, and two-level HYBRID_SHARD data-parallel training.
//
//   - A discrete-event performance simulator of the Frontier
//     supercomputer and PyTorch FSDP (machine model, α–β–γ collective
//     costs, sharding strategies, prefetch policies, memory and power
//     models) that regenerates the paper's Section IV scaling studies.
//
// The commands (cmd/pretrain, cmd/linprobe, cmd/serve) import the
// internal packages that do the work, and those packages carry the
// runnable Example walkthroughs. The paper's tables and figures are
// regenerated by cmd/repro, and each is also wrapped one-to-one by the
// benchmarks in bench_test.go. See README.md and ARCHITECTURE.md.
//
// # Distributed execution
//
// internal/dist runs a World of N goroutine ranks joined in a ring by
// per-edge channels: ring AllReduce, ReduceScatter, AllGather and a
// pipelined Broadcast on []float32, zero-copy with a per-step
// acknowledgement handshake, plus World.Subgroup communicators that
// scope the same collectives to rank subsets (with their own rings, so
// disjoint groups collect concurrently). train.PretrainDistributed,
// the one training loop (train.Pretrain is its call on a world of one
// rank, whose collectives move nothing), builds on it: seed-identical
// model replicas synchronized by a parameter broadcast, a rank-sharded
// sampler that partitions exactly the one-rank batch sequence,
// lock-step mask streams (mae.DrawMasks), and the full Section III-C strategy matrix as one
// optimizer step over FSDP's FlatParameter: nn.FlattenParams makes each
// replica's tensors windows of the rank's two padded flat buffers, so
// the model, the collectives and the optimizer work on the same bytes
// with no pack/unpack copies, and every rank runs one opt.ShardedAdamW
// over the flat spans it owns — the whole space under
// DDP/NO_SHARD/HYBRID_1GPU, its chunk of every gradient bucket under
// SHARD_GRAD_OP, FULL_SHARD and HYBRID_kGPUs — and fsdp.Plan
// (ShardRanks, RegathersInBackward) is the one place that says what
// each strategy shards and gathers.
// An N-rank run reproduces the one-rank loss trajectory to within
// float reassociation for every strategy (and the one-rank run is,
// bit for bit, the per-parameter reference loop internal/train's tests
// rebuild from ZeroGrads → Step → ClipGradNorm → AdamW.Step), a run
// hands on one artifact, the resumable TrainState that cmd/pretrain
// -out writes and cmd/serve -ckpt and cmd/linprobe -checkpoint read,
// and every executed
// collective is counted and simultaneously priced by the internal/comm
// α–β model; the per-step byte counts are held equal — exactly — to
// the internal/fsdp simulator's accounting (fsdp.TrafficPerStep) by
// test. cmd/pretrain exposes the whole path via -ranks, -strategy
// (ddp | zero1 | full | hybrid:k), -precision (fp32 | bf16), -overlap
// and -accum; `make bench-dist` records steps/s versus world size and
// precision, plus overlap on/off at accumulation windows 1 and 4 on a
// congested simulated link, into BENCH_dist.json.
//
// # Communication–computation overlap (executed)
//
// The one-call protocol (internal/dist): a rank issues every data
// collective with Group.Do(rank, Collective{Op, Buf, Wire, Root,
// After}) — Wire nil for the fp32 wire, a uint16 scratch for bf16 —
// and receives a Handle; the ring machinery runs on a per-(rank,
// group) worker goroutine fed by an issue queue, FIFO per group, while
// the rank keeps computing. Handle.Wait blocks until that operation
// (and every operation issued before it on the same group) has
// completed and returns the reduce-scatter shard view; Buf and Wire
// are owned by the collective until Wait, and a synchronous collective
// is Do(...).Wait(). After orders an operation behind a handle from
// another group's queue — how HYBRID_SHARD chains a gradient bucket's
// replica-group all-reduce behind its shard-group reduce-scatter. A
// peer rank's failure aborts in-flight handles with dist.ErrAborted,
// re-raised by Wait.
//
// train.PretrainDistributed drives the protocol from the
// unit-granular backward (mae.BackwardStepLayers, whose event k
// finalizes unit L−1−k of perfmodel.Workload.Units, the one unit table
// the simulator prices too, so the events tile the flat parameter
// space in reverse): the moment a wire bucket's gradient
// range is final it is packed, scaled and launched, and the loop waits
// on all handles only before clipping and the optimizer — FSDP's
// overlapped per-unit reduction, really run, for every strategy and
// precision. Overlap on and off execute the identical operations in
// the identical issue order, so they are bitwise-identical
// trajectories with identical wire bytes (tested across the full
// matrix); DistConfig.AccumSteps adds micro-batch gradient
// accumulation with collectives, loss-scale bookkeeping and the
// optimizer firing once per window, leaving per-optimizer-step traffic
// exactly at fsdp.TrafficPerStep.
//
// The exposed-comm decomposition: every rank times each per-step
// scalar all-reduce and handle wait, and DistResult reports rank 0's
// WallSec = ComputeSec + ExposedCommSec (trace.ExecBreakdown) — the
// executed counterpart of the simulator's ComputeTime/ExposedComm
// split. With
// dist.Options.Throttle the α–β modeled cost of each collective
// becomes real executed delay, so on a congested link the overlapped
// schedule's exposed-communication time drops strictly below the
// synchronous schedule's at identical results — the paper's
// hidden-latency story, measured instead of asserted.
//
// # Mixed precision (executed bf16)
//
// Every strategy also runs under the paper's AMP-style bf16 recipe
// (train.DistConfig.Precision = BF16), executed rather than merely
// priced:
//
// Wire format: gradient reductions and parameter gathers cross the
// ring as []uint16 bf16 payloads — the high 16 bits of the IEEE-754
// float32 encoding, produced by round-nearest-even conversion
// (tensor.ToBF16/FromBF16, AVX2 assembly with a purego fallback) — at
// exactly half the fp32 bytes. Reductions accumulate in fp32: each
// ring hop widens the incoming bf16 chunk, adds it into the local
// float32 partial, and re-rounds the chunk it forwards, so results are
// deterministic and bit-identical on every rank (dist.Collective.Wire
// selects the wire format of any call).
//
// Master-weight layout: each rank's ShardedAdamW owns an fp32 master
// copy plus fp32 Adam moments for its contiguous flat shard [lo, hi);
// the model computes on bf16-valued float32 working weights, re-derived
// from the master after each update (tensor.RoundBF16) and re-assembled
// across the shard group by the bf16 all-gather — 4+8+2 = 14 resident
// bytes per parameter, the figure perfmodel.MixedPrecision charges.
// Dynamic loss scaling (opt.LossScaler, power-of-two schedule) guards
// the narrow wire: overflow — detected locally where the reduction
// replicates gradients, by a scalar all-reduce of the ranks' verdicts
// where each rank sees only its shard — skips the optimizer step and
// backs the scale off, while skipped steps still run the parameter
// all-gather so measured traffic stays pinned to the simulator's
// dtype-aware accounting. Checkpoint/resume (train.TrainState) captures master
// weights, moments and the scale schedule, and resumes
// bitwise-identically in either precision.
//
// # Kernel architecture
//
// Every FLOP of the training stack flows through internal/tensor's
// GEMM kernels on top of internal/parallel's persistent worker pool.
//
// The GEMMs use the blocked GotoBLAS structure around one 6×16
// register-tiled micro-kernel (AVX2+FMA assembly on amd64, selected by
// CPUID at startup; without it — non-amd64, the `purego` build tag, or
// no AVX2 — its portable Go twin, which gives the same bits, runs the
// same blocked path). The kernel accumulates a C tile over a 256-long K
// strip and addresses both operands by strides, so all three variants
// (MatMul, MatMulTA, MatMulTB), their strided MatMul*Ld forms and the
// attention tiles share one inner loop
// whether it reads a packed, zero-padded panel or the caller's matrix
// where it lies. The driver only multiplies: the first strip's
// write-back stores (C is never pre-zeroed), later strips add, and the
// last strip adds the bias of tensor.MatMulBias, so a Linear layer's
// x·W + b is one pass over C. Packing is a copy that pays only when
// the other dimension's panel count amortises it: row-major A is read
// in place (only a ragged bottom panel is packed); transposed A is
// packed per 72-row slab by each worker; transposed B is packed, the
// pack being the transpose, unless A has fewer rows than B and only a
// few row panels — the input-gradient GEMM dx = dy·Wᵀ at a few dozen
// rows — where the product runs as Cᵀ = B·Aᵀ instead: the weight's rows
// read in place, the small A packed, each tile written back into C
// transposed; row-major B is packed once per call and shared read-only
// across workers when many row panels reuse it or its rows are far
// apart, and read in place otherwise — the weight-gradient GEMMs
// dW = xᵀ·dy, whose few hundred output rows cannot amortise a copy of
// thousands of token rows. None of these choices changes a bit of the
// result, and every product, down to a single multiply-add, takes this
// one path.
//
// Parallel loops split output rows into deterministic contiguous
// ranges (parallel.Split) sized to at least 2^16 multiply-adds per
// task; tasks are claimed from a lock-free cursor by long-lived pool
// workers plus the submitting goroutine, so a GEMM call performs no
// goroutine spawns and no steady-state allocations. The attention
// layer drives its per-head products through the strided entry points
// directly against the fused QKV buffers, with no rearrangement
// copies in the backward pass.
//
// Attention runs fused — nn.MultiHeadAttention has one path, and the
// materialized form exists only as the tests' oracle:
// tensor.FlashAttnFwd/FlashAttnBwd stream K/V in tiles through the
// same micro-kernel (over packed panels), maintain the softmax online (running max
// and exp-sum per query, the 1/√d scale folded into the tile pass),
// and keep only O(T) per-row statistics — the backward recomputes
// probabilities from them bitwise, so the T×T score matrix is never
// materialized in either direction. Heads are narrow and sequences
// long, so the kernels are oriented around the micro-kernel's shape:
// the head dimension rides its 6-row axis, tokens ride its 16 lanes,
// and score tiles are stored panel-major (16 tokens to a row) — the
// layout the micro-kernel both writes with ldc = 16 and reads as a
// B-panel. The forward computes Sᵀ = K·Qᵀ, runs the online softmax
// down the tile's columns with 16 queries on the lanes (AVX2 assembly
// with a scalar twin, exponentials in place), and feeds the tile as it
// lies to Oᵀ += Vᵀ·Pᵀ; the backward turns recomputed S/dP strips into
// P and dS in one pass per strip, feeds them as they lie to
// dVᵀ += dOᵀ·P and dKᵀ += Qᵀ·dS, and transposes dS in 16×16 blocks —
// the one repack of a probability-sized operand — for dQᵀ += Kᵀ·dSᵀ.
// Non-finite scores reach the output instead of being flushed, which
// the bf16 loss scaler's skip decision depends on. bf16 serving
// rounds weights and inputs to bf16 values held in float32 slots and
// runs them through the same fp32 GEMM.
//
// The non-GEMM passes that used to dominate a step run through one
// AVX2 elementwise family with scalar twins (tensor/gelu.go,
// tensor/layernorm.go): tensor.GELU and GELUBackward evaluate the tanh
// GELU as x·σ(2u) from one float32 exp(−|2u|) and one divide per lane,
// and tensor.LayerNorm, LayerNormBackward and LayerNormParamGrads
// reduce each row as eight float32 lane sums folded in one fixed tree
// (the dγ/dβ sums run down the columns in row order). nn.GELU's and
// nn.LayerNorm's Apply and Backprop call the one kernel on recording
// and frozen arenas alike, so serving equals training by construction.
// The family's third member is the optimizer phase (tensor/adamw.go, tensor/sumsq.go):
// tensor.AdamW is the whole update in one all-float32 pass — the clip
// factor multiplied into the gradient as it is read, the bf16 working
// copy optionally written beside the fp32 weights — and every
// optimizer in the tree is a loop over it (opt.ShardedAdamW, which
// the one training step runs at every world size, and opt.AdamW, which
// fine-tuning and the tests' reference loop run); tensor.SumSq is Σx²
// in eight float64 lanes keyed by flat index, so nn.GradL2Norm's
// per-parameter walk and a rank's per-span walk produce the same bits,
// and its AddScaled form takes the overflow verdict and unscales in the
// same read. Every element — every row, for LayerNorm — goes through
// identical arithmetic wherever parallel.Range cuts the buffer, and the
// assembly matches the scalar lanes bitwise, so results depend on
// neither GOMAXPROCS nor the build.
//
// Benchmarks: `go test -bench 'GEMM|GELU|LayerNorm|AdamW|SumSq' ./internal/tensor/
// ./internal/nn/` reports achieved GFLOP/s (against the unblocked
// triple loop, BenchmarkGEMMNaiveBaseline) and GB/s for the
// elementwise kernels; `make bench` records the numbers into
// BENCH_gemm.json for the cross-PR perf trajectory.
package repro
