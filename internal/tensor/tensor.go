// Package tensor implements the parallel float32 numeric kernels (GEMM
// variants, elementwise ops, reductions, softmax) that the
// neural-network layers are built on.
//
// Design notes:
//
//   - Every kernel is a package-level function over raw []float32
//     slices holding contiguous row-major matrices, with the shape
//     passed as ints. Keeping a single layout lets every kernel be a
//     flat loop that the Go compiler can bounds-check-eliminate and
//     that internal/parallel can split, and lets the attention layers
//     hand sub-slices of larger buffers straight to a kernel.
//   - float32 is used throughout: the paper's workloads train in mixed
//     precision, and float32 halves memory traffic versus float64,
//     which dominates pure-Go GEMM performance.
//
// # Fused tiled attention
//
// FlashAttnFwd/FlashAttnBwd (attention.go) implement attention without
// materializing the (T×T) score matrix: K/V are streamed in tiles, the
// softmax is maintained online (running max and exp-sum per query,
// with an exp(mPrev−mNew) correction applied to the output accumulator
// when the max advances), the 1/√d scale is folded into the tile pass,
// and only the per-row (max, exp-sum) statistics survive the forward —
// O(T) state from which the backward recomputes any probability
// exactly. Heads are narrow and sequences long, so the head dimension
// rides the micro-kernel's mr = 6 row axis and tokens its nr = 16
// lanes: score tiles are stored panel-major, 16 tokens to a row, which
// is both what the micro-kernel writes with ldc = nr and what it reads
// as a B-panel, so P and dS feed their products as they lie and the
// only repack is one 16×16-block transpose of dS for dQ. The panel
// kernels — the column-wise online softmax, the backward's
// P/dS strip pass, the block transpose (flashkern.go) — run in AVX2
// assembly (flashkern_amd64.s) with scalar twins sharing the same
// Cephes exponential.
//
// # Elementwise kernel family
//
// GELU/GELUBackward (gelu.go) and LayerNorm/LayerNormBackward/
// LayerNormParamGrads (layernorm.go) run eight lanes at a time in AVX2
// assembly (gelu_amd64.s, layernorm_amd64.s) with scalar twins. GELU
// is evaluated as x·σ(2u), u = √(2/π)(x + 0.044715x³), with σ built
// from one float32 exp(−|2u|) and one divide per lane; LayerNorm's row
// reductions are eight float32 lane sums folded in one fixed tree, its
// dγ/dβ reductions — and ColumnSums, a Linear layer's bias gradient —
// run down the columns in row order. Two rules hold:
// every element (every row, for LayerNorm) goes through identical
// arithmetic wherever a caller cuts the buffer, so results do not
// depend on GOMAXPROCS; and the assembly uses unfused multiplies and
// adds in the scalar lanes' order, so both builds agree bitwise.
package tensor
