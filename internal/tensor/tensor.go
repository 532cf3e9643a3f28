// Package tensor implements the dense float32 tensor type and the
// parallel numeric kernels (GEMM variants, elementwise ops, reductions,
// softmax) that the neural-network layers are built on.
//
// Design notes:
//
//   - Tensors are always contiguous and row-major. Keeping a single
//     layout lets every kernel be a flat loop that the Go compiler can
//     bounds-check-eliminate and that internal/parallel can split.
//   - Kernels also exist as package-level functions over raw []float32
//     slices (MatMul, Softmax, ...), because the attention layers
//     operate on sub-slices of larger buffers and should not have to
//     allocate Tensor headers in inner loops.
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

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Tensor is a dense, contiguous, row-major n-dimensional array of
// float32. The zero value is an empty tensor.
type Tensor struct {
	Data  []float32
	shape []int
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor with the given shape. The data is
// not copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// checkShape validates a shape and returns its element count.
func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumEl returns the total number of elements.
func (t *Tensor) NumEl() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Reshape returns a tensor sharing t's data with a new shape of the
// same element count. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: more than one -1 in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.Data) / known
		known *= shape[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v", t.shape, len(t.Data), shape))
	}
	return &Tensor{Data: t.Data, shape: shape}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t; shapes must have equal element
// counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, src.Data)
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// Row returns the i-th row of a rank-2 tensor as a slice view.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row on non-matrix")
	}
	n := t.shape[1]
	return t.Data[i*n : (i+1)*n]
}

// RandnInit fills the tensor with N(0, std²) values from r.
func (t *Tensor) RandnInit(r *rng.RNG, std float32) {
	r.FillNormal(t.Data, 0, std)
}

// XavierInit applies Glorot-uniform initialization for a (fanIn, fanOut)
// weight matrix.
func (t *Tensor) XavierInit(r *rng.RNG, fanIn, fanOut int) {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	r.FillUniform(t.Data, -limit, limit)
}

// String renders a compact description (shape plus a few leading
// values), suitable for debugging.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
