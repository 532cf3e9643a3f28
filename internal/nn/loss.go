package nn

import (
	"math"

	"repro/internal/parallel"
)

// CrossEntropy computes mean softmax cross-entropy over a batch of
// logits (batch × classes) with integer labels, returning the scalar
// loss and writing dL/dlogits into dlogits (allocated by the caller,
// same shape as logits).
func CrossEntropy(logits []float32, labels []int, classes int, dlogits []float32) float64 {
	batch := len(labels)
	checkRows(len(logits), batch, classes, "CrossEntropy")
	checkRows(len(dlogits), batch, classes, "CrossEntropy.dlogits")
	losses := make([]float64, batch)
	invB := float32(1 / float64(batch))
	parallel.ForGrain(batch, 8, func(i int) {
		row := logits[i*classes : (i+1)*classes]
		drow := dlogits[i*classes : (i+1)*classes]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			drow[j] = float32(e)
			sum += e
		}
		label := labels[i]
		losses[i] = math.Log(sum) - float64(row[label]-maxv)
		inv := float32(1 / sum)
		for j := range drow {
			drow[j] *= inv * invB
		}
		drow[label] -= invB
	})
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(batch)
}

// mseBlock is the number of elements per partial sum of MSE's
// reduction. It is fixed, so where one partial ends and the next begins
// — and therefore the rounding of the reported loss — does not depend
// on how many workers the pool has.
const mseBlock = parallel.MinGrain

// MSE computes the mean squared error between pred and target and
// writes dL/dpred into dpred (same length). This is the MAE
// reconstruction loss applied over masked-patch pixels. The squares are
// summed in float64 over fixed mseBlock-element blocks, and the block
// sums added serially in block order: the same value at any
// GOMAXPROCS, on every call.
func MSE(pred, target, dpred []float32) float64 {
	if len(pred) != len(target) || len(pred) != len(dpred) {
		panic("nn: MSE length mismatch")
	}
	n := len(pred)
	if n == 0 {
		return 0
	}
	inv := float32(2 / float64(n))
	partial := make([]float64, (n+mseBlock-1)/mseBlock)
	parallel.ForGrain(len(partial), 1, func(b int) {
		var s float64
		end := min((b+1)*mseBlock, n)
		for i := b * mseBlock; i < end; i++ {
			d := pred[i] - target[i]
			s += float64(d) * float64(d)
			dpred[i] = inv * d
		}
		partial[b] = s
	})
	var total float64
	for _, s := range partial {
		total += s
	}
	return total / float64(n)
}

// NormalizePatches rewrites each patch row of a (nPatches × patchDim)
// matrix to zero mean and unit variance, the "normalized pixel" target
// construction that the paper (following MAE) uses for the
// reconstruction loss. eps guards constant patches.
func NormalizePatches(dst, src []float32, nPatches, patchDim int, eps float64) {
	checkRows(len(src), nPatches, patchDim, "NormalizePatches")
	checkRows(len(dst), nPatches, patchDim, "NormalizePatches.dst")
	parallel.ForGrain(nPatches, 4, func(p int) {
		row := src[p*patchDim : (p+1)*patchDim]
		out := dst[p*patchDim : (p+1)*patchDim]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(patchDim)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(patchDim)
		inv := 1 / math.Sqrt(variance+eps)
		for j, v := range row {
			out[j] = float32((float64(v) - mean) * inv)
		}
	})
}
