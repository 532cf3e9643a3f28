package perfmodel

import "math"

// IOModel captures the data-loading pipeline of Figure 1: per-GPU
// PyTorch DataLoader workers decoding images from the parallel
// filesystem. Throughput per node is the worker decode rate capped by
// the node's share of filesystem bandwidth; aggregate throughput scales
// nearly linearly with a mild metadata-contention penalty — which is
// why the paper finds the application is never IO-bound.
type IOModel struct {
	WorkersPerGPU         int
	GPUsPerNode           int
	ImagesPerSecPerWorker float64
	// BytesPerImage at the pretraining resolution.
	BytesPerImage float64
	// FSAggregateBW is the filesystem's total read bandwidth (Frontier's
	// Orion is ~10 TB/s: effectively unbounded at these scales).
	FSAggregateBW float64
	// ContentionPerDoubling is the fractional per-node-doubling
	// efficiency loss from metadata/OST contention.
	ContentionPerDoubling float64
}

// rawPixelBytes is the on-disk element size of the pretraining corpus:
// the source GeoTIFF bands decode to float32 before augmentation, so
// the IO model charges 4 bytes per pixel per channel regardless of the
// training Precision (the loader, not the GPU, pays this width).
const rawPixelBytes = 4

// DefaultIO is the Figure 1 configuration: 4 workers per GCD as in the
// paper, 512×512×3 float32 images.
func DefaultIO() IOModel {
	return IOModel{
		WorkersPerGPU:         4,
		GPUsPerNode:           8,
		ImagesPerSecPerWorker: 2.4,
		BytesPerImage:         512 * 512 * 3 * rawPixelBytes,
		FSAggregateBW:         10e12,
		ContentionPerDoubling: 0.015,
	}
}

// ImagesPerSec returns aggregate loader throughput at the given node
// count.
func (io IOModel) ImagesPerSec(nodes int) float64 {
	if nodes <= 0 {
		return 0
	}
	workers := float64(io.WorkersPerGPU * io.GPUsPerNode)
	perNode := workers * io.ImagesPerSecPerWorker
	fsCap := io.FSAggregateBW / io.BytesPerImage / float64(nodes)
	if perNode > fsCap {
		perNode = fsCap
	}
	eff := 1 - float64(io.ContentionPerDoubling*math.Log2(float64(nodes)))
	if eff < 0.5 {
		eff = 0.5
	}
	return float64(nodes) * perNode * eff
}
