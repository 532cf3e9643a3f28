//go:build !amd64 || purego

package tensor

func sumSqBody(lane *[8]float64, x []float32) { sumSqBodyGo(lane, x) }

func scaleSumSqBody(lane *[8]float64, x []float32, alpha float32) bool {
	return scaleSumSqBodyGo(lane, x, alpha)
}

func scale(dst, src []float32, alpha float32) { scaleGo(dst, src, alpha) }

func add(dst, a, b []float32) { addGo(dst, a, b) }
