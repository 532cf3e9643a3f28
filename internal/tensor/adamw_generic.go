//go:build !amd64 || purego

package tensor

func adamw(w, rounded []float32, image []uint16, g, m, v []float32, k *AdamWScalars) {
	adamwGo(w, rounded, image, g, m, v, k)
}
