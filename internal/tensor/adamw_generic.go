//go:build !amd64 || purego

package tensor

func adamw(w, rounded, g, m, v []float32, k *AdamWScalars) { adamwGo(w, rounded, g, m, v, k) }
