//go:build !amd64 || purego

package tensor

func geluFwd(dst, x []float32)    { geluFwdGo(dst, x) }
func geluBwd(dx, dy, x []float32) { geluBwdGo(dx, dy, x) }
