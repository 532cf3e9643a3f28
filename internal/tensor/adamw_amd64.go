//go:build amd64 && !purego

package tensor

// adamwAVX2 (adamw_amd64.s) updates n floats, a positive multiple of
// 8; rounded may be nil.
//
//go:noescape
func adamwAVX2(w, rounded, grad, m, v *float32, n int, k *AdamWScalars)

// adamw runs whole groups of eight in assembly and the ragged tail
// through the scalar lane — the same bits either way.
func adamw(w, rounded, g, m, v []float32, k *AdamWScalars) {
	n8 := 0
	if haveFMA {
		n8 = len(w) &^ 7
	}
	if n8 > 0 {
		var r *float32
		if rounded != nil {
			r = &rounded[0]
		}
		adamwAVX2(&w[0], r, &g[0], &m[0], &v[0], n8, k)
	}
	if rounded != nil {
		rounded = rounded[n8:]
	}
	adamwGo(w[n8:], rounded, g[n8:], m[n8:], v[n8:], k)
}
