//go:build amd64 && !purego

package tensor

// adamwAVX2 (adamw_amd64.s) updates n floats, a positive multiple of
// 8; rounded and image may each be nil.
//
//go:noescape
func adamwAVX2(w, rounded *float32, image *uint16, grad, m, v *float32, n int, k *AdamWScalars)

// adamw runs whole groups of eight in assembly and the ragged tail
// through the scalar lane — the same bits either way.
func adamw(w, rounded []float32, image []uint16, g, m, v []float32, k *AdamWScalars) {
	n8 := 0
	if haveFMA {
		n8 = len(w) &^ 7
	}
	if n8 > 0 {
		var r *float32
		if rounded != nil {
			r = &rounded[0]
		}
		var im *uint16
		if image != nil {
			im = &image[0]
		}
		adamwAVX2(&w[0], r, im, &g[0], &m[0], &v[0], n8, k)
	}
	if rounded != nil {
		rounded = rounded[n8:]
	}
	if image != nil {
		image = image[n8:]
	}
	adamwGo(w[n8:], rounded, image, g[n8:], m[n8:], v[n8:], k)
}
