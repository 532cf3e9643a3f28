package nn

// The six arena-less forms bench/probes.go calls, pinned until the next
// benchmark PR moves the probes onto Apply and Backprop; nothing else
// may use them. Each runs the one body on an arena of its own, made on
// first use and reset every call, and returns a slice valid until its
// next call.

// Forward is Apply on the layer's own recording arena.
func (a *MultiHeadAttention) Forward(x []float32, batch, tokens int) []float32 {
	return a.Apply(shim(&a.fwdShim), x, batch, tokens)
}

// Backward is Backprop for the last Forward, dL/dx in the layer's own
// arena.
func (a *MultiHeadAttention) Backward(dy []float32) []float32 {
	ctx := shim(&a.bwdShim)
	dx := ctx.Take(len(dy))
	a.Backprop(ctx, dx, dy)
	return dx
}

// Forward is Apply on the layer's own recording arena.
func (m *MLP) Forward(x []float32, rows int) []float32 {
	return m.Apply(shim(&m.fwdShim), x, rows)
}

// Backward is Backprop for the last Forward, dL/dx in the layer's own
// arena.
func (m *MLP) Backward(dy []float32) []float32 {
	ctx := shim(&m.bwdShim)
	dx := ctx.Take(m.FC1.rows * m.FC1.In)
	m.Backprop(ctx, dx, dy)
	return dx
}

// Forward is Apply on the layer's own recording arena.
func (ln *LayerNorm) Forward(x []float32, rows int) []float32 {
	return ln.Apply(shim(&ln.fwdShim), x, rows)
}

// Forward is Apply on the layer's own recording arena; rows is unused.
func (g *GELU) Forward(x []float32, rows int) []float32 {
	return g.Apply(shim(&g.fwdShim), x)
}

// shim returns the recording arena *p, made on first use, reset.
func shim(p **Arena) *Arena {
	if *p == nil {
		*p = NewTrainCtx()
	}
	(*p).Reset()
	return *p
}
