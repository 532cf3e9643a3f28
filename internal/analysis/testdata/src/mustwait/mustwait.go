// Package mustwait is a statgate fixture: dist collective handles that
// are dropped, leaked, chained, waited, and escaped.
package mustwait

import "repro/internal/dist"

func dropped(g *dist.Group, r *dist.Rank, buf []float32) {
	g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `dropped`
}

func blanked(g *dist.Group, r *dist.Rank, buf []float32) {
	_ = g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `assigned to _`
}

func leaked(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `function ends without Wait`
	_ = h
}

func earlyReturn(g *dist.Group, r *dist.Rank, buf []float32, cond bool) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `this path returns without Wait`
	if cond {
		return
	}
	h.Wait()
}

func overwritten(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `overwrites`
	h = g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	h.Wait()
}

func waitedAtOnce(g *dist.Group, r *dist.Rank, buf []float32) []float32 {
	return g.Do(r, dist.Collective{Op: dist.OpReduceScatter, Buf: buf}).Wait()
}

func waited(g *dist.Group, r *dist.Rank, buf []float32) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	h.Wait()
}

func chained(g *dist.Group, r *dist.Rank, buf, buf2 []float32) []float32 {
	h := g.Do(r, dist.Collective{Op: dist.OpReduceScatter, Buf: buf})
	h2 := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf2, After: h})
	return h2.Wait()
}

func branchesBothWait(g *dist.Group, r *dist.Rank, buf []float32, bf16 bool, wire []uint16) {
	var h *dist.Handle
	if bf16 {
		h = g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf, Wire: wire})
	} else {
		h = g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	}
	h.Wait()
}

func escapesReturn(g *dist.Group, r *dist.Rank, buf []float32) *dist.Handle {
	return g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
}

func escapesVarReturn(g *dist.Group, r *dist.Rank, buf []float32) *dist.Handle {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	return h
}

type carrier struct {
	h *dist.Handle
}

func escapesField(g *dist.Group, r *dist.Rank, buf []float32, c *carrier) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	c.h = h
}

func escapesClosure(g *dist.Group, r *dist.Rank, buf []float32, run func(func())) {
	h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
	run(func() { h.Wait() })
}

func loopLeak(g *dist.Group, r *dist.Rank, buf []float32, n int) {
	for i := 0; i < n; i++ {
		h := g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf}) // want `this continue ends the iteration`
		if i == 0 {
			continue
		}
		h.Wait()
	}
}

func allowed(g *dist.Group, r *dist.Rank, buf []float32) {
	//statgate:allow mustwait — fixture: rank-exit backstop fails this handle deliberately
	g.Do(r, dist.Collective{Op: dist.OpAllReduce, Buf: buf})
}
