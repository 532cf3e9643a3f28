// Package lifecycle is a statgate fixture: loader batches and
// inference arenas with release-free paths, clean paths, and escapes.
package lifecycle

import (
	"repro/internal/dataload"
	"repro/internal/nn"
)

func leakCtx(n int) int {
	ctx := nn.NewInferCtx() // want `this path returns without Release`
	return len(ctx.Take(n))
}

func earlyReturnCtx(n int, cond bool) int {
	ctx := nn.NewInferCtx() // want `this path returns without Release`
	if cond {
		return 0
	}
	defer ctx.Release()
	return len(ctx.Take(n))
}

func deferRelease(n int) int {
	ctx := nn.NewInferCtx()
	defer ctx.Release()
	return len(ctx.Take(n))
}

func directRelease(n int) int {
	ctx := nn.NewInferCtx()
	k := len(ctx.Take(n))
	ctx.Release()
	return k
}

func escapesCtx() *nn.Arena {
	ctx := nn.NewInferCtx()
	return ctx
}

func plainUseIsNotRelease(m interface{ Fill(*nn.Arena) }) {
	ctx := nn.NewInferCtx() // want `function ends without Release`
	m.Fill(ctx)
}

func leakTrainCtx(n int) int {
	ctx := nn.NewTrainCtx() // want `this path returns without Release`
	return len(ctx.Take(n))
}

func deferReleaseTrainCtx(n int) int {
	ctx := nn.NewTrainCtx()
	defer ctx.Release()
	return len(ctx.Take(n))
}

// replica owns its arenas, as mae.Model does: storing one in a field
// hands it off.
type replica struct{ ctx, frozen *nn.Arena }

func newReplica() *replica {
	r := &replica{frozen: nn.NewInferCtx()}
	ctx := nn.NewTrainCtx()
	r.ctx = ctx
	return r
}

func leakBatch(l *dataload.Loader) int {
	n := 0
	for batch := range l.Epoch() { // want `the loop iteration ends without Recycle`
		n += batch.Size
	}
	return n
}

func continueLeak(l *dataload.Loader) int {
	n := 0
	for batch := range l.EpochN(4) { // want `this continue ends the iteration`
		if batch.Size == 0 {
			continue
		}
		n += batch.Size
		l.Recycle(batch)
	}
	return n
}

func breakLeak(l *dataload.Loader) int {
	for batch := range l.Epoch() { // want `this break ends the iteration`
		if batch.Size > 0 {
			break
		}
		l.Recycle(batch)
	}
	return 0
}

func recycled(l *dataload.Loader) int {
	n := 0
	for batch := range l.Epoch() {
		n += batch.Size
		l.Recycle(batch)
	}
	return n
}

func recycledBeforeContinue(l *dataload.Loader) int {
	n := 0
	for batch := range l.EpochN(4) {
		if batch.Size == 0 {
			l.Recycle(batch)
			continue
		}
		n += batch.Size
		l.Recycle(batch)
	}
	return n
}

func batchEscapes(l *dataload.Loader, sink chan *dataload.Batch) {
	for batch := range l.Epoch() {
		sink <- batch
	}
}

func allowedLeak(l *dataload.Loader) {
	//statgate:allow lifecycle — fixture: process exits right after this loop
	for batch := range l.Epoch() {
		_ = batch.Size
	}
}
