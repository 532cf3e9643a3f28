package dataload

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geodata"
)

// countingSource is a synthetic Source recording how often each index
// is sampled.
type countingSource struct {
	n      int
	imgLen int
	hits   []atomic.Int32
}

func newCountingSource(n, imgLen int) *countingSource {
	return &countingSource{n: n, imgLen: imgLen, hits: make([]atomic.Int32, n)}
}

func (s *countingSource) Len() int      { return s.n }
func (s *countingSource) ImageLen() int { return s.imgLen }
func (s *countingSource) Sample(i int, dst []float32) int {
	s.hits[i].Add(1)
	for j := range dst {
		dst[j] = float32(i)
	}
	return i % 7
}

func TestEpochCoversEverySampleOnce(t *testing.T) {
	src := newCountingSource(103, 4)
	l := New(src, Config{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 1})
	total := 0
	for b := range l.EpochN(0) {
		total += b.Size
	}
	if total != 103 {
		t.Fatalf("delivered %d samples, want 103", total)
	}
	for i := range src.hits {
		if got := src.hits[i].Load(); got != 1 {
			t.Fatalf("sample %d rendered %d times", i, got)
		}
	}
}

func TestDropLast(t *testing.T) {
	src := newCountingSource(103, 4)
	l := New(src, Config{BatchSize: 8, Workers: 2, DropLast: true, Seed: 1})
	if l.BatchesPerEpoch() != 12 {
		t.Fatalf("BatchesPerEpoch=%d want 12", l.BatchesPerEpoch())
	}
	batches := 0
	for b := range l.EpochN(0) {
		if b.Size != 8 {
			t.Fatalf("batch size %d with DropLast", b.Size)
		}
		batches++
	}
	if batches != 12 {
		t.Fatalf("batches=%d", batches)
	}
}

func TestNoDropLastKeepsPartial(t *testing.T) {
	src := newCountingSource(10, 2)
	l := New(src, Config{BatchSize: 4, Workers: 1, Seed: 1})
	if l.BatchesPerEpoch() != 3 {
		t.Fatalf("BatchesPerEpoch=%d", l.BatchesPerEpoch())
	}
	sizes := []int{}
	for b := range l.EpochN(0) {
		sizes = append(sizes, b.Size)
	}
	if len(sizes) != 3 || sizes[2] != 2 {
		t.Fatalf("sizes=%v", sizes)
	}
}

func TestOrderDeterministicAcrossWorkerCounts(t *testing.T) {
	// The delivered batch sequence (contents, in order) must not depend
	// on the worker count — this is what makes training reproducible.
	collect := func(workers int) [][]int {
		src := newCountingSource(40, 2)
		l := New(src, Config{BatchSize: 8, Workers: workers, Shuffle: true, Seed: 99})
		var all [][]int
		for b := range l.EpochN(0) {
			all = append(all, append([]int(nil), b.Labels...))
		}
		return all
	}
	a := collect(1)
	b := collect(8)
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("batch %d differs between worker counts", i)
			}
		}
	}
}

func TestShuffleChangesOrderAcrossEpochs(t *testing.T) {
	src := newCountingSource(64, 1)
	l := New(src, Config{BatchSize: 64, Workers: 2, Shuffle: true, Seed: 5})
	var order1 []float32
	for b := range l.EpochN(0) {
		order1 = append(order1, b.Images...)
		break
	}
	same := true
	for b := range l.EpochN(0) {
		for i := range order1 {
			if order1[i] != b.Images[i] {
				same = false
				break
			}
		}
		break
	}
	if same {
		t.Fatal("two shuffled epochs had identical order")
	}
}

func TestNoShuffleIsSequential(t *testing.T) {
	src := newCountingSource(12, 1)
	l := New(src, Config{BatchSize: 4, Workers: 3, Seed: 5})
	want := float32(0)
	for b := range l.EpochN(0) {
		for i := 0; i < b.Size; i++ {
			if b.Images[i] != want {
				t.Fatalf("got sample %v want %v", b.Images[i], want)
			}
			want++
		}
	}
}

func TestBatchSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for batch size 0")
		}
	}()
	New(newCountingSource(4, 1), Config{BatchSize: 0})
}

func TestGeodataSplitsThroughLoader(t *testing.T) {
	gen := geodata.NewSceneGen(5, 8, 3, 1)
	d := &geodata.Dataset{Name: "t", Gen: gen, TrainCount: 20, TestCount: 10}
	tr := TrainSplit{D: d, Count: d.TrainCount, ImgLen: gen.ImageLen()}
	te := TestSplit{D: d, Count: d.TestCount, ImgLen: gen.ImageLen()}

	l := New(tr, Config{BatchSize: 6, Workers: 2, Shuffle: true, Seed: 2})
	seen := 0
	for b := range l.EpochN(0) {
		seen += b.Size
		for i := 0; i < b.Size; i++ {
			if b.Labels[i] < 0 || b.Labels[i] >= 5 {
				t.Fatalf("label %d out of range", b.Labels[i])
			}
		}
	}
	if seen != 20 {
		t.Fatalf("train samples seen=%d", seen)
	}

	lt := New(te, Config{BatchSize: 10, Workers: 2, Seed: 2})
	size := 0
	for bt := range lt.EpochN(0) {
		size = bt.Size
		break
	}
	if size != 10 {
		t.Fatalf("test batch size %d", size)
	}
}

func BenchmarkLoaderThroughput(b *testing.B) {
	gen := geodata.NewSceneGen(51, 32, 3, 1)
	d := &geodata.Dataset{Name: "bench", Gen: gen, TrainCount: 1024}
	src := TrainSplit{D: d, Count: d.TrainCount, ImgLen: gen.ImageLen()}
	l := New(src, Config{BatchSize: 32, Workers: 4, Shuffle: true, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range l.EpochN(0) {
		}
	}
}

func TestEpochNTruncates(t *testing.T) {
	src := newCountingSource(100, 2)
	l := New(src, Config{BatchSize: 10, Workers: 3, Shuffle: true, Seed: 4})
	batches := 0
	for range l.EpochN(3) {
		batches++
	}
	if batches != 3 {
		t.Fatalf("batches=%d want 3", batches)
	}
	// Zero means the full epoch.
	full := 0
	for range l.EpochN(0) {
		full++
	}
	if full != 10 {
		t.Fatalf("full=%d want 10", full)
	}
}

func TestEpochNDrawsDifferentSubsets(t *testing.T) {
	// Successive truncated epochs reshuffle the whole dataset, so the
	// sampled subsets differ across epochs.
	src := newCountingSource(64, 1)
	l := New(src, Config{BatchSize: 8, Workers: 2, Shuffle: true, Seed: 5})
	grab := func() map[float32]bool {
		seen := map[float32]bool{}
		for b := range l.EpochN(2) {
			for i := 0; i < b.Size; i++ {
				seen[b.Images[i]] = true
			}
		}
		return seen
	}
	a, b := grab(), grab()
	diff := 0
	for k := range b {
		if !a[k] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("two truncated epochs sampled identical subsets")
	}
}

// TestShardedPartitionsGlobalBatches checks the DistributedSampler
// contract: N sharded loaders with the same seed exactly partition the
// batches an unsharded loader with batch size BatchSize·N yields, in
// order, with the rank-r slice at offset r·BatchSize.
func TestShardedPartitionsGlobalBatches(t *testing.T) {
	const world = 4
	const local = 4
	src := newCountingSource(70, 2) // 70 % 16 != 0: partial global batch dropped
	ref := New(src, Config{BatchSize: local * world, Workers: 2, Shuffle: true, DropLast: true, Seed: 9})
	var want [][]float32
	for b := range ref.EpochN(0) {
		row := append([]float32(nil), b.Images[:b.Size*2]...)
		want = append(want, row)
	}

	for rank := 0; rank < world; rank++ {
		l := New(src, Config{BatchSize: local, Workers: 2, Shuffle: true, DropLast: true,
			Seed: 9, ShardRank: rank, ShardWorld: world})
		if got := l.BatchesPerEpoch(); got != len(want) {
			t.Fatalf("rank %d BatchesPerEpoch=%d want %d", rank, got, len(want))
		}
		g := 0
		for b := range l.EpochN(0) {
			if b.Size != local {
				t.Fatalf("rank %d batch size %d", rank, b.Size)
			}
			slice := want[g][rank*local*2 : (rank+1)*local*2]
			for j := 0; j < local*2; j++ {
				if b.Images[j] != slice[j] {
					t.Fatalf("rank %d global batch %d differs at %d", rank, g, j)
				}
			}
			g++
		}
		if g != len(want) {
			t.Fatalf("rank %d yielded %d batches, want %d", rank, g, len(want))
		}
	}
}

// TestShardedAlwaysDropsPartialGlobalBatch: sharding drops the ragged
// tail even without DropLast.
func TestShardedAlwaysDropsPartialGlobalBatch(t *testing.T) {
	src := newCountingSource(70, 2)
	l := New(src, Config{BatchSize: 4, Workers: 1, Seed: 3, ShardRank: 1, ShardWorld: 4})
	n := 0
	for b := range l.EpochN(0) {
		if b.Size != 4 {
			t.Fatalf("partial batch of %d delivered", b.Size)
		}
		n++
	}
	if n != 70/16 {
		t.Fatalf("got %d batches, want %d", n, 70/16)
	}
}

// TestSkipEpochsMatchesDrainedEpochs: skipping k epochs advances the
// shuffle stream exactly as drawing and discarding them would, so a
// resumed loader reproduces the uninterrupted loader's k-th epoch order
// label for label.
func TestSkipEpochsMatchesDrainedEpochs(t *testing.T) {
	labels := func(l *Loader) []int {
		var out []int
		for b := range l.EpochN(0) {
			out = append(out, b.Labels[:b.Size]...)
		}
		return out
	}
	src := newCountingSource(64, 2)
	cfg := Config{BatchSize: 8, Workers: 2, Shuffle: true, DropLast: true, Seed: 9}

	ref := New(src, cfg)
	for i := 0; i < 2; i++ { // drain two epochs the slow way
		for range ref.EpochN(0) {
		}
	}
	want := labels(ref) // the third epoch's order

	skipped := New(src, cfg)
	skipped.SkipEpochs(2)
	got := labels(skipped)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("epoch order diverges at sample %d: %d vs %d", i, got[i], want[i])
		}
	}

	// With shuffling off SkipEpochs is a no-op: samples still arrive in
	// index order (labels are index mod 7 for the counting source).
	noshuffle := New(src, Config{BatchSize: 8, Shuffle: false, Seed: 9})
	noshuffle.SkipEpochs(3)
	for i, lab := range labels(noshuffle) {
		if lab != i%7 {
			t.Fatalf("unshuffled loader out of order after SkipEpochs: sample %d has label %d", i, lab)
		}
	}
}

// TestRecycledBatchReuseIsExclusive hammers the pool under Workers>1,
// where the loader takes each batch back the moment its loop body
// returns: every delivered batch must carry exactly its own samples —
// a batch handed back out while still held by a worker or the body, or
// handed to two workers, corrupts the payload. Run under -race this
// also proves the pool handoff is properly synchronized.
func TestRecycledBatchReuseIsExclusive(t *testing.T) {
	src := newCountingSource(256, 8)
	l := New(src, Config{BatchSize: 4, Workers: 4, Shuffle: true, Seed: 7})
	for epoch := 0; epoch < 3; epoch++ {
		for b := range l.EpochN(0) {
			for k := 0; k < b.Size; k++ {
				idx := b.Images[k*8] // Sample fills dst with float32(i), labels i%7
				if int(idx)%7 != b.Labels[k] {
					t.Fatalf("epoch %d: batch sample %d carries image of index %v but label %d",
						epoch, k, idx, b.Labels[k])
				}
				for j := 1; j < 8; j++ {
					if b.Images[k*8+j] != idx {
						t.Fatalf("epoch %d: sample %d torn: %v vs %v", epoch, k, b.Images[k*8+j], idx)
					}
				}
			}
		}
	}
}

// TestSkipEpochsThenWorkersBitwise is the resume-path regression:
// SkipEpochs followed by multi-worker epochs must deliver exactly the
// sample orders the uninterrupted multi-worker run saw — no reused
// batch delivered while a worker still held it, and identical payload
// bytes.
func TestSkipEpochsThenWorkersBitwise(t *testing.T) {
	const epochs = 4
	drain := func(l *Loader, n int) [][]int {
		var all [][]int
		for e := 0; e < n; e++ {
			var labels []int
			for b := range l.EpochN(0) {
				labels = append(labels, b.Labels[:b.Size]...)
			}
			all = append(all, labels)
		}
		return all
	}
	ref := drain(New(newCountingSource(64, 4), Config{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 5}), epochs)

	resumed := New(newCountingSource(64, 4), Config{BatchSize: 8, Workers: 4, Shuffle: true, Seed: 5})
	resumed.SkipEpochs(2)
	got := drain(resumed, epochs-2)
	for e := range got {
		for i := range got[e] {
			if got[e][i] != ref[e+2][i] {
				t.Fatalf("resumed epoch %d sample %d: label %d, uninterrupted run saw %d",
					e+2, i, got[e][i], ref[e+2][i])
			}
		}
	}
}

// filledSource counts renders and closes filled when render number
// fill starts.
type filledSource struct {
	*countingSource
	rendered atomic.Int32
	fill     int32
	filled   chan struct{}
}

func (s *filledSource) Sample(i int, dst []float32) int {
	if s.rendered.Add(1) == s.fill {
		close(s.filled)
	}
	return s.countingSource.Sample(i, dst)
}

// TestPrefetchIsBounded: while the first loop body runs, the workers
// fill the prefetch+Workers slots behind it and render no further —
// not the whole epoch — and the epoch still drains.
func TestPrefetchIsBounded(t *testing.T) {
	const workers, batches = 2, 100
	limit := int32(1 + prefetch + workers)
	src := &filledSource{countingSource: newCountingSource(batches, 4), fill: limit, filled: make(chan struct{})}
	l := New(src, Config{BatchSize: 1, Workers: workers, Seed: 1})
	delivered := 0
	for range l.EpochN(0) {
		if delivered == 0 {
			<-src.filled
			time.Sleep(20 * time.Millisecond) // room for an unbounded loader to run ahead
			if got := src.rendered.Load(); got > limit {
				t.Fatalf("%d batches rendered while the first was in the body, bound %d", got, limit)
			}
		}
		delivered++
	}
	if delivered != batches {
		t.Fatalf("delivered %d batches, want %d", delivered, batches)
	}
}

// TestBreakLeavesNoGoroutine: a body that stops after the first batch
// stops the dispatch, and every loader goroutine exits.
func TestBreakLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	src := newCountingSource(400, 64)
	l := New(src, Config{BatchSize: 4, Workers: 4, Shuffle: true, Seed: 3})
	for range l.EpochN(0) {
		break
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running after break, %d before the epoch",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	rendered := 0
	for i := range src.hits {
		rendered += int(src.hits[i].Load())
	}
	if rendered >= src.n {
		t.Fatalf("rendered %d of %d samples after break: the dispatch did not stop", rendered, src.n)
	}
}
