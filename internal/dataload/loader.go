// Package dataload implements a PyTorch-style data loader: worker
// goroutines render/decode samples concurrently, a bounded prefetch
// queue decouples data production from the training loop, and batch
// delivery is strictly ordered so training runs are reproducible
// regardless of worker count — mirroring the "4 data loader workers per
// GPU rank" configuration in the paper's Figure 1 IO study.
//
// For multi-rank data-parallel training the loader doubles as a
// DistributedSampler: with Config.ShardWorld = N, each of the N
// seed-identical loaders builds the same shuffled order, groups it into
// global batches of BatchSize·N samples, and delivers to its rank the
// BatchSize-sample slice at offset ShardRank·BatchSize — so the ranks
// exactly partition the batches a single loader with batch size
// BatchSize·N would produce, which is what makes an N-rank run
// reproduce the single-rank loss trajectory (see internal/train's
// PretrainDistributed).
package dataload

import (
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Source supplies labeled samples by index. Implementations must be
// safe for concurrent Sample calls (geodata generators are: they only
// read archetype tables).
type Source interface {
	// Len returns the number of samples.
	Len() int
	// ImageLen returns the per-sample buffer size.
	ImageLen() int
	// Sample renders sample i into dst and returns its label.
	Sample(i int, dst []float32) int
}

// Batch is one delivered mini-batch. Images holds Size contiguous
// samples; Labels holds the Size labels. Return exhausted batches to
// the loader with Recycle to avoid reallocation.
type Batch struct {
	Images []float32
	Labels []int
	Size   int

	// inPool guards against double-Recycle: a batch returned to the
	// pool twice could be handed to two workers at once, which would
	// race on Images and deliver a corrupted batch. Flipped by Recycle
	// and cleared when a worker takes the batch back out.
	inPool atomic.Bool
}

// prefetch is how many rendered batches may wait for the consumer;
// with one more in progress per worker it bounds the batches in flight.
const prefetch = 2

// Loader streams shuffled, batched samples from a Source.
type Loader struct {
	src       Source
	batchSize int
	workers   int
	shuffle   bool
	dropLast  bool
	rank      int
	world     int
	rng       *rng.RNG

	pool sync.Pool
}

// Config configures a Loader.
type Config struct {
	BatchSize int
	// Workers is the number of concurrent sample-producing goroutines
	// (default 1).
	Workers int
	// Shuffle reshuffles sample order each epoch (deterministically
	// from Seed).
	Shuffle bool
	// DropLast discards a trailing partial batch, as the paper's
	// fixed-local-batch runs do.
	DropLast bool
	Seed     uint64
	// ShardRank and ShardWorld shard each global batch across
	// data-parallel ranks: with ShardWorld ranks, global batches of
	// BatchSize·ShardWorld samples are drawn from the (seed-identical)
	// shuffled order and this loader emits the BatchSize slice at
	// offset ShardRank·BatchSize of each. A trailing partial global
	// batch is always dropped when sharding (it cannot be split evenly,
	// exactly like PyTorch's DistributedSampler with drop_last).
	// ShardWorld ≤ 1 disables sharding.
	ShardRank, ShardWorld int
}

// New constructs a loader over src.
func New(src Source, cfg Config) *Loader {
	if cfg.BatchSize <= 0 {
		panic("dataload: batch size must be positive")
	}
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	world := cfg.ShardWorld
	if world < 1 {
		world = 1
	}
	if cfg.ShardRank < 0 || cfg.ShardRank >= world {
		panic("dataload: shard rank outside world")
	}
	l := &Loader{
		src:       src,
		batchSize: cfg.BatchSize,
		workers:   w,
		shuffle:   cfg.Shuffle,
		dropLast:  cfg.DropLast,
		rank:      cfg.ShardRank,
		world:     world,
		rng:       rng.New(cfg.Seed),
	}
	imgLen := src.ImageLen()
	bs := cfg.BatchSize
	l.pool.New = func() any {
		return &Batch{
			Images: make([]float32, bs*imgLen),
			Labels: make([]int, bs),
		}
	}
	return l
}

// BatchesPerEpoch returns the number of batches an epoch yields. When
// sharded, every rank yields the same count: one batch per full global
// batch.
func (l *Loader) BatchesPerEpoch() int {
	if l.world > 1 {
		return l.src.Len() / (l.batchSize * l.world)
	}
	n := l.src.Len() / l.batchSize
	if !l.dropLast && l.src.Len()%l.batchSize != 0 {
		n++
	}
	return n
}

// Recycle returns a batch's buffers to the loader pool. The batch must
// not be touched afterwards — a loader worker may immediately reuse it
// for an in-flight batch. Recycling the same batch twice panics: a
// double-put would let two workers write the same buffers
// concurrently and deliver corrupted samples.
func (l *Loader) Recycle(b *Batch) {
	if b == nil {
		return
	}
	if b.inPool.Swap(true) {
		panic("dataload: batch recycled twice (still owned by the pool)")
	}
	l.pool.Put(b)
}

// batchJob is one batch's work order plus its completion signal.
type batchJob struct {
	indices []int
	out     *Batch
	done    chan struct{}
}

// SkipEpochs advances the loader's shuffle stream as if k epochs had
// been drawn and fully discarded — no samples are rendered and no
// workers launch, so it is safe with any Workers setting: the batch
// pool is untouched (nothing to double-put) and no recycled batch can
// still be held by a worker, because workers only exist while an
// Epoch/EpochN is being drained. Call it before the first epoch (as
// the resume path does), not while one is in flight — the shuffle
// stream is not synchronized against a concurrent EpochN. A run
// resuming from a step-k·BatchesPerEpoch checkpoint calls this once so
// its subsequent epochs reproduce the exact per-epoch sample orders
// the uninterrupted run saw (the shuffle consumes the deterministic
// seed stream per epoch, independent of the array contents).
func (l *Loader) SkipEpochs(k int) {
	if !l.shuffle || k <= 0 {
		return
	}
	order := make([]int, l.src.Len())
	for e := 0; e < k; e++ {
		l.rng.Shuffle(order)
	}
}

// Epoch launches workers for one pass over the data and returns a
// channel of batches in deterministic order. The caller must drain the
// channel (or consume it fully) for the workers to exit.
func (l *Loader) Epoch() <-chan *Batch {
	return l.EpochN(0)
}

// EpochN is Epoch truncated to at most maxBatches batches (0 = all).
// The shuffle still permutes the whole dataset, so successive truncated
// epochs draw different subsets — how a capped steps-per-epoch schedule
// samples a large corpus.
func (l *Loader) EpochN(maxBatches int) <-chan *Batch {
	n := l.src.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if l.shuffle {
		l.rng.Shuffle(order)
	}

	var jobs []*batchJob
	global := l.batchSize * l.world
	for start := 0; start < n; start += global {
		if maxBatches > 0 && len(jobs) >= maxBatches {
			break
		}
		end := start + global
		if end > n {
			// A partial global batch cannot be split across ranks, so
			// sharded loaders always drop it.
			if l.dropLast || l.world > 1 {
				break
			}
			end = n
		}
		lo := start + l.rank*l.batchSize
		hi := lo + l.batchSize
		if hi > end {
			hi = end
		}
		jobs = append(jobs, &batchJob{
			indices: order[lo:hi],
			done:    make(chan struct{}),
		})
	}

	jobCh := make(chan *batchJob)
	imgLen := l.src.ImageLen()
	for w := 0; w < l.workers; w++ {
		go func() {
			for j := range jobCh {
				b := l.pool.Get().(*Batch)
				b.inPool.Store(false)
				b.Size = len(j.indices)
				b.Images = b.Images[:b.Size*imgLen]
				b.Labels = b.Labels[:b.Size]
				for k, idx := range j.indices {
					b.Labels[k] = l.src.Sample(idx, b.Images[k*imgLen:(k+1)*imgLen])
				}
				j.out = b
				close(j.done)
			}
		}()
	}

	// A job is dispatched only while fewer than prefetch+workers batches
	// are dispatched and not yet delivered. The slot frees on delivery,
	// not on Recycle, so a consumer that keeps its batches cannot stall
	// the epoch.
	slots := make(chan struct{}, prefetch+l.workers)
	go func() {
		for _, j := range jobs {
			slots <- struct{}{}
			jobCh <- j
		}
		close(jobCh)
	}()

	out := make(chan *Batch)
	go func() {
		for _, j := range jobs {
			<-j.done
			out <- j.out
			<-slots
		}
		close(out)
	}()
	return out
}

// TrainSplit adapts a geodata-style dataset's training split to the
// Source interface.
type TrainSplit struct {
	D interface {
		TrainSample(i int, dst []float32) int
	}
	Count  int
	ImgLen int
}

// Len returns the split size.
func (s TrainSplit) Len() int { return s.Count }

// ImageLen returns the sample buffer size.
func (s TrainSplit) ImageLen() int { return s.ImgLen }

// Sample renders sample i.
func (s TrainSplit) Sample(i int, dst []float32) int { return s.D.TrainSample(i, dst) }

// TestSplit adapts a test split to the Source interface.
type TestSplit struct {
	D interface {
		TestSample(i int, dst []float32) int
	}
	Count  int
	ImgLen int
}

// Len returns the split size.
func (s TestSplit) Len() int { return s.Count }

// ImageLen returns the sample buffer size.
func (s TestSplit) ImageLen() int { return s.ImgLen }

// Sample renders sample i.
func (s TestSplit) Sample(i int, dst []float32) int { return s.D.TestSample(i, dst) }
