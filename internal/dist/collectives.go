package dist

import (
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// Rank is one participant's handle into the World. A Rank must only be
// used from the goroutine World.Run assigned it to; it issues data
// collectives through Group.Do.
type Rank struct {
	w  *World
	id int

	// sentBytes counts what this rank physically sent to a ring
	// successor — in the world ring or any subgroup ring — per
	// collective kind: the measured side of Stats. The rank's queue
	// workers (one per group) run concurrently and may execute the same
	// Op at the same moment, so the counters are atomic.
	sentBytes [numOps]atomic.Int64

	// queues are the rank's per-group issue queues (lazily started
	// worker goroutines; see async.go). Touched only from the rank's
	// own goroutine.
	queues map[*Group]*opQueue

	// collectives counts collective entries on this rank — the
	// deterministic sequence a FaultPlan indexes; see fault.go. Touched
	// only from the rank's goroutine.
	collectives int64
}

// ID returns the rank index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.n }

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.w.root.bar.wait() }

// AllReduceScalar sums a float64 control value across ranks (loss
// averaging, global gradient norms) and returns the identical total on
// every rank. The sum is accumulated in rank order, so the result is
// deterministic and bit-identical across ranks. Counted under OpScalar
// in Stats; scalar control traffic is excluded from the wire-byte
// comparisons against the fsdp simulator, which does not model it.
func (r *Rank) AllReduceScalar(v float64) float64 {
	return r.w.root.AllReduceScalar(r, v)
}

// The four world-group forms bench/probes.go calls, pinned until the
// next benchmark PR moves the probes onto Group.Do; nothing else may
// use them.

// AllReduce is Do(OpAllReduce) on the world group, waited.
func (r *Rank) AllReduce(buf []float32) { r.AllReduceAsync(buf).Wait() }

// AllReduceAsync is Do(OpAllReduce) on the world group.
func (r *Rank) AllReduceAsync(buf []float32) *Handle {
	return r.w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf})
}

// ReduceScatterBF16 is Do(OpReduceScatter) over the bf16 wire on the
// world group, waited.
func (r *Rank) ReduceScatterBF16(buf []float32, wire []uint16) []float32 {
	return r.w.root.Do(r, Collective{Op: OpReduceScatter, Buf: buf, Wire: wire}).Wait()
}

// AllGatherBF16 is Do(OpAllGather) over the bf16 wire on the world
// group, waited. The second argument (a separate contribution shard no
// caller ever passed) is ignored.
func (r *Rank) AllGatherBF16(buf, _ []float32, wire []uint16) {
	r.w.root.Do(r, Collective{Op: OpAllGather, Buf: buf, Wire: wire}).Wait()
}

// view is what crosses a ring edge: a read-only chunk in the call's
// wire format — float32 elements, or their bf16 images at half the
// bytes. Exactly one field is set.
type view struct {
	f32 []float32
	u16 []uint16
}

func (v view) bytes() int64 { return int64(len(v.f32))*4 + int64(len(v.u16))*2 }

// send and recv are the abortable edge operations: every blocking ring
// edge also watches the world's abort channel, so a peer's death
// surfaces as an ErrAborted panic (recovered by World.Run or the queue
// worker) instead of a deadlock.
func send[T any](w *World, ch chan T, v T) {
	select {
	case ch <- v:
	case <-w.abort:
		panic(ErrAborted)
	}
}

func recv[T any](w *World, ch chan T) T {
	select {
	case v := <-ch:
		return v
	case <-w.abort:
		panic(ErrAborted)
	}
}

// member is a rank's position inside one communicator's ring: the ring
// algorithms below are written against it, so the world group and every
// subgroup execute identical code over their own per-edge channels.
type member struct {
	g  *Group
	r  *Rank
	id int // group-local ring position
}

func (m member) pred() int { return (m.id - 1 + m.g.n) % m.g.n }

// publish puts v on the edge to the successor and counts its bytes;
// consumed blocks until the successor has acknowledged it, after which
// the published memory may be rewritten.
func (m member) publish(op Op, v view) {
	m.r.sentBytes[op].Add(v.bytes())
	send(m.g.w, m.g.data[m.id], v)
}

func (m member) consumed() { recv(m.g.w, m.g.ack[m.id]) }

// receive takes the predecessor's view; release acknowledges that this
// member no longer reads it.
func (m member) receive() view { return recv(m.g.w, m.g.data[m.pred()]) }

func (m member) release() { send(m.g.w, m.g.ack[m.pred()], struct{}{}) }

// exchange performs one synchronized ring step: publish a read-only
// view to the successor, receive the predecessor's view, let process
// consume it, acknowledge, and wait for the successor's acknowledgement
// so the published view may be rewritten afterwards. The edge channels
// have capacity 1 and the acknowledgement gates the next step, so no
// edge ever holds more than one in-flight view and a view is never read
// after its step completes.
func (m member) exchange(op Op, out view, process func(in view)) {
	m.publish(op, out)
	process(m.receive())
	m.release()
	m.consumed()
}

// chunkOf returns the c-th of n uniform chunks of s.
func chunkOf[T any](s []T, c, n int) []T {
	cs := len(s) / n
	return s[c*cs : (c+1)*cs]
}

// outgoing is chunk c of the call in its wire format. On the bf16 wire
// the view is the chunk's slot of the Wire scratch, refreshed from the
// fp32 chunk (round-nearest-even) when round is set and sent as it
// lies otherwise.
func (c Collective) outgoing(chunk, n int, round bool) view {
	if c.Wire == nil {
		return view{f32: chunkOf(c.Buf, chunk, n)}
	}
	w := chunkOf(c.Wire, chunk, n)
	if round {
		tensor.ToBF16(w, chunkOf(c.Buf, chunk, n))
	}
	return view{u16: w}
}

// accumulate adds a received chunk into acc. bf16 payloads are widened
// through the vector kernel in stack-buffer blocks and added in fp32 —
// this loop is every ring hop of every bf16 gradient reduction.
func accumulate(acc []float32, in view) {
	if in.u16 == nil {
		for j, v := range in.f32 {
			acc[j] += v
		}
		return
	}
	var wide [512]float32
	for off := 0; off < len(in.u16); off += len(wide) {
		end := min(off+len(wide), len(in.u16))
		w := wide[:end-off]
		tensor.FromBF16(w, in.u16[off:end])
		a := acc[off:end]
		for j := range a {
			a[j] += w[j]
		}
	}
}

// begin starts model/wall accounting for one call. Stats keeps world
// rank 0's view of the SPMD schedule, so only calls entered by world
// rank 0 are recorded (see Stats).
func (m member) begin() time.Time {
	if m.r.id == 0 {
		return time.Now()
	}
	return time.Time{}
}

func (m member) end(op Op, c comm.Cost, t0 time.Time) {
	if m.r.id == 0 {
		m.g.w.record(op, c, time.Since(t0))
	}
	// Congested-link mode: realize the modeled cost as wall time on
	// every rank, so executed step times carry the α–β collective cost
	// the simulator prices (Options.Throttle). A rank with a throttle
	// skew sleeps proportionally longer — the straggler whose delay the
	// lockstep collectives impose on every peer.
	if th := m.g.w.throttle; th > 0 && c.Time > 0 {
		if s, ok := m.g.w.skew[m.r.id]; ok && s > 0 {
			th *= s
		}
		time.Sleep(time.Duration(c.Time * th * float64(time.Second)))
	}
}

// run executes one validated collective on the member's ring and prices
// it once: an all-reduce is a reduce-scatter followed by an all-gather
// (the algorithm RCCL runs) accounted as a single call. The result is
// the member's reduced shard for a reduce-scatter, nil otherwise.
func (m member) run(c Collective) (shard []float32) {
	n, link := m.g.n, m.g.link
	elemBytes := 4
	if c.Wire != nil {
		elemBytes = 2
	}
	wireBytes := float64(len(c.Buf) * elemBytes)
	t0 := m.begin()
	var cost comm.Cost
	switch c.Op {
	case OpAllReduce:
		m.reduceScatter(c)
		if c.Wire != nil {
			// The reduced chunk goes on the wire as its bf16 image, and
			// the member keeps the widened image too, so every member
			// ends with the same bits.
			own := c.outgoing(m.id, n, true)
			tensor.FromBF16(chunkOf(c.Buf, m.id, n), own.u16)
		}
		m.allGather(c)
		cost = comm.AllReduce(wireBytes, n, link)
	case OpReduceScatter:
		m.reduceScatter(c)
		shard = chunkOf(c.Buf, m.id, n)
		cost = comm.ReduceScatter(wireBytes, n, link)
	case OpAllGather:
		m.allGather(c)
		cost = comm.AllGather(wireBytes, n, link)
	case OpBroadcast:
		m.broadcast(c)
		cost = comm.Broadcast(wireBytes, n, link)
	}
	m.end(c.Op, cost, t0)
	return shard
}

// reduceScatter is the ring reduce-scatter: at step s member i sends
// chunk (i−1−s) mod n — the chunk it finished accumulating in the
// previous step, on the bf16 wire the round-nearest-even image of that
// fp32 partial sum — and accumulates the received chunk (i−2−s) mod n
// into its fp32 buffer. After n−1 steps chunk i on member i carries
// every member's contribution; the other chunks hold partial sums.
func (m member) reduceScatter(c Collective) {
	n := m.g.n
	for s := 0; s < n-1; s++ {
		m.exchange(c.Op, c.outgoing(mod(m.id-1-s, n), n, true), func(in view) {
			accumulate(chunkOf(c.Buf, mod(m.id-2-s, n), n), in)
		})
	}
}

// allGather is the ring all-gather: at step s member i forwards chunk
// (i−s) mod n (its own chunk first, then whatever it received last
// step) and writes the received chunk (i−1−s) mod n into place, so it
// fills only the other members' chunks of Buf. On the bf16 wire the
// own chunk goes out as the caller's chunk of Wire, as it lies (see
// Collective.Wire), and chunks ride the ring verbatim: a received chunk
// is widened into Buf straight from the peer's view and, unless this is
// the last hop, copied into Wire to be forwarded.
func (m member) allGather(c Collective) {
	n := m.g.n
	for s := 0; s < n-1; s++ {
		m.exchange(c.Op, c.outgoing(mod(m.id-s, n), n, false), func(in view) {
			dst := mod(m.id-1-s, n)
			if c.Wire == nil {
				copy(chunkOf(c.Buf, dst, n), in.f32)
				return
			}
			if s < n-2 {
				copy(chunkOf(c.Wire, dst, n), in.u16)
			}
			tensor.FromBF16(chunkOf(c.Buf, dst, n), in.u16)
		})
	}
}

// broadcast is the pipelined ring broadcast: every member but the root
// receives the payload from its predecessor, and every member but the
// last along the ring forwards it, so n−1 members each put the full
// buffer on the wire once.
func (m member) broadcast(c Collective) {
	n := m.g.n
	pos := mod(m.id-c.Root, n) // distance from root along the ring
	if pos > 0 {
		copy(c.Buf, m.receive().f32)
		m.release()
	}
	if pos < n-1 {
		m.publish(c.Op, view{f32: c.Buf})
		m.consumed()
	}
}

func (m member) allReduceScalar(v float64) float64 {
	g := m.g
	if g.n == 1 {
		if m.r.id == 0 {
			g.w.record(OpScalar, comm.Cost{}, 0)
		}
		return v
	}
	t0 := m.begin()
	g.scalars[m.id] = v
	g.bar.wait()
	var total float64
	for _, x := range g.scalars {
		total += x
	}
	g.bar.wait() // the slot table may be reused after every member has read it
	m.r.sentBytes[OpScalar].Add(8)
	m.end(OpScalar, comm.AllReduce(8, g.n, g.link), t0)
	return total
}

func mod(a, n int) int { return ((a % n) + n) % n }
