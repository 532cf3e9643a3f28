package comm

import (
	"math"
	"testing"
	"testing/quick"
)

var fast = Params{Bandwidth: 50e9, HopLat: 1e-6, Launch: 2e-5}

func TestAllReduceIsTwoPhases(t *testing.T) {
	const bytes = 1e9
	const ranks = 8
	ar := AllReduce(bytes, ranks, fast)
	ag := AllGather(bytes, ranks, fast)
	rs := ReduceScatter(bytes, ranks, fast)
	// AR = RS + AG minus one launch.
	want := ag.Time + rs.Time - fast.Launch
	if math.Abs(ar.Time-want)/want > 1e-9 {
		t.Fatalf("AR %v != RS+AG %v", ar.Time, want)
	}
	if ar.WireBytes != ag.WireBytes+rs.WireBytes {
		t.Fatalf("wire bytes: %v vs %v", ar.WireBytes, ag.WireBytes+rs.WireBytes)
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	for _, c := range []Cost{
		AllGather(1e9, 1, fast),
		ReduceScatter(1e9, 1, fast),
		AllReduce(1e9, 1, fast),
		Broadcast(1e9, 1, fast),
	} {
		if c.Time != fast.Launch {
			t.Fatalf("single-rank collective cost %v, want launch only", c.Time)
		}
		if c.WireBytes != 0 {
			t.Fatalf("single-rank wire bytes %v", c.WireBytes)
		}
	}
}

func TestBandwidthAsymptote(t *testing.T) {
	// For large messages the ring approaches V/B per phase: bus
	// bandwidth ≈ link bandwidth.
	const bytes = 100e9
	c := AllGather(bytes, 64, fast)
	bus := bytes * 63 / 64 / c.Time // the bus bandwidth RCCL reports
	if bus < 0.95*fast.Bandwidth {
		t.Fatalf("large-message bus bandwidth %v below 95%% of link %v", bus, fast.Bandwidth)
	}
	if bus > fast.Bandwidth {
		t.Fatalf("bus bandwidth %v exceeds link bandwidth", bus)
	}
}

func TestLatencyDominatedRegime(t *testing.T) {
	// Tiny messages: time ≈ launch + (n-1)·α, growing linearly in ranks.
	t1 := AllGather(64, 128, fast).Time
	t2 := AllGather(64, 256, fast).Time
	growth := (t2 - fast.Launch) / (t1 - fast.Launch)
	if math.Abs(growth-255.0/127.0) > 0.01 {
		t.Fatalf("latency growth %v, want ≈2", growth)
	}
}

func TestMonotoneInBytes(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return AllReduce(x, 16, fast).Time <= AllReduce(y, 16, fast).Time
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInRanksForLatency(t *testing.T) {
	// With fixed bytes, more ranks can only add latency (bandwidth term
	// saturates at V/B).
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		tm := AllReduce(1e6, n, fast).Time
		if tm <= prev {
			t.Fatalf("AllReduce time not increasing at n=%d", n)
		}
		prev = tm
	}
}

func TestSlowerLinkCostsMore(t *testing.T) {
	slow := fast
	slow.Bandwidth = 12.5e9
	cf := AllReduce(1e9, 16, fast)
	cs := AllReduce(1e9, 16, slow)
	if cs.Time <= cf.Time {
		t.Fatalf("slower link not slower: %v vs %v", cs.Time, cf.Time)
	}
	ratio := cs.Time / cf.Time
	if ratio < 3 || ratio > 4.2 {
		t.Fatalf("bandwidth ratio %v, want ≈4 for 4× slower link", ratio)
	}
}

func TestBroadcastPipelined(t *testing.T) {
	c := Broadcast(10e9, 8, fast)
	// Pipelined broadcast moves V bytes once plus hop latencies.
	want := fast.Launch + 7*fast.HopLat + 10e9/fast.Bandwidth
	if math.Abs(c.Time-want) > 1e-12 {
		t.Fatalf("broadcast=%v want %v", c.Time, want)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { AllGather(1, 2, Params{Bandwidth: 0}) },
		func() { AllReduce(-1, 2, fast) },
		func() { ReduceScatter(1, 2, Params{Bandwidth: 1, HopLat: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for invalid params")
				}
			}()
			fn()
		}()
	}
}
