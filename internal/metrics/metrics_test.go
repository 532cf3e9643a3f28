package metrics

import (
	"testing"
	"testing/quick"
)

func TestTopKCorrect(t *testing.T) {
	logits := []float32{0.1, 0.9, 0.5, 0.7, 0.3}
	if !TopKCorrect(logits, 1, 1) {
		t.Fatal("argmax label not top-1 correct")
	}
	if TopKCorrect(logits, 0, 1) {
		t.Fatal("lowest logit top-1 correct")
	}
	if !TopKCorrect(logits, 2, 3) {
		t.Fatal("3rd-ranked label not top-3 correct")
	}
	if TopKCorrect(logits, 0, 4) {
		t.Fatal("5th-ranked label top-4 correct")
	}
	if !TopKCorrect(logits, 0, 5) {
		t.Fatal("label not top-5 correct with k=classes")
	}
	if TopKCorrect(logits, 0, 0) {
		t.Fatal("k=0 accepted")
	}
}

func TestTopKTieBreaking(t *testing.T) {
	// Equal logits: earlier index wins, so label 2 with two equal higher
	// entries at 0,1 is exactly rank 3.
	logits := []float32{0.5, 0.5, 0.5}
	if !TopKCorrect(logits, 0, 1) {
		t.Fatal("first of ties should be top-1")
	}
	if TopKCorrect(logits, 2, 2) {
		t.Fatal("last of ties should not be top-2")
	}
	if !TopKCorrect(logits, 2, 3) {
		t.Fatal("last of ties should be top-3")
	}
}

func TestTopKPropertyTop1ImpliesTopK(t *testing.T) {
	f := func(vals [8]uint8, label, k uint8) bool {
		logits := make([]float32, 8)
		for i, v := range vals {
			logits[i] = float32(v)
		}
		l := int(label % 8)
		kk := int(k%8) + 1
		if TopKCorrect(logits, l, kk) {
			// Must also be correct for every larger k.
			for k2 := kk; k2 <= 8; k2++ {
				if !TopKCorrect(logits, l, k2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyAccumulator(t *testing.T) {
	a := NewAccuracy(10)
	logits := make([]float32, 10)
	logits[3] = 1
	a.Observe(logits, 3) // top1 hit
	a.Observe(logits, 4) // top1 miss, top5 hit (4 is among 5 smallest? rank: idx3 first, then 0,1,2,4 by tie-break → 4 is rank 5)
	if a.Count() != 2 {
		t.Fatalf("Count=%d", a.Count())
	}
	if a.Top1() != 0.5 {
		t.Fatalf("Top1=%v", a.Top1())
	}
	if a.Top5() != 1.0 {
		t.Fatalf("Top5=%v", a.Top5())
	}
	a.Reset()
	if a.Top1() != 0 || a.Count() != 0 {
		t.Fatal("Reset failed")
	}
	_ = a.String()
}

func TestMeter(t *testing.T) {
	var m Meter
	if m.Mean() != 0 {
		t.Fatal("empty meter mean != 0")
	}
	m.Add(1)
	m.Add(3)
	if m.Mean() != 2 || m.Count() != 2 {
		t.Fatalf("mean=%v count=%d", m.Mean(), m.Count())
	}
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Last() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series not zero")
	}
	for i := 1; i <= 100; i++ {
		s.Append(float64(i), float64(i))
	}
	if s.Last() != 100 {
		t.Fatalf("Last=%v", s.Last())
	}
	if p := s.Percentile(50); p < 49 || p > 52 {
		t.Fatalf("P50=%v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("P100=%v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("P0=%v", p)
	}
}
