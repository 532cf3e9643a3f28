package hw

import "testing"

func TestFrontierPublishedConstants(t *testing.T) {
	m := Frontier()
	// Section III-B of the paper: 9408 nodes, 8 GCDs ("GPUs") per node,
	// 64 GB HBM each, IF 50 GB/s, Slingshot 100 GB/s.
	if m.MaxNodes != 9408 {
		t.Errorf("MaxNodes=%d", m.MaxNodes)
	}
	if m.GPUsPerNode != 8 {
		t.Errorf("GPUsPerNode=%d", m.GPUsPerNode)
	}
	if m.HBMBytesPerGPU != 64e9 {
		t.Errorf("HBM=%v", m.HBMBytesPerGPU)
	}
	if m.IntraNodeBW != 50e9 {
		t.Errorf("IntraNodeBW=%v", m.IntraNodeBW)
	}
	if m.InterNodeBWPerNode != 100e9 {
		t.Errorf("InterNodeBW=%v", m.InterNodeBWPerNode)
	}
}

func TestEffectiveFLOPS(t *testing.T) {
	m := Frontier()
	eff := m.EffectiveFLOPS()
	if eff <= 0 || eff >= m.PeakMatrixFLOPS {
		t.Fatalf("effective FLOPS %v outside (0, peak)", eff)
	}
	if m.MFU <= 0 || m.MFU > 1 {
		t.Fatalf("MFU %v", m.MFU)
	}
}

func TestTotalGPUs(t *testing.T) {
	m := Frontier()
	if m.TotalGPUs(64) != 512 {
		t.Fatalf("TotalGPUs(64)=%d", m.TotalGPUs(64))
	}
}

func TestInterBWPerGPU(t *testing.T) {
	m := Frontier()
	if got := m.InterBWPerGPU(); got != 100e9/8 {
		t.Fatalf("InterBWPerGPU=%v", got)
	}
}

func TestGroupBandwidthTiers(t *testing.T) {
	m := Frontier()
	// Pair of GCDs in one package → fastest tier.
	l := m.Link(2, 8)
	if l.Bandwidth != m.PairBW || l.HopLat != m.IntraHopLatency || l.ChunkOverheadBytes != m.IntraChunkOverhead {
		t.Fatalf("pair tier: %+v", l)
	}
	// Group of 8 within node → Infinity Fabric tier.
	if l = m.Link(8, 8); l.Bandwidth != m.IntraNodeBW || l.HopLat != m.IntraHopLatency {
		t.Fatalf("node tier: %+v", l)
	}
	// A group laid out one rank per node spans nodes however small it is.
	if l = m.Link(2, 1); l.Bandwidth != m.InterBWPerGPU() {
		t.Fatalf("strided pair: %+v, want the spanning tier", l)
	}
	// Spanning group: every GCD of a node shares its NIC → NIC/8.
	l = m.Link(64, 8)
	if l.Bandwidth != m.InterNodeBWPerNode/8 || l.Bandwidth != m.InterBWPerGPU() {
		t.Fatalf("spanning tier: bw=%v", l.Bandwidth)
	}
	if l.HopLat != m.InterHopLatency || l.ChunkOverheadBytes != m.InterChunkOverhead {
		t.Fatalf("spanning link %+v", l)
	}
	// A NIC share above the intra-node fabric is capped at the intra tier.
	fat := m
	fat.InterNodeBWPerNode = 1e15
	if l = fat.Link(64, 8); l.Bandwidth != m.IntraNodeBW {
		t.Fatalf("spanning bw %v, want the intra ceiling %v", l.Bandwidth, m.IntraNodeBW)
	}
	// Degenerate group of one: no hop, but the call still launches.
	if l = m.Link(1, 8); l.HopLat != 0 || l.ChunkOverheadBytes != 0 || l.Launch != m.CollectiveLaunch {
		t.Fatalf("singleton group: %+v", l)
	}
	// Every tier pays the per-call launch cost.
	for _, ranks := range []int{2, 8, 64} {
		if l = m.Link(ranks, 8); l.Launch != m.CollectiveLaunch {
			t.Fatalf("%d ranks: launch %v", ranks, l.Launch)
		}
	}
}

func TestBandwidthTierOrdering(t *testing.T) {
	m := Frontier()
	pair := m.Link(2, 8).Bandwidth
	intra := m.Link(8, 8).Bandwidth
	inter := m.Link(16, 8).Bandwidth
	if !(pair > intra && intra > inter) {
		t.Fatalf("tier ordering violated: %v %v %v", pair, intra, inter)
	}
}

func TestPowerModelRange(t *testing.T) {
	m := Frontier()
	if !(m.IdlePower > 0 && m.IdlePower < m.MaxPower) {
		t.Fatalf("power model: idle=%v max=%v", m.IdlePower, m.MaxPower)
	}
	if m.SMContention < 0 || m.SMContention > 0.5 {
		t.Fatalf("SMContention=%v implausible", m.SMContention)
	}
}
