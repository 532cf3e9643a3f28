package calib_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/vit"
)

// envelopeAround frames a JSON payload in a well-formed envelope whose
// checksum matches it: the corruption the checksum cannot see.
func envelopeAround(t testing.TB, payload []byte) []byte {
	t.Helper()
	out, err := json.Marshal(map[string]any{
		"format":   calib.ProfileFormat,
		"checksum": calib.PayloadChecksum(payload),
		"payload":  json.RawMessage(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// hostileProfiles are well-formed payloads no calibration run could
// have emitted — empty, negative, unsorted and absurd tables — which
// only HardwareProfile.Validate stands in front of.
func hostileProfiles() []func(p *calib.HardwareProfile) {
	return []func(p *calib.HardwareProfile){
		func(p *calib.HardwareProfile) { p.GEMM.Points = nil },
		func(p *calib.HardwareProfile) { p.GEMM.Points = p.GEMM.Points[:1] },
		func(p *calib.HardwareProfile) { p.GEMM.Points[1].GFLOPS = -8 },
		func(p *calib.HardwareProfile) { p.GEMM.Points[0].GFLOPS = 0 },
		func(p *calib.HardwareProfile) { p.GEMM.Points[4].GFLOPS = 1e308 },
		func(p *calib.HardwareProfile) { p.GEMM.Points[0].K = 0 },
		func(p *calib.HardwareProfile) { p.GEMM.Points[2].M = -128 },
		func(p *calib.HardwareProfile) {
			p.GEMM.Points[1], p.GEMM.Points[3] = p.GEMM.Points[3], p.GEMM.Points[1]
		},
		func(p *calib.HardwareProfile) { p.Collectives = nil },
		func(p *calib.HardwareProfile) { p.Collectives[0].Ranks = 1 },
		func(p *calib.HardwareProfile) { p.Collectives[1].Beta = -1e-9 },
		func(p *calib.HardwareProfile) { p.Collectives[2].Phases = 0 },
		func(p *calib.HardwareProfile) {
			for i := range p.Collectives {
				p.Collectives[i].Points = nil
			}
		},
		func(p *calib.HardwareProfile) { p.Collectives[0].Points[1].Sec = -1 },
		func(p *calib.HardwareProfile) { p.Collectives[0].Points[2].Sec = 1e-9 }, // time falls as bytes grow
		func(p *calib.HardwareProfile) { p.Collectives[0].Points[2].Bytes = 1e308 },
		func(p *calib.HardwareProfile) { p.Collectives = p.Collectives[3:] }, // no fp32 fit
		func(p *calib.HardwareProfile) { p.Stream.TriadBW = -17e9 },
		func(p *calib.HardwareProfile) { p.Probe = calib.TrainProbe{} },
		func(p *calib.HardwareProfile) { p.Probe.Dim = -80 },
		func(p *calib.HardwareProfile) { p.Probe.EffFLOPS = 1e308 },
		func(p *calib.HardwareProfile) { p.Contention = 0.5 },
		func(p *calib.HardwareProfile) { p.Contention = -3.5 },
		func(p *calib.HardwareProfile) { p.Contention = 1e308 },
		func(p *calib.HardwareProfile) { p.Ranks = 1 },
		func(p *calib.HardwareProfile) { p.Ranks = -4 },
		func(p *calib.HardwareProfile) { p.Ranks = math.MaxInt32 },
	}
}

// mutated returns the JSON payload of the valid test profile after m.
func mutated(t testing.TB, m func(p *calib.HardwareProfile)) []byte {
	t.Helper()
	p := calib.TestProfile()
	m(p)
	payload, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// FuzzUnmarshalProfile feeds UnmarshalProfile hostile hwprofile.json
// bytes: it must answer with a named calib: error, or with a profile
// its consumers can price with — MachineFor and serve.LatencyFromProfile
// return (never panic), fail by name if they fail, and what they return
// is physical: a finite machine with an MFU in (0, 1] and a latency
// curve serve.LatencyModel.Validate accepts. The seed corpus walks the
// defences in order: the valid file, truncations, bit flips, a
// checksum-correct envelope around non-profile payloads, and
// checksum-correct envelopes around profiles with empty, negative,
// unsorted and absurd tables.
func FuzzUnmarshalProfile(f *testing.F) {
	blob, err := calib.MarshalProfile(calib.TestProfile())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	payloadAt := bytes.Index(blob, []byte(`"payload"`))
	for _, cut := range []int{0, 1, payloadAt, payloadAt + 40, len(blob) / 2, len(blob) - 3} {
		f.Add(blob[:cut])
	}
	for _, at := range []int{2, payloadAt / 2, payloadAt + 40, len(blob) / 2} {
		flipped := bytes.Clone(blob)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	for _, payload := range []string{`null`, `{}`, `[]`, `7`, `"hwprofile"`, `{"Ranks":"four"}`,
		`{"GEMM":{"Points":[{"M":1e400}]}}`, `{"Collectives":[null,null]}`} {
		f.Add(envelopeAround(f, []byte(payload)))
	}
	for _, m := range hostileProfiles() {
		f.Add(envelopeAround(f, mutated(f, m)))
	}

	enc := vit.Config{Name: "t", Width: 128, Depth: 4, MLP: 512, Heads: 4,
		PatchSize: 4, ImageSize: 16, Channels: 3}
	named := func(t *testing.T, what string, err error) {
		t.Helper()
		if !strings.HasPrefix(err.Error(), "calib: ") {
			t.Fatalf("%s failed without naming its package: %v", what, err)
		}
	}
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := calib.UnmarshalProfile(data)
		if err != nil {
			if p != nil {
				t.Fatal("UnmarshalProfile returned a profile beside its error")
			}
			named(t, "UnmarshalProfile", err)
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("UnmarshalProfile accepted a profile its own validation rejects: %v", err)
		}
		m, err := p.MachineFor(perfmodel.ViTWorkload(enc, 1), 1)
		if err != nil {
			named(t, "MachineFor", err)
		} else if !(m.MFU > 0 && m.MFU <= 1) || !positive(m.PeakMatrixFLOPS) || !positive(m.HBMBandwidth) ||
			!positive(m.PairBW) || m.CollectiveLaunch < 0 || math.IsInf(m.CollectiveLaunch, 1) {
			t.Fatalf("MachineFor priced a loaded profile non-physically: %+v", m)
		}
		lat, err := serve.LatencyFromProfile(p, enc)
		if err != nil {
			named(t, "serve.LatencyFromProfile", err)
		} else if err := lat.Validate(); err != nil || math.IsInf(lat.BatchSec([]serve.Kind{serve.Embed, serve.Segment}), 1) {
			t.Fatalf("serve.LatencyFromProfile priced a loaded profile non-physically: %v (%v)", lat, err)
		}
	})
}

// TestUnmarshalProfileSeedVerdicts pins what the three seeds the fuzz
// target first failed on are rejected *for* — each once reached
// MachineFor and came back as a negative, NaN or zero MFU under an
// infinite peak — so they cannot start passing through another defence.
func TestUnmarshalProfileSeedVerdicts(t *testing.T) {
	if _, err := calib.UnmarshalProfile(envelopeAround(t, mutated(t, func(*calib.HardwareProfile) {}))); err != nil {
		t.Fatalf("hand-built envelope around the valid profile rejected: %v", err)
	}
	for name, c := range map[string]struct {
		mutate func(p *calib.HardwareProfile)
		want   string
	}{
		"negative GFLOP/s":    {func(p *calib.HardwareProfile) { p.GEMM.Points[1].GFLOPS = -8 }, "roofline point 1"},
		"zero GEMM dimension": {func(p *calib.HardwareProfile) { p.GEMM.Points[0].K = 0 }, "roofline point 0"},
		"unsorted roofline": {func(p *calib.HardwareProfile) {
			p.GEMM.Points[1], p.GEMM.Points[3] = p.GEMM.Points[3], p.GEMM.Points[1]
		}, "not sorted by dimension at point 2"},
	} {
		_, err := calib.UnmarshalProfile(envelopeAround(t, mutated(t, c.mutate)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, c.want)
		}
	}
	// Each table entry of this one is admissible; their product is not.
	p, err := calib.UnmarshalProfile(envelopeAround(t, mutated(t, func(p *calib.HardwareProfile) { p.GEMM.Points[4].GFLOPS = 1e308 })))
	if err != nil {
		t.Fatalf("a finite positive roofline point rejected at load: %v", err)
	}
	if _, err := p.MachineFor(calib.TestWorkload(), 1); err == nil || !strings.Contains(err.Error(), "non-physically") {
		t.Errorf("1e308 GFLOP/s point: MachineFor err = %v, want a non-physical-machine error", err)
	}
}
