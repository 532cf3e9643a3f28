package train

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/fsdp"
)

// gobMessageEnds returns the offset just past every length-prefixed
// message of a gob stream (type descriptors and values alike) — the
// stream's section boundaries. It stops at the first prefix it cannot
// follow.
func gobMessageEnds(b []byte) []int {
	var ends []int
	for at := 0; at < len(b); {
		// gob's unsigned: one byte below 128, else a negated byte count
		// followed by that many big-endian bytes.
		n, w := int(b[at]), 1
		if n >= 128 {
			k := 256 - n
			if k > 8 || at+1+k > len(b) {
				break
			}
			n = 0
			for _, c := range b[at+1 : at+1+k] {
				n = n<<8 | int(c)
			}
			w = 1 + k
		}
		if at += w + n; at > len(b) {
			break
		}
		ends = append(ends, at)
	}
	return ends
}

// payloadOf gob-encodes a state as SaveTrainState would (stamping the
// format unless the state carries one of its own), without the envelope.
func payloadOf(t testing.TB, st *TrainState) []byte {
	t.Helper()
	cp := *st
	if cp.Format == "" {
		cp.Format = trainStateFormat
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// envelopeAround frames an arbitrary payload in a well-formed envelope
// whose checksum matches it: the corruption the checksum cannot see.
func envelopeAround(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	env := stateEnvelope{Format: trainStateFormat, Checksum: stateChecksum(payload), Payload: payload}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadTrainState feeds LoadTrainState hostile checkpoint bytes: it
// must answer with a state that passes its own validation or with a
// named train: error, never with a panic — and whatever it accepts,
// Reshard (the next consumer of a loaded state's stamps) must treat the
// same way. The seed corpus walks every defence in order: the valid
// file, truncation at each section boundary of the envelope and of the
// payload inside it, single bit flips in each section, a valid
// checksummed envelope around a corrupt gob payload (which only the
// payload decoder can catch), and well-formed payloads no run could
// have captured (which only validate can catch).
func FuzzLoadTrainState(f *testing.F) {
	good := syntheticState(24, 2, fsdp.BestPractice(fsdp.HybridShard, 2))
	good.Precision, good.LossScale = BF16, 1024
	var file bytes.Buffer
	if err := SaveTrainState(&file, good); err != nil {
		f.Fatal(err)
	}
	blob := file.Bytes()
	f.Add(blob)

	var env stateEnvelope
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&env); err != nil {
		f.Fatal(err)
	}
	payloadAt := bytes.Index(blob, env.Payload)
	if payloadAt < 0 {
		f.Fatal("payload not found verbatim in the envelope")
	}
	cuts := []int{0, 1, payloadAt, len(blob) - 1}
	cuts = append(cuts, gobMessageEnds(blob)...)
	for _, end := range gobMessageEnds(env.Payload) {
		cuts = append(cuts, payloadAt+end)
	}
	for _, cut := range cuts {
		if cut < len(blob) {
			f.Add(blob[:cut])
		}
	}
	for _, at := range append(cuts, payloadAt/2, payloadAt+len(env.Payload)/2) {
		if at < len(blob) {
			flipped := bytes.Clone(blob)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}

	for _, corrupt := range []func(p []byte) []byte{
		func(p []byte) []byte { return nil },
		func(p []byte) []byte { return []byte("not a gob stream") },
		func(p []byte) []byte { return p[:len(p)/2] },
		func(p []byte) []byte { p[len(p)/2] ^= 0x10; return p },
		func(p []byte) []byte { p[3] ^= 0xff; return p }, // inside the type descriptor
		func(p []byte) []byte { return append(p, p...) },
	} {
		f.Add(envelopeAround(f, corrupt(bytes.Clone(env.Payload))))
	}

	for _, mutate := range []func(st *TrainState){
		func(st *TrainState) { st.OptM = st.OptM[:len(st.OptM)-1] },
		func(st *TrainState) { st.OptV = append(st.OptV, 1) },
		func(st *TrainState) { st.Master = nil },
		func(st *TrainState) { st.Master[5] = float32(math.NaN()) },
		func(st *TrainState) { st.OptM[0] = float32(math.Inf(-1)) },
		func(st *TrainState) { st.OptV[7] = -1e-3 },
		func(st *TrainState) { st.OptStep = -4 },
		func(st *TrainState) { st.LossScale = math.Inf(1) },
		func(st *TrainState) { st.LossScale = 0 },
		func(st *TrainState) { st.World, st.Strategy = 3, "HYBRID_2GPUs" }, // a stamp no run could have written
		func(st *TrainState) { st.Strategy = "ZEBRA" },
		func(st *TrainState) { st.Format = "geofm-trainstate-v1" },
	} {
		st := good.clone()
		mutate(st)
		f.Add(envelopeAround(f, payloadOf(f, st)))
	}

	named := func(t *testing.T, what string, err error) {
		t.Helper()
		if !strings.HasPrefix(err.Error(), "train: ") {
			t.Fatalf("%s failed without naming its package: %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadTrainState(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatal("LoadTrainState returned a state beside its error")
			}
			named(t, "LoadTrainState", err)
			return
		}
		if err := st.validate(); err != nil {
			t.Fatalf("LoadTrainState accepted a state its own validation rejects: %v", err)
		}
		if out, err := Reshard(st, 2, fsdp.Plan{}); err != nil {
			named(t, "Reshard", err)
		} else if out.World != 2 || len(out.Master) != len(st.Master) {
			t.Fatalf("Reshard of a loaded state: world %d, %d master values", out.World, len(out.Master))
		} else if len(st.Master) > 0 && &out.Master[0] == &st.Master[0] {
			t.Fatal("Reshard returned a state aliasing its input")
		}
	})
}

// TestLoadTrainStateSeedVerdicts pins what the fuzz corpus' two
// checksum-blind families are rejected *for*, so a seed cannot silently
// start passing through a different defence than the one it was written
// to reach.
func TestLoadTrainStateSeedVerdicts(t *testing.T) {
	good := syntheticState(24, 2, fsdp.DefaultDDP())
	payload := payloadOf(t, good)
	if _, err := LoadTrainState(bytes.NewReader(envelopeAround(t, payload))); err != nil {
		t.Fatalf("hand-built envelope around a valid payload rejected: %v", err)
	}
	nan, negative := good.clone(), good.clone()
	nan.Master[5] = float32(math.NaN())
	negative.OptV[7] = -1e-3
	for name, c := range map[string]struct {
		payload []byte
		want    string
	}{
		"truncated payload":      {payload[:len(payload)/2], "decoding train state"},
		"empty payload":          {nil, "decoding train state"},
		"nan master":             {payloadOf(t, nan), "Master holds a non-finite"},
		"negative second moment": {payloadOf(t, negative), "OptV[7]"},
	} {
		_, err := LoadTrainState(bytes.NewReader(envelopeAround(t, c.payload)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, c.want)
		}
	}
}
