package train

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// syntheticState builds a TrainState with position-distinct tensors, as
// if captured by a run at its epoch-3 boundary.
func syntheticState(dim int) *TrainState {
	st := &TrainState{
		Step: 12, Epoch: 3, Precision: FP32, AccumSteps: 1,
		Master:  make([]float32, dim),
		OptM:    make([]float32, dim),
		OptV:    make([]float32, dim),
		OptStep: 12,
	}
	for i := range st.Master {
		st.Master[i] = 1 + float32(i)*0.5
		st.OptM[i] = -2 + float32(i)*0.25
		st.OptV[i] = float32(math.Exp(float64(i % 13)))
	}
	return st
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// fileOf is the file SaveTrainState writes for st. SaveTrainState does
// not validate, so this is also a checksum-valid file around a state no
// run could have captured: the corruption only validate can see.
func fileOf(t testing.TB, st *TrainState) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := SaveTrainState(&b, st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sectionEnds returns the offset just past each region of the file of a
// state with p floats per tensor: the header, then each tensor's length
// prefix and its floats, then the checksum trailer, which ends the file.
func sectionEnds(p int) []int {
	ends := []int{headerBytes}
	for range 3 {
		at := ends[len(ends)-1] + 8
		ends = append(ends, at, at+4*p)
	}
	return append(ends, ends[len(ends)-1]+8)
}

// rehashed recomputes a file's trailer after an edit, so the edit
// reaches the checks behind the checksum.
func rehashed(file []byte) []byte {
	h := fnv.New64a()
	h.Write(file[:len(file)-8])
	binary.LittleEndian.PutUint64(file[len(file)-8:], h.Sum64())
	return file
}

// withLength overwrites the length prefix of the i-th tensor (0 is
// Master) in a file of p floats per tensor.
func withLength(file []byte, p, i int, n uint64) []byte {
	binary.LittleEndian.PutUint64(file[sectionEnds(p)[2*i]:], n)
	return file
}

// readTestdata returns the bytes of testdata/name.
func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzLoadTrainState feeds LoadTrainState hostile checkpoint bytes: it
// must answer with a state that passes its own validation or with a
// named train: error, never with a panic. The seed corpus walks every
// defence in order: the valid file, truncation at each section boundary
// and inside each tensor, a bit flip in each section, length prefixes
// that claim more than the file holds (also behind a valid checksum),
// a retired v2 checkpoint, and checksum-valid files around states no
// run could have captured (which only validate can catch).
func FuzzLoadTrainState(f *testing.F) {
	const p = 24
	good := syntheticState(p)
	good.Precision, good.LossScale, good.ScaleGoodSteps = BF16, 1024, 5
	blob := fileOf(f, good)
	f.Add(blob)

	ends := sectionEnds(p)
	cuts := append([]int{0, 1, len(trainStateFormat)}, ends[:len(ends)-1]...)
	for i := 1; i < len(ends)-1; i += 2 {
		cuts = append(cuts, (ends[i]+ends[i+1])/2) // inside each tensor
	}
	for _, cut := range append(cuts, len(blob)-1) {
		f.Add(blob[:cut])
	}
	start := 0
	for _, end := range ends {
		flipped := bytes.Clone(blob)
		flipped[(start+end)/2] ^= 0x10
		f.Add(flipped)
		start = end
	}
	f.Add(withLength(bytes.Clone(blob), p, 0, 1<<31))
	f.Add(withLength(bytes.Clone(blob), p, 2, math.MaxUint64))
	f.Add(rehashed(withLength(bytes.Clone(blob), p, 0, p+1)))
	f.Add(rehashed(withLength(bytes.Clone(blob), p, 2, p-1)))
	f.Add(append(bytes.Clone(blob), blob...))
	f.Add(readTestdata(f, "trainstate-v2.ckpt"))

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
		func(st *TrainState) { st.AccumSteps = -2 },
		func(st *TrainState) { st.ScaleGoodSteps = -7 },
	} {
		st := good.clone()
		mutate(st)
		f.Add(fileOf(f, st))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadTrainState(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatal("LoadTrainState returned a state beside its error")
			}
			if !strings.HasPrefix(err.Error(), "train: ") {
				t.Fatalf("LoadTrainState failed without naming its package: %v", err)
			}
			return
		}
		if err := st.validate(); err != nil {
			t.Fatalf("LoadTrainState accepted a state its own validation rejects: %v", err)
		}
	})
}

// TestLoadTrainStateSeedVerdicts pins what the fuzz corpus' families
// are rejected *for*, so a seed cannot silently start passing through a
// different defence than the one it was written to reach.
func TestLoadTrainStateSeedVerdicts(t *testing.T) {
	const p = 24
	good := syntheticState(p)
	file := fileOf(t, good)
	if _, err := LoadTrainState(bytes.NewReader(file)); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	nan, negative, accum, scaler := good.clone(), good.clone(), good.clone(), good.clone()
	nan.Master[5] = float32(math.NaN())
	negative.OptV[7] = -1e-3
	accum.AccumSteps = -2
	scaler.ScaleGoodSteps = -7
	flipped := bytes.Clone(file)
	flipped[sectionEnds(p)[4]-1] ^= 0x10 // the last byte of OptM
	for name, c := range map[string]struct {
		file []byte
		want string
	}{
		"truncated header":        {file[:40], "reading train-state header (truncated file?)"},
		"truncated tensor":        {file[:len(file)/2], "OptM claims 24 floats"},
		"truncated trailer":       {file[:len(file)-1], "OptV claims 24 floats"},
		"empty file":              {nil, "not a train-state file"},
		"flipped bit":             {flipped, "checksum mismatch"},
		"lying length":            {rehashed(withLength(bytes.Clone(file), p, 0, p+1)), "OptM claims"},
		"nan master":              {fileOf(t, nan), "Master holds a non-finite"},
		"negative second moment":  {fileOf(t, negative), "OptV[7]"},
		"negative accumulation":   {fileOf(t, accum), "negative AccumSteps -2"},
		"negative scaler counter": {fileOf(t, scaler), "negative ScaleGoodSteps -7"},
	} {
		_, err := LoadTrainState(bytes.NewReader(c.file))
		if err == nil || !strings.HasPrefix(err.Error(), "train: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a train: error naming %q", name, err, c.want)
		}
	}
}

// TestTrainStateFileSize pins the file to its closed form: the header
// (the format name and seven 8-byte scalars), three tensors of a length
// prefix and 4 bytes a float, and the 8-byte checksum.
func TestTrainStateFileSize(t *testing.T) {
	if headerBytes != 19+7*8 {
		t.Fatalf("header is %d bytes, want 75", headerBytes)
	}
	for _, p := range []int{0, 1, 24, ckptChunk/4 + 3} {
		st := syntheticState(p)
		if got, want := len(fileOf(t, st)), headerBytes+3*(8+4*p)+8; got != want {
			t.Errorf("%d floats per tensor: file is %d bytes, want %d", p, got, want)
		}
		back, err := LoadTrainState(bytes.NewReader(fileOf(t, st)))
		if err != nil || !bitsEqual(back.Master, st.Master) || !bitsEqual(back.OptM, st.OptM) || !bitsEqual(back.OptV, st.OptV) {
			t.Errorf("%d floats per tensor: round trip lost the tensors (err %v)", p, err)
		}
	}
}

// allocated reports the heap bytes f allocates, the least over three
// runs on one P: an allocation elsewhere in the process can only add.
func allocated(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestTrainStateRoundTripAllocation: a save writes through one fixed
// buffer and a load allocates the three tensors it returns, so a round
// trip of a P-float state allocates 12·P bytes plus a fixed allowance
// for the buffers. (The gob envelope this format replaced allocated
// 14.5× the state here.)
func TestTrainStateRoundTripAllocation(t *testing.T) {
	const p = 200_000 // about the serving workload's model
	st := syntheticState(p)
	var file bytes.Buffer
	file.Grow(16 * p)
	got := allocated(func() {
		file.Reset()
		if err := SaveTrainState(&file, st); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTrainState(&file); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("save+load of a %d-float state allocated %d bytes (%.2f× the state)", p, got, float64(got)/(12*p))
	if limit := uint64(12*p + 128<<10); got > limit {
		t.Errorf("save+load of a %d-float state allocated %d bytes, want at most %d", p, got, limit)
	}
}

// TestTrainStateHugeLengthPrefix: a length prefix is checked against
// the bytes the input holds before anything is allocated for it, so a
// 100-byte input that claims 2³¹ floats fails by name and allocates
// next to nothing.
func TestTrainStateHugeLengthPrefix(t *testing.T) {
	file := fileOf(t, syntheticState(4))[:100]
	withLength(file, 4, 0, 1<<31)
	var err error
	if got := allocated(func() { _, err = LoadTrainState(bytes.NewReader(file)) }); got > 1<<20 {
		t.Errorf("a 100-byte input claiming 2³¹ floats allocated %d bytes", got)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "train: ") || !strings.Contains(err.Error(), "Master claims 2147483648 floats") {
		t.Errorf("err = %v, want a train: error naming the claim", err)
	}
}
