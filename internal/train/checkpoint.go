package train

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/nn"
	"repro/internal/opt"
)

// TrainState is the complete mid-run training state of a distributed
// pretraining run at an epoch boundary — everything a resumed
// PretrainDistributed needs to continue bitwise-identically to an
// uninterrupted run. All tensors are stored flat in parameter order
// (the order nn.FlattenParams lays a rank's buffers out in), unpadded:
// shard padding is always zero-valued and is reconstructed from the
// world size at restore time. The state therefore records no topology:
// DistConfig.Resume continues it at any world under any plan, every
// rank cutting its own spans out of the same tensors.
type TrainState struct {
	// Step is the absolute number of completed optimizer steps; Epoch
	// the number of completed epochs (Step == Epoch·stepsPerEpoch — the
	// state is captured at epoch boundaries).
	Step  int
	Epoch int
	// Precision is the numeric mode the state was captured under. A
	// resume validates it against the configuration: an FP32 state
	// carries no loss-scale schedule, so resuming it under BF16 (or
	// vice versa) would silently train a different trajectory.
	Precision Precision
	// AccumSteps is the gradient-accumulation window the state was
	// captured under (0 is read as 1). A resume validates it against
	// the configuration: Step counts optimizer steps, so the mask/sample
	// fast-forward consumes Step×AccumSteps micro-batches — a
	// mismatched window would silently resume on a misaligned mask
	// stream.
	AccumSteps int
	// Master holds the fp32 master weights (for FP32 runs, simply the
	// parameters). OptM/OptV are the Adam moments; OptStep the shared
	// bias-correction counter.
	Master     []float32
	OptM, OptV []float32
	OptStep    int
	// LossScale and ScaleGoodSteps freeze the dynamic loss scaler of a
	// BF16 run (ignored for FP32).
	LossScale      float64
	ScaleGoodSteps int
}

// trainStateFormat names the on-disk layout and opens every file. All
// of it is little-endian:
//
//	header   trainStateFormat; Step, Epoch, Precision, AccumSteps,
//	         OptStep and ScaleGoodSteps as int64; LossScale's float64 bits
//	Master   a uint64 float count, then that many float32 bits
//	OptM     likewise
//	OptV     likewise
//	trailer  the FNV-64a hash of every byte before it
//
// Files of the gob formats before it are rejected; v2, the checksummed
// envelope, by name.
const trainStateFormat = "geofm-trainstate-v3"

// headerBytes is the size of the fixed header; ckptChunk is the size of
// the one buffer a save encodes into and a load decodes from.
const (
	headerBytes = len(trainStateFormat) + 7*8
	ckptChunk   = 32 << 10
)

// ints lists the state's integer scalars in header order.
func (st *TrainState) ints() []*int {
	return []*int{&st.Step, &st.Epoch, (*int)(&st.Precision), &st.AccumSteps, &st.OptStep, &st.ScaleGoodSteps}
}

// section is one of the state's tensors, by name.
type section struct {
	name string
	x    *[]float32
}

// sections lists the state's tensors in file order.
func (st *TrainState) sections() []section {
	return []section{{"Master", &st.Master}, {"OptM", &st.OptM}, {"OptV", &st.OptV}}
}

// SaveTrainState writes a resumable training state to w in format
// geofm-trainstate-v3. Each section is encoded once, through one
// fixed-size buffer whose every flush also feeds the checksum, so a
// save holds no copy of the state.
func SaveTrainState(w io.Writer, st *TrainState) error {
	h := fnv.New64a()
	out, le := io.MultiWriter(w, h), binary.LittleEndian
	var err error
	b := append(make([]byte, 0, ckptChunk), trainStateFormat...)
	flush := func() {
		if err == nil {
			_, err = out.Write(b)
		}
		b = b[:0]
	}
	for _, p := range st.ints() {
		b = le.AppendUint64(b, uint64(*p))
	}
	b = le.AppendUint64(b, math.Float64bits(st.LossScale))
	for _, s := range st.sections() {
		b = le.AppendUint64(b, uint64(len(*s.x)))
		for _, v := range *s.x {
			if len(b) > cap(b)-8 { // room for this float and the next length
				flush()
			}
			b = le.AppendUint32(b, math.Float32bits(v))
		}
	}
	flush()
	b = le.AppendUint64(b, h.Sum64())
	flush()
	if err != nil {
		return fmt.Errorf("train: writing train state: %w", err)
	}
	return nil
}

// LoadTrainState reads a training state written by SaveTrainState from
// memory (a bytes.Reader or bytes.Buffer, whose Len bounds what a length
// prefix may claim); LoadTrainStateFile reads one from a file.
func LoadTrainState(r interface {
	io.Reader
	Len() int
}) (*TrainState, error) {
	return readTrainState(r, int64(r.Len()))
}

// readTrainState decodes a state from r, which holds size bytes: each
// section straight into its slice, never allocating for more floats
// than the bytes left can hold, then the checksum, then validate —
// truncation and bit flips fail here with a named error, not downstream
// as garbage state.
func readTrainState(r io.Reader, size int64) (*TrainState, error) {
	h := fnv.New64a()
	in, le := io.TeeReader(r, h), binary.LittleEndian // hashes all but the trailer
	buf := make([]byte, ckptChunk)
	fill := func(b []byte, what string) error {
		if _, err := io.ReadFull(in, b); err != nil {
			return fmt.Errorf("train: reading train-state %s (truncated file?): %w", what, err)
		}
		return nil
	}
	hdr := buf[:headerBytes]
	n, err := io.ReadFull(in, hdr)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF { // a failed read, not a short file
		return nil, fmt.Errorf("train: reading train-state header: %w", err)
	}
	if !bytes.HasPrefix(hdr[:n], []byte(trainStateFormat)) {
		if bytes.Contains(hdr[:n], []byte("stateEnvelope")) { // the type gob names first
			return nil, fmt.Errorf("train: checkpoint is a retired geofm-trainstate-v2 gob envelope; this build reads %s", trainStateFormat)
		}
		return nil, fmt.Errorf("train: not a train-state file (it does not open with %q)", trainStateFormat)
	}
	if err != nil {
		return nil, fmt.Errorf("train: reading train-state header (truncated file?): %w", err)
	}
	var st TrainState
	for i, p := range st.ints() {
		*p = int(int64(le.Uint64(hdr[len(trainStateFormat)+8*i:])))
	}
	st.LossScale = math.Float64frombits(le.Uint64(hdr[headerBytes-8:]))
	left := size - int64(headerBytes) - 8 // the bytes between header and trailer
	for _, s := range st.sections() {
		if err := fill(buf[:8], s.name+" length"); err != nil {
			return nil, err
		}
		n := le.Uint64(buf)
		left -= 8
		if left < 0 || n > uint64(left)/4 {
			return nil, fmt.Errorf("train: train-state %s claims %d floats, more than the %d bytes before the checksum hold (truncated file?)",
				s.name, n, max(left, 0))
		}
		left -= 4 * int64(n)
		*s.x = make([]float32, n)
		for x := *s.x; len(x) > 0; {
			b := buf[:4*min(len(x), ckptChunk/4)]
			if err := fill(b, s.name); err != nil {
				return nil, err
			}
			for i := range len(b) / 4 {
				x[i] = math.Float32frombits(le.Uint32(b[4*i:]))
			}
			x = x[len(b)/4:]
		}
	}
	sum := h.Sum64()
	if err := fill(buf[:8], "checksum"); err != nil {
		return nil, err
	}
	if want := le.Uint64(buf); sum != want {
		return nil, fmt.Errorf("train: train-state checksum mismatch (%#016x, file says %#016x): corrupted checkpoint", sum, want)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// validate rejects a state no run could have captured, before anything
// indexes one of its tensors with another's length or restores an
// optimizer from its scalars — the check every consumer of a state from
// outside (LoadTrainState, DistConfig.Resume) makes first.
func (st *TrainState) validate() error {
	if len(st.OptM) != len(st.Master) || len(st.OptV) != len(st.Master) {
		return fmt.Errorf("train: state moments (%d/%d values) do not match master (%d)",
			len(st.OptM), len(st.OptV), len(st.Master))
	}
	if st.OptStep < 0 {
		return fmt.Errorf("train: state has negative optimizer step %d", st.OptStep)
	}
	if st.AccumSteps < 0 {
		return fmt.Errorf("train: state has negative AccumSteps %d", st.AccumSteps)
	}
	if st.ScaleGoodSteps < 0 {
		return fmt.Errorf("train: state has negative ScaleGoodSteps %d", st.ScaleGoodSteps)
	}
	// AdamW runs in float32 and takes √v there: a non-finite tensor or
	// a negative second moment would turn into NaN weights a step later.
	for _, t := range st.sections() {
		if opt.HasNonFinite(*t.x) {
			return fmt.Errorf("train: state %s holds a non-finite value", t.name)
		}
	}
	for i, v := range st.OptV {
		if v < 0 {
			return fmt.Errorf("train: state OptV[%d] = %v is negative", i, v)
		}
	}
	if s := st.LossScale; st.Precision == BF16 && (!(s > 0) || math.IsInf(s, 1)) { // !(s > 0) catches NaN
		return fmt.Errorf("train: BF16 state has loss scale %v, want finite and positive", st.LossScale)
	}
	return nil
}

// clone deep-copies the state (the tensors included), so a checkpoint
// snapshot stays frozen while training mutates the live buffers.
func (st *TrainState) clone() *TrainState {
	cp := *st
	for _, s := range cp.sections() {
		*s.x = slices.Clone(*s.x)
	}
	return &cp
}

// LoadInto copies the state's fp32 master weights into params, which
// must be the architecture the state was trained on, in Params() order
// — how a trained model on disk becomes a model in memory for serving
// and probing. The state does not record the architecture, so a
// mismatch is caught by the flat-dimension check.
func (st *TrainState) LoadInto(params []*nn.Param) error {
	if want := opt.FlatDim(params); want != len(st.Master) {
		return fmt.Errorf("train: checkpoint has %d weights, model wants %d (wrong architecture?)",
			len(st.Master), want)
	}
	opt.UnpackValues(params, st.Master)
	return nil
}

// SaveTrainStateFile writes a training state to path via a temp file
// that is synced and then renamed into place, so a crash mid-write never
// leaves a truncated checkpoint at path: without the sync the rename
// can reach the disk before the data does.
func SaveTrainStateFile(path string, st *TrainState) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = SaveTrainState(f, st)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadTrainStateFile reads a training state from path, streaming it
// from the file: its size bounds what the length prefixes may claim.
func LoadTrainStateFile(path string) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readTrainState(f, fi.Size())
}
