package train

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/nn"
	"repro/internal/opt"
)

// TrainState is the complete mid-run training state of a distributed
// pretraining run at an epoch boundary — everything a resumed
// PretrainDistributed needs to continue bitwise-identically to an
// uninterrupted run. All tensors are stored flat in parameter order
// (the order nn.FlattenParams lays a rank's buffers out in), unpadded:
// shard padding is always zero-valued and is reconstructed from the
// world size at restore time, which makes the state independent of the
// world and strategy it was captured under.
type TrainState struct {
	Format string
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
	// captured under (0 is read as 1, so states from before
	// accumulation existed resume as unaccumulated runs). A resume
	// validates it against the configuration: Step counts optimizer
	// steps, so the mask/sample fast-forward consumes Step×AccumSteps
	// micro-batches — a mismatched window would silently resume on a
	// misaligned mask stream.
	AccumSteps int
	// World and Strategy stamp the topology the state was captured
	// under: the world size and the plan name (fsdp.Plan.Name()). A
	// resume validates both against the configuration — continuing at a
	// different world or strategy requires going through Reshard, which
	// restamps them. Zero values (states from before elasticity
	// existed) act as wildcards.
	World    int
	Strategy string
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

// trainStateFormat is the current on-disk format: a checksummed
// envelope (v2) around the gob-encoded TrainState. v1 wrote the bare
// TrainState gob; its Format field decodes into the envelope by field
// name, so a v1 stream is recognized and rejected with a clear
// format error rather than misread.
const trainStateFormat = "geofm-trainstate-v2"

// stateEnvelope is the on-disk frame of a train state: the payload is
// the gob-encoded TrainState and Checksum is its FNV-64a hash, so a
// truncated or bit-flipped checkpoint file fails LoadTrainState with a
// clear error instead of a gob panic or silently corrupted state.
type stateEnvelope struct {
	Format   string
	Checksum uint64
	Payload  []byte
}

func stateChecksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// SaveTrainState writes a resumable training state to w: the state's
// gob encoding wrapped in a checksummed envelope (format version
// geofm-trainstate-v2).
func SaveTrainState(w io.Writer, st *TrainState) error {
	cp := *st
	cp.Format = trainStateFormat
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(cp); err != nil {
		return fmt.Errorf("train: encoding train state: %w", err)
	}
	env := stateEnvelope{
		Format:   trainStateFormat,
		Checksum: stateChecksum(body.Bytes()),
		Payload:  body.Bytes(),
	}
	return gob.NewEncoder(w).Encode(env)
}

// LoadTrainState reads a training state written by SaveTrainState,
// verifying the envelope's format version and payload checksum before
// decoding: truncation and bit flips fail here with a clear error, not
// downstream as garbage state.
func LoadTrainState(r io.Reader) (*TrainState, error) {
	var env stateEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("train: decoding train-state envelope (truncated or not a train state): %w", err)
	}
	if env.Format != trainStateFormat {
		return nil, fmt.Errorf("train: unknown train-state format %q (want %q)", env.Format, trainStateFormat)
	}
	if got := stateChecksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("train: train-state checksum mismatch (%#016x, envelope says %#016x): corrupted checkpoint",
			got, env.Checksum)
	}
	var st TrainState
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("train: decoding train state: %w", err)
	}
	if st.Format != trainStateFormat {
		return nil, fmt.Errorf("train: unknown train-state format %q", st.Format)
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &st, nil
}

// validate rejects a state no run could have captured, before anything
// indexes one of its tensors with another's length or restores an
// optimizer from its scalars — the check every consumer of a state from
// outside (LoadTrainState, Reshard, DistConfig.Resume) makes first.
func (st *TrainState) validate() error {
	if len(st.OptM) != len(st.Master) || len(st.OptV) != len(st.Master) {
		return fmt.Errorf("train: state moments (%d/%d values) do not match master (%d)",
			len(st.OptM), len(st.OptV), len(st.Master))
	}
	if st.OptStep < 0 {
		return fmt.Errorf("train: state has negative optimizer step %d", st.OptStep)
	}
	// AdamW runs in float32 and takes √v there: a non-finite tensor or
	// a negative second moment would turn into NaN weights a step later.
	for _, f := range []struct {
		name string
		x    []float32
	}{{"Master", st.Master}, {"OptM", st.OptM}, {"OptV", st.OptV}} {
		if opt.HasNonFinite(f.x) {
			return fmt.Errorf("train: state %s holds a non-finite value", f.name)
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
	cp.Master = append([]float32(nil), st.Master...)
	cp.OptM = append([]float32(nil), st.OptM...)
	cp.OptV = append([]float32(nil), st.OptV...)
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
// renamed into place, so a crash mid-write never leaves a truncated
// checkpoint at path.
func SaveTrainStateFile(path string, st *TrainState) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveTrainState(f, st); err != nil {
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

// LoadTrainStateFile reads a training state from path.
func LoadTrainStateFile(path string) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTrainState(f)
}
