package serve

import (
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/train"
)

// Model is the served artifact: the MAE encoder weights (read-only
// after construction) plus optional fitted probe heads. One Model is
// shared by every inference engine — the encoder pass (mae.Encode, the
// same pass the probes' extractors run) writes no layer state on a
// frozen arena, so workers bring a per-engine nn.NewInferCtx arena and
// nothing else.
type Model struct {
	MAE *mae.Model
	// Cls scores Classify requests over pooled features; nil rejects
	// them with ErrNoHead.
	Cls *probe.Head
	// Seg scores Segment requests over per-token features; nil rejects
	// them with ErrNoHead.
	Seg *probe.Head
	// BF16 marks the reduced-precision serving mode: weights were
	// rounded to bf16 once at load (RoundBF16) and request images are
	// rounded at ingest. The bf16 values stay in their float32 slots and
	// go through the same fp32 GEMM, which accumulates in fp32.
	BF16 bool
}

// NewModel builds a servable model with fresh seed-derived weights —
// the demo path; production serving loads a checkpoint via
// NewModelFromState.
func NewModel(cfg mae.Config, seed uint64) *Model {
	return &Model{MAE: mae.New(cfg, rng.New(seed))}
}

// NewModelFromState builds the model for cfg and loads the fp32
// master weights from a training checkpoint. The TrainState does not
// record the architecture, so cfg must be the training configuration;
// TrainState.LoadInto rejects a mismatch.
func NewModelFromState(cfg mae.Config, st *train.TrainState) (*Model, error) {
	m := &Model{MAE: mae.New(cfg, rng.New(1))}
	if err := st.LoadInto(m.MAE.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// AttachHeads installs fitted probe heads (either may be nil).
func (m *Model) AttachHeads(cls, seg *probe.Head) {
	m.Cls = cls
	m.Seg = seg
}

// RoundBF16 rounds every model weight and head weight to bfloat16
// (round-to-nearest-even) in place and flags the model, so the serving
// path answers from bf16-resolution parameters. Call once at load time,
// before the first request.
func (m *Model) RoundBF16() {
	for _, p := range m.MAE.Params() {
		tensor.RoundBF16(p.Value, p.Value)
	}
	for _, h := range []*probe.Head{m.Cls, m.Seg} {
		if h != nil {
			tensor.RoundBF16(h.W, h.W)
			tensor.RoundBF16(h.B, h.B)
		}
	}
	m.BF16 = true
}

// ImageLen returns the expected request payload length (channel-last
// H·W·C pixels at the encoder's geometry).
func (m *Model) ImageLen() int {
	enc := m.MAE.Cfg.Encoder
	return enc.ImageSize * enc.ImageSize * enc.Channels
}

// admissible validates a request against the loaded model at admission
// time, so malformed requests never occupy batch slots.
func (m *Model) admissible(kind Kind, img []float32) error {
	if kind >= numKinds {
		return ErrBadRequest
	}
	if len(img) != m.ImageLen() {
		return ErrBadRequest
	}
	if (kind == Classify && m.Cls == nil) || (kind == Segment && m.Seg == nil) {
		return ErrNoHead
	}
	return nil
}

// Request is one admitted inference request.
type Request struct {
	ID   uint64
	Kind Kind
	// Img is the channel-last image payload (ImageLen floats).
	Img []float32
	// Client tags closed-loop load-generator requests (reporting only).
	Client int
}

// Response carries one request's result and its latency trace. Exactly
// one of Embedding/Logits/Labels is set according to Kind, unless Err
// is set (shed or rejected requests complete with only Err and the
// admission trace point).
type Response struct {
	ID   uint64
	Kind Kind
	// Client echoes the request's client tag (closed-loop generators
	// route follow-up arrivals by it).
	Client int
	Err    error

	Embedding []float32 // Embed: (width) pooled features
	Logits    []float32 // Classify: (classes) head logits
	Labels    []uint8   // Segment: one class per patch token

	// Trace holds the four stamped latency points.
	Trace trace.RequestTrace
	// BatchSeq/BatchSize identify the batch the request rode in: its
	// Seq in the run's batch log and its size.
	BatchSeq  int
	BatchSize int
}

// Fill executes one formed batch on the shared weights: a single
// full-token encoder pass over every member image, then per-request
// head work — pooling for Embed, pooling + classification head for
// Classify, per-token head + argmax for Segment. Mixed-kind batches
// share the encoder pass. resps[i] receives reqs[i]'s payload; the
// written payload slices are freshly allocated (they outlive ctx),
// which must be a frozen arena (nn.NewInferCtx) for workers to share
// the model.
//
// All per-request arithmetic is the probes' bitwise for a batch of the
// same composition: the encoder pass is mae.Encode, the one pass that
// Features and TokenFeatures also run; pooling is
// mae.PoolTokens, Features' own; and head scoring is
// probe.Head.LogitsInto (≡ the probe's evaluate-time logits).
func (m *Model) Fill(ctx *nn.Arena, reqs []*Request, resps []*Response) {
	n := len(reqs)
	if n == 0 {
		return
	}
	ctx.Reset()
	enc := m.MAE.Cfg.Encoder
	imgLen := m.ImageLen()
	t := enc.Tokens()
	w := enc.Width

	imgs := ctx.Take(n * imgLen)
	for i, r := range reqs {
		copy(imgs[i*imgLen:(i+1)*imgLen], r.Img)
	}
	if m.BF16 {
		tensor.RoundBF16(imgs, imgs)
	}

	tok := m.MAE.Encode(ctx, imgs, n)
	pooled := ctx.Take(n * w)
	m.MAE.PoolTokens(pooled, tok, n)

	// Each request's head buffers are scratch above the token matrix,
	// handed back before the next request's.
	mark := ctx.Mark()
	for i, r := range reqs {
		resp := resps[i]
		switch r.Kind {
		case Embed:
			resp.Embedding = append([]float32(nil), pooled[i*w:(i+1)*w]...)
		case Classify:
			h := m.Cls
			logits := make([]float32, h.Classes)
			h.LogitsInto(logits, pooled[i*w:(i+1)*w], ctx.Scratch(w), 1)
			resp.Logits = logits
		case Segment:
			h := m.Seg
			logits := ctx.Scratch(t * h.Classes)
			h.LogitsInto(logits, tok[i*t*w:(i+1)*t*w], ctx.Scratch(t*w), t)
			labels := make([]uint8, t)
			for j := range labels {
				labels[j] = uint8(probe.Argmax(logits[j*h.Classes : (j+1)*h.Classes]))
			}
			resp.Labels = labels
		}
		ctx.Rewind(mark)
	}
}
