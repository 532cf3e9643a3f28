package calib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// profileFormat is the envelope version. Bump it when the profile
// schema changes incompatibly; Load rejects anything else by name.
const profileFormat = "hwprofile/v1"

// HardwareProfile is one host's measured performance character: the
// GEMM roofline, the memory bandwidth, and the collective α–β fits.
// It is the unit calibrate emits, CI archives, and the consumers
// (MachineFor, LinkParams) read in place of the asserted Frontier
// constants.
type HardwareProfile struct {
	// Host records what ran: detected ISA features and core counts.
	Host hw.Features
	// Ranks is the world size the collective sweeps executed at.
	Ranks int
	// CreatedUnix stamps the measurement (seconds since epoch).
	CreatedUnix int64

	GEMM        Roofline
	Stream      StreamResult
	Collectives []CollectiveFit

	// Probe is the executed single-rank train-step measurement that
	// anchors the compute term (see TrainProbe).
	Probe TrainProbe
	// Contention is the measured per-stream GEMM slowdown when Ranks
	// streams share the host (≥ 1; ≈ Ranks on an oversubscribed box).
	Contention float64
}

// Validate reports whether the profile holds a usable measurement.
func (p *HardwareProfile) Validate() error {
	if p.Ranks < 2 {
		return fmt.Errorf("calib: profile world size %d (want ≥ 2)", p.Ranks)
	}
	if len(p.GEMM.Points) < 2 || p.GEMM.PeakGFLOPS() <= 0 {
		return fmt.Errorf("calib: profile roofline has %d points, peak %v GFLOP/s",
			len(p.GEMM.Points), p.GEMM.PeakGFLOPS())
	}
	// GFLOPSAt interpolates in log(Dim) between neighbours: a point with
	// no volume, no throughput or out of order turns into a negative or
	// NaN MFU three calls later.
	for i, pt := range p.GEMM.Points {
		if pt.M < 1 || pt.K < 1 || pt.N < 1 || !(pt.GFLOPS > 0) || math.IsInf(pt.GFLOPS, 1) {
			return fmt.Errorf("calib: profile roofline point %d is %d×%d×%d at %v GFLOP/s (want positive)",
				i, pt.M, pt.K, pt.N, pt.GFLOPS)
		}
		if i > 0 && pt.Dim() < p.GEMM.Points[i-1].Dim() {
			return fmt.Errorf("calib: profile roofline not sorted by dimension at point %d", i)
		}
	}
	if p.Stream.TriadBW <= 0 {
		return fmt.Errorf("calib: profile triad bandwidth %v", p.Stream.TriadBW)
	}
	if len(p.Collectives) == 0 {
		return fmt.Errorf("calib: profile has no collective fits")
	}
	if p.Probe.EffFLOPS <= 0 || p.Probe.Dim <= 0 {
		return fmt.Errorf("calib: profile train probe unset (%+v)", p.Probe)
	}
	if p.Contention < 1 {
		return fmt.Errorf("calib: profile contention %v (want ≥ 1)", p.Contention)
	}
	for _, f := range p.Collectives {
		if _, err := f.Params(); err != nil {
			return fmt.Errorf("calib: profile %s/%s fit unusable: %w", f.Op, f.DType, err)
		}
	}
	return nil
}

// LinkParams returns the pooled α–β link for a wire dtype ("fp32" or
// "bf16") — the comm.Params the executed runs throttle against and
// MachineFor builds the simulator's tiers from.
func (p *HardwareProfile) LinkParams(dtype string) (comm.Params, error) {
	return PooledLink(p.Collectives, dtype)
}

// MachineFor builds the calibrated hw.Machine that prices workload w:
// every constant fsdp.Simulate reads is a measurement from this
// profile. commScale ≥ 1 stretches the modeled collective cost
// (Launch × scale, Bandwidth ÷ scale) — the congested-link mode the
// validation suite uses so exposure is measurable; pass 1 for the
// as-measured link.
//
//   - PeakMatrixFLOPS is the roofline peak, and MFU composes three
//     measurements: the roofline curve read at the workload's
//     characteristic GEMM dimension (shape), discounted by the train
//     probe's executed-vs-GEMM ratio at *its* operating point (level:
//     attention/backward shapes, elementwise work, optimizer, input
//     pipeline), divided by the measured Contention factor (in-process
//     ranks share the host's cores; the simulator assumes each rank
//     owns its accelerator);
//   - HBMBandwidth is the STREAM triad figure (prices the optimizer);
//   - every interconnect tier collapses to the pooled measured link:
//     in-process ranks have no topology, so PairBW = IntraNodeBW =
//     InterNodeBWPerNode, hop latency and chunk overhead fold into the
//     measured α (CollectiveLaunch);
//   - Calibrated = true switches the simulator off its
//     Frontier-asserted fudge constants (host overheads, congestion
//     penalty, straggler inflation, SM contention).
func (p *HardwareProfile) MachineFor(w perfmodel.Workload, commScale float64) (hw.Machine, error) {
	if err := p.Validate(); err != nil {
		return hw.Machine{}, err
	}
	if commScale < 1 {
		commScale = 1
	}
	link, err := p.LinkParams("fp32")
	if err != nil {
		return hw.Machine{}, err
	}
	dim := CharacteristicGEMMDim(w)
	if dim <= 0 {
		return hw.Machine{}, fmt.Errorf("calib: workload has no GEMM volume to set an MFU operating point")
	}
	peak := p.GEMM.PeakGFLOPS() * 1e9
	probeGEMM := p.GEMM.GFLOPSAt(p.Probe.Dim) * 1e9
	discount := p.Probe.EffFLOPS / probeGEMM
	if discount > 1 {
		discount = 1
	}
	eff := p.GEMM.GFLOPSAt(dim) * 1e9 * discount / p.Contention
	bw := link.Bandwidth / commScale
	// Tables that each pass Validate can still multiply out of range
	// (a 1e308 GFLOP/s point, a denormal β): refuse the machine rather
	// than hand the simulator an infinite peak or a zero MFU.
	mfu := eff / peak
	if !(mfu > 0 && mfu <= 1) || math.IsInf(peak, 1) || !(bw > 0) || math.IsInf(bw, 1) {
		return hw.Machine{}, fmt.Errorf("calib: profile prices the workload non-physically (peak %v FLOP/s, MFU %v, link %v B/s)",
			peak, mfu, bw)
	}
	return hw.Machine{
		Name:        "calibrated/" + p.Host.KernelISA(),
		MaxNodes:    1,
		GPUsPerNode: p.Ranks,

		HBMBytesPerGPU: 64e9, // capacity is not measured; keep the fit check inert
		HBMBandwidth:   p.Stream.TriadBW,

		PeakMatrixFLOPS: peak,
		MFU:             mfu,

		PairBW:             bw,
		IntraNodeBW:        bw,
		InterNodeBWPerNode: bw,
		CollectiveLaunch:   link.Launch * commScale,

		IdlePower:     1,
		MaxPower:      2,
		CommPowerFrac: 0,

		Calibrated: true,
	}, nil
}

// profileEnvelope is the on-disk wrapper: format version + FNV-64a
// checksum over the raw payload bytes, the same discipline as the
// train-state checkpoint envelope.
type profileEnvelope struct {
	Format   string          `json:"format"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// payloadChecksum hashes the payload's *compact* JSON form, so the
// checksum is insensitive to the re-indentation MarshalIndent applies
// to nested raw messages.
func payloadChecksum(b []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		buf.Reset()
		buf.Write(b) // non-JSON payloads hash as-is; Unmarshal rejects them later
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%#016x", h.Sum64())
}

// MarshalProfile encodes the profile into its checksummed envelope.
func MarshalProfile(p *HardwareProfile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("calib: encoding hardware profile: %w", err)
	}
	env := profileEnvelope{Format: profileFormat, Checksum: payloadChecksum(payload), Payload: payload}
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("calib: encoding hardware-profile envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// UnmarshalProfile decodes and verifies an envelope: the format
// version and payload checksum are checked before the payload is
// trusted, so truncation, corruption and schema drift each fail with
// a named error instead of a half-read profile.
func UnmarshalProfile(data []byte) (*HardwareProfile, error) {
	var env profileEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("calib: decoding hardware-profile envelope (truncated or not a profile): %w", err)
	}
	if env.Format != profileFormat {
		return nil, fmt.Errorf("calib: unknown hardware-profile format %q (want %q)", env.Format, profileFormat)
	}
	if got := payloadChecksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("calib: hardware-profile checksum mismatch (%s, envelope says %q): corrupted profile",
			got, env.Checksum)
	}
	var p HardwareProfile
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return nil, fmt.Errorf("calib: decoding hardware profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SaveProfileFile writes the envelope to path atomically: to a
// temporary file, fsynced, then renamed over path, so a crash or a full
// disk mid-write leaves the previous profile intact.
func SaveProfileFile(path string, p *HardwareProfile) error {
	data, err := MarshalProfile(p)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
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

// LoadProfileFile reads and verifies an envelope from path.
func LoadProfileFile(path string) (*HardwareProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("calib: reading hardware profile: %w", err)
	}
	return UnmarshalProfile(data)
}
