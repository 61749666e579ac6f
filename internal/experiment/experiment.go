// Package experiment is the evaluation harness: it wires encoder,
// packetiser, lossy channel, decoder and metrics into reproducible
// scenario runs, and provides the size-matching calibration and
// recovery measurement the paper's Section 4 experiments need.
//
// The grid experiments (Sweep, Fig5, Fig6, ContentTable, RDCurve)
// fan independent runs out across a bounded worker pool
// (internal/parallel) controlled by each config's Workers knob;
// results land in index-addressed slots in the serial iteration order,
// so every table, trace and CSV is byte-identical for any worker
// count. A Scenario additionally exposes Workers for the encoder's
// intra-frame sharding — the second concurrency level, equally
// deterministic (see ARCHITECTURE.md).
package experiment

import (
	"fmt"

	"pbpair/internal/codec"
	"pbpair/internal/energy"
	"pbpair/internal/metrics"
	"pbpair/internal/motion"
	"pbpair/internal/network"
	"pbpair/internal/synth"
	"pbpair/internal/video"
)

// Scenario describes one end-to-end run: a source sequence encoded
// under a scheme, transmitted over a channel, decoded with
// concealment, and measured against the original.
type Scenario struct {
	Name   string
	Source synth.Source
	Frames int

	// Codec parameters. Zero values select QP 8 and SearchRange 15 —
	// the H.263 test-model's full-search window, which gives motion
	// estimation the energy share the paper's analysis assumes.
	QP           int
	SearchRange  int
	Search       motion.SearchKind
	SADThreshold int32
	HalfPel      bool

	// Planner is the resilience scheme under test. Required.
	Planner codec.ModePlanner

	// Workers bounds the encoder's intra-frame sharding (codec.Config
	// Workers): <= 1 encodes serially. Results are bit-identical for
	// every value; this knob changes only wall-clock time.
	Workers int

	// Channel models the network; nil means loss-free.
	Channel network.Channel
	// MTU for packetisation (default network.DefaultMTU).
	MTU int

	// Concealer overrides the decoder's copy concealment.
	Concealer codec.Concealer

	// FECGroup enables XOR-parity forward error correction spanning
	// this many consecutive frames per group (0 = off) — the §5
	// channel-coding cooperation. The receiver buffers a full group
	// before decoding (the usual FEC latency trade), so any single
	// packet loss inside a group is recovered bit-exactly.
	FECGroup int

	// Profile is the energy model device (default energy.IPAQ).
	Profile energy.Profile

	// BadPixelThreshold for the bad-pixel metric (default
	// metrics.DefaultBadPixelThreshold).
	BadPixelThreshold int
}

// Result aggregates a scenario run.
type Result struct {
	Name   string
	Scheme string
	Frames int

	PSNR       metrics.Series // per-frame luma PSNR (dB) vs original
	BadPixels  metrics.Series // per-frame bad-pixel counts
	FrameBytes metrics.Series // per-frame encoded sizes
	IntraMBs   metrics.Series // per-frame intra macroblock counts

	TotalBytes    int
	FECBytes      int // parity payload bytes when FECGroup is on
	TotalBadPix   int
	ConcealedMBs  int
	LostFrames    int
	PacketsSent   int
	PacketsLost   int
	Counters      energy.Counters
	Joules        float64
	Breakdown     energy.Breakdown
	DecodedFrames []*video.Frame // retained only when KeepFrames was set
	keepFrames    bool
}

// Option customises a run.
type Option func(*runner)

// KeepFrames retains each decoded frame in the result (memory-heavy;
// for tests and visual dumps).
func KeepFrames() Option {
	return func(r *runner) { r.keep = true }
}

type runner struct {
	keep bool
}

// Run executes a scenario: the encode phase followed by the simulate
// phase (see pipeline.go). The split is invisible here — Run produces
// exactly what the single-loop implementation did, because the encoder
// never sees the channel — but it lets a Plan share the encode across
// many simulations.
func Run(s Scenario, opts ...Option) (*Result, error) {
	seq, err := encodeScenario(s)
	if err != nil {
		return nil, err
	}
	res, err := Simulate(seq, s.Source, SimSpec{
		Name:              s.Name,
		Channel:           s.Channel,
		MTU:               s.MTU,
		Concealer:         s.Concealer,
		FECGroup:          s.FECGroup,
		Profile:           s.Profile,
		BadPixelThreshold: s.BadPixelThreshold,
	}, opts...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// encodeScenario runs a scenario's encode phase.
func encodeScenario(s Scenario) (*codec.EncodedSequence, error) {
	if s.Source == nil {
		return nil, fmt.Errorf("experiment: scenario %q has no source", s.Name)
	}
	if s.Planner == nil {
		return nil, fmt.Errorf("experiment: scenario %q has no planner", s.Name)
	}
	if s.Frames <= 0 {
		return nil, fmt.Errorf("experiment: scenario %q has %d frames", s.Name, s.Frames)
	}
	if s.QP == 0 {
		s.QP = 8
	}
	if s.SearchRange == 0 {
		s.SearchRange = 15
	}
	width, height := s.Source.Dims()
	return encodeSequence(s.Name, s.Source, s.Frames, codec.Config{
		Width: width, Height: height,
		QP:           s.QP,
		SearchRange:  s.SearchRange,
		Search:       s.Search,
		SADThreshold: s.SADThreshold,
		HalfPel:      s.HalfPel,
		Planner:      s.Planner,
		Workers:      s.Workers,
	})
}

// CalibrateIntraTh finds the Intra_Th at which probe's encoded size
// best matches targetBytes, by bisection. probe(th) must be a
// monotone-ish non-decreasing function of th (more intra macroblocks
// produce more bits); it is typically a short PBPAIR encode. iters
// rounds of bisection are performed (12 is plenty for 3 decimals).
func CalibrateIntraTh(probe func(th float64) (bytes int, err error), targetBytes, iters int) (float64, error) {
	if iters <= 0 {
		iters = 12
	}
	lo, hi := 0.0, 1.0
	loBytes, err := probe(lo)
	if err != nil {
		return 0, fmt.Errorf("experiment: calibration probe at %v: %w", lo, err)
	}
	hiBytes, err := probe(hi)
	if err != nil {
		return 0, fmt.Errorf("experiment: calibration probe at %v: %w", hi, err)
	}
	if targetBytes <= loBytes {
		return lo, nil
	}
	if targetBytes >= hiBytes {
		return hi, nil
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		midBytes, err := probe(mid)
		if err != nil {
			return 0, fmt.Errorf("experiment: calibration probe at %v: %w", mid, err)
		}
		if midBytes < targetBytes {
			lo, loBytes = mid, midBytes
		} else {
			hi, hiBytes = mid, midBytes
		}
	}
	// Return whichever endpoint is closer in size.
	if targetBytes-loBytes <= hiBytes-targetBytes {
		return lo, nil
	}
	return hi, nil
}

// RecoveryFrames measures how fast a lossy run recovers after each
// loss event: for each event frame, the number of frames until the
// lossy PSNR returns within tolDB of the loss-free PSNR for the same
// frame (and stays the event's own frame counts as 0). A value of -1
// means the run never recovered before the next event or end of
// sequence.
func RecoveryFrames(clean, lossy []float64, events []int, tolDB float64) []int {
	out := make([]int, len(events))
	for i, ev := range events {
		out[i] = -1
		if ev < 0 || ev >= len(lossy) {
			continue
		}
		// Recovery window ends at the next event (or sequence end).
		end := len(lossy)
		if i+1 < len(events) && events[i+1] < end {
			end = events[i+1]
		}
		for k := ev; k < end; k++ {
			if clean[k]-lossy[k] <= tolDB {
				out[i] = k - ev
				break
			}
		}
	}
	return out
}
