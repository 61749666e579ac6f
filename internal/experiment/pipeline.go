package experiment

import (
	"fmt"

	"pbpair/internal/bitcache"
	"pbpair/internal/codec"
	"pbpair/internal/energy"
	"pbpair/internal/metrics"
	"pbpair/internal/motion"
	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// Two-phase experiment pipeline. Every run in this package factors
// into an encode phase (source → bitstream + energy tally; fully
// deterministic, never sees the channel) and a simulate phase
// (bitstream → packets → lossy channel → decode → metrics). EncodeSpec
// describes the first phase canonically enough to fingerprint, SimSpec
// the second. Every grid experiment is one parallel.Map over its
// cells, each cell one Encode (through the bitstream cache) followed
// by its evaluations — Simulate, SimBatch or Analyze — so
// loss-independent axes (trials, clean/lossy pairs) share one encode.
// See ARCHITECTURE.md, "Two-phase experiment pipeline".

// EncodeSpec canonically describes one encode job: the synthetic
// source, the frame count and every bitstream-affecting codec knob,
// with the resilience scheme as a buildable value (SchemeSpec) rather
// than a live planner, so equal specs can be recognised by content.
// Workers only shards the encoder and is excluded from the
// fingerprint (sharding is bit-exact).
type EncodeSpec struct {
	Regime synth.Regime
	Frames int

	// Codec parameters; zero values select QP 8 and SearchRange 15,
	// the same defaults a Scenario applies.
	QP           int
	SearchRange  int
	Search       motion.SearchKind
	SADThreshold int32
	HalfPel      bool
	Deblock      bool

	Scheme SchemeSpec

	Workers int
}

// withDefaults mirrors Scenario's codec defaults so a spec and the
// scenario it replaces fingerprint (and encode) identically.
func (s EncodeSpec) withDefaults() EncodeSpec {
	if s.QP == 0 {
		s.QP = 8
	}
	if s.SearchRange == 0 {
		s.SearchRange = 15
	}
	return s
}

// codecConfig builds the encoder configuration (sans planner) for the
// spec's source dimensions.
func (s EncodeSpec) codecConfig(width, height int) codec.Config {
	return codec.Config{
		Width: width, Height: height,
		QP:           s.QP,
		SearchRange:  s.SearchRange,
		Search:       s.Search,
		SADThreshold: s.SADThreshold,
		HalfPel:      s.HalfPel,
		Deblock:      s.Deblock,
		Workers:      s.Workers,
	}
}

// Canonical returns the canonical serialization of every input that
// determines the encoded bitstream — the preimage of the cache key.
// Two specs that encode identical sequences serialize equal (defaults
// are applied first); flipping any bitstream-affecting field changes
// the serialization, a property pinned by FuzzEncodeSpecFingerprint.
func (s EncodeSpec) Canonical() string {
	s = s.withDefaults()
	params := synth.DefaultParams(s.Regime)
	return fmt.Sprintf("pbpair/encode/v1|src=synth:%s|frames=%d|%s",
		s.Regime, s.Frames, s.codecConfig(params.Width, params.Height).BitstreamKey(s.Scheme.Key()))
}

// Fingerprint returns the spec's content address in the bitstream
// cache.
func (s EncodeSpec) Fingerprint() bitcache.Key {
	return bitcache.KeyOf(s.Canonical())
}

// validate rejects specs that cannot encode.
func (s EncodeSpec) validate() error {
	if s.Regime < synth.RegimeAkiyo || s.Regime > synth.RegimeMobile {
		return fmt.Errorf("experiment: encode spec has unknown regime %d", s.Regime)
	}
	if s.Frames <= 0 {
		return fmt.Errorf("experiment: encode spec has %d frames", s.Frames)
	}
	if s.Scheme.Kind == 0 {
		return fmt.Errorf("experiment: encode spec has no scheme")
	}
	return nil
}

// encode runs the spec: shared (memoised) source, fresh planner, full
// encode.
func (s EncodeSpec) encode() (*codec.EncodedSequence, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	planner, err := s.Scheme.Build()
	if err != nil {
		return nil, err
	}
	src := synth.Shared(s.Regime)
	width, height := src.Dims()
	cfg := s.codecConfig(width, height)
	cfg.Planner = planner
	name := fmt.Sprintf("%s/%s", s.Regime, s.Scheme.Key())
	return encodeSequence(name, src, s.Frames, cfg)
}

// Encode returns the spec's encoded sequence, through the cache when
// one is given (nil runs the encode directly). The returned sequence
// may be shared with other callers and must not be mutated.
func Encode(cache *bitcache.Store, spec EncodeSpec) (*codec.EncodedSequence, error) {
	if cache == nil {
		return spec.encode()
	}
	return cache.GetOrCompute(spec.Fingerprint(), spec.encode)
}

// intraRate returns the sequence's mean intra macroblocks per frame.
func intraRate(seq *codec.EncodedSequence) float64 {
	intraMBs := 0
	for f := range seq.Frames {
		intraMBs += seq.Frames[f].IntraMBs
	}
	return float64(intraMBs) / float64(len(seq.Frames))
}

// encodeSequence drives the encoder over frames [0, n) and collects
// the bitstreams plus the energy tally — the encode phase shared by
// spec-based jobs and Scenario runs.
func encodeSequence(name string, src synth.Source, frames int, cfg codec.Config) (*codec.EncodedSequence, error) {
	var counters energy.Counters
	cfg.Counters = &counters
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: encode %q: %w", name, err)
	}
	seq := &codec.EncodedSequence{
		Scheme: cfg.Planner.Name(),
		Width:  cfg.Width, Height: cfg.Height,
		Frames: make([]codec.SeqFrame, 0, frames),
	}
	for f := 0; f < frames; f++ {
		ef, err := enc.EncodeFrame(src.Frame(f))
		if err != nil {
			return nil, fmt.Errorf("experiment: encode %q frame %d: %w", name, f, err)
		}
		seq.Frames = append(seq.Frames, codec.SeqFrame{
			FrameNum:   ef.FrameNum,
			Type:       ef.Type,
			Data:       ef.Data,
			GOBOffsets: ef.GOBOffsets,
			IntraMBs:   ef.Plan.IntraCount(),
		})
		seq.TotalBytes += ef.Bytes()
	}
	seq.Counters = counters
	return seq, nil
}

// SimSpec describes the channel-and-decode half of a run: everything
// a Scenario configures downstream of the encoder. The zero value
// simulates loss-free transmission with default MTU, concealment,
// device profile and bad-pixel threshold.
type SimSpec struct {
	Name string
	// Channel models the network; nil means loss-free. Stateful
	// channels (UniformLoss advances an RNG) must not be shared
	// between simulations — give each SimSpec its own instance.
	Channel network.Channel
	// MTU for packetisation (default network.DefaultMTU).
	MTU int
	// Concealer overrides the decoder's copy concealment.
	Concealer codec.Concealer
	// FECGroup enables XOR-parity FEC spanning this many consecutive
	// frames per group (0 = off); see Scenario.FECGroup.
	FECGroup int
	// Profile is the energy model device (default energy.IPAQ). It
	// prices the sequence's counters; the tally itself comes from the
	// encode phase.
	Profile energy.Profile
	// BadPixelThreshold for the bad-pixel metric (default
	// metrics.DefaultBadPixelThreshold).
	BadPixelThreshold int
	// DecoderWorkers sets how many goroutines reconstruct GOB rows of
	// each decoded frame (codec.WithDecoderWorkers). <= 1 decodes
	// serially; the decoded frames are bit-identical for every value.
	DecoderWorkers int
}

// Validate rejects simulation specs whose numeric knobs are negative.
// Zero values remain valid (they select the documented defaults), so
// existing zero-SimSpec call sites are unaffected. Channel loss rates
// are validated where the channel is constructed
// (network.NewUniformLoss / NewGilbertElliott reject anything outside
// [0, 1], NaN included).
func (s SimSpec) Validate() error {
	if s.MTU < 0 {
		return fmt.Errorf("experiment: sim spec %q: MTU %d negative", s.Name, s.MTU)
	}
	if s.FECGroup < 0 {
		return fmt.Errorf("experiment: sim spec %q: FEC group %d negative", s.Name, s.FECGroup)
	}
	if s.BadPixelThreshold < 0 {
		return fmt.Errorf("experiment: sim spec %q: bad-pixel threshold %d negative", s.Name, s.BadPixelThreshold)
	}
	if s.DecoderWorkers < 0 {
		return fmt.Errorf("experiment: sim spec %q: decoder workers %d negative", s.Name, s.DecoderWorkers)
	}
	return nil
}

// Simulate transmits an encoded sequence over the spec's channel and
// measures the decode against src (which must be the source the
// sequence was encoded from; frames are regenerated on the fly —
// synthetic sources are deterministic). It is the simulate phase of
// every scalar run in this package: Run(scenario) is exactly one
// encode followed by one Simulate, and Fig6 and RDCurve simulate each
// cell's shared sequence.
func Simulate(seq *codec.EncodedSequence, src synth.Source, sim SimSpec, opts ...Option) (*Result, error) {
	var r runner
	for _, opt := range opts {
		opt(&r)
	}
	if seq == nil || len(seq.Frames) == 0 {
		return nil, fmt.Errorf("experiment: simulate %q: empty sequence", sim.Name)
	}
	if src == nil {
		return nil, fmt.Errorf("experiment: simulate %q: no source", sim.Name)
	}
	if err := sim.Validate(); err != nil {
		return nil, err
	}

	var decOpts []codec.DecoderOption
	if sim.Concealer != nil {
		decOpts = append(decOpts, codec.WithConcealer(sim.Concealer))
	}
	if sim.DecoderWorkers > 1 {
		decOpts = append(decOpts, codec.WithDecoderWorkers(sim.DecoderWorkers))
	}
	dec, err := codec.NewDecoder(seq.Width, seq.Height, decOpts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: simulate %q: %w", sim.Name, err)
	}

	pktz := network.NewPacketizer(sim.MTU)
	channel := sim.Channel
	if channel == nil {
		channel = network.Perfect{}
	}
	profile := sim.Profile
	if profile.Name == "" {
		profile = energy.IPAQ
	}

	frames := len(seq.Frames)
	res := &Result{Name: sim.Name, Scheme: seq.Scheme, Frames: frames}

	// Frames are processed in blocks: one frame at a time normally, or
	// FECGroup frames per block when FEC is on (the receiver buffers a
	// full parity group before decoding).
	blockFrames := 1
	var fecEnc *network.FECEncoder
	if sim.FECGroup > 0 {
		blockFrames = sim.FECGroup
		var err error
		if fecEnc, err = network.NewFECEncoder(sim.FECGroup); err != nil {
			return nil, fmt.Errorf("experiment: simulate %q: %w", sim.Name, err)
		}
	}

	for k := 0; k < frames; k += blockFrames {
		end := k + blockFrames
		if end > frames {
			end = frames
		}
		var blockPackets []network.Packet
		for f := k; f < end; f++ {
			ef := &seq.Frames[f]
			res.FrameBytes.Add(float64(len(ef.Data)))
			res.IntraMBs.Add(float64(ef.IntraMBs))
			res.TotalBytes += len(ef.Data)

			packets := pktz.Packetize(ef.AsEncodedFrame())
			if fecEnc != nil {
				packets = fecEnc.Protect(packets)
			}
			blockPackets = append(blockPackets, packets...)
		}
		if fecEnc != nil {
			blockPackets = append(blockPackets, fecEnc.Flush()...)
		}

		for _, pkt := range blockPackets {
			if pkt.Parity != nil {
				res.FECBytes += len(pkt.Payload)
			}
		}
		res.PacketsSent += len(blockPackets)
		kept := channel.Transmit(blockPackets)
		res.PacketsLost += len(blockPackets) - len(kept)
		if fecEnc != nil {
			kept = network.RecoverFEC(kept)
		}

		// Group surviving media packets by frame and decode in order.
		byFrame := make(map[int][]network.Packet, end-k)
		for _, pkt := range kept {
			byFrame[pkt.FrameNum] = append(byFrame[pkt.FrameNum], pkt)
		}
		for f := k; f < end; f++ {
			original := src.Frame(f)
			var decoded *codec.DecodeResult
			var err error
			if payload := network.Reassemble(byFrame[f]); payload == nil {
				decoded = dec.ConcealLostFrame()
				res.LostFrames++
			} else {
				decoded, err = dec.DecodeFrame(payload)
				if err != nil {
					return nil, fmt.Errorf("experiment: simulate %q frame %d decode: %w", sim.Name, f, err)
				}
			}
			res.ConcealedMBs += decoded.ConcealedMBs

			// One fused traversal for PSNR and bad pixels; the values are
			// identical to the separate metrics.PSNR / metrics.BadPixels
			// calls (pinned by TestMetricsEquiv).
			st, err := metrics.Stats(original, decoded.Frame, sim.BadPixelThreshold)
			if err != nil {
				return nil, fmt.Errorf("experiment: simulate %q frame %d metrics: %w", sim.Name, f, err)
			}
			res.PSNR.Add(st.PSNR())
			res.BadPixels.Add(float64(st.Bad))
			res.TotalBadPix += st.Bad

			if r.keep {
				res.DecodedFrames = append(res.DecodedFrames, decoded.Frame.Clone())
			}
		}
	}
	res.Counters = seq.Counters
	res.Breakdown = profile.Decompose(seq.Counters)
	res.Joules = res.Breakdown.Total()
	return res, nil
}
