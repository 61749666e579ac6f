package experiment

import (
	"fmt"
	"math/bits"

	"pbpair/internal/codec"
	"pbpair/internal/energy"
	"pbpair/internal/metrics"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/parallel"
	"pbpair/internal/swar"
	"pbpair/internal/synth"
)

// This file is the bit-packed Monte-Carlo channel engine: one cached
// bitstream evaluated against Trials independent loss realizations
// ("lanes") in a single pass. Per packet, a network.MaskSource draws
// every lane's loss decision into uint64 words; per frame, lanes are
// grouped by (decoder lineage, loss pattern) and each distinct group
// is decoded once — at realistic loss rates almost all lanes collapse
// onto a handful of groups (the all-received fast path dominates), so
// the decode work per frame is bounded by the number of distinct
// recent loss histories, not by the trial count. Lineages whose
// decoder state re-converges (intra refresh heals concealment drift)
// are detected by digest + exact state comparison and merged back,
// which is what keeps the live group count flat over long runs.
//
// Determinism contract: lane l reproduces the scalar Simulate run
// whose channel is seeded with network.LaneSeed(batch.Seed, l), bit
// for bit; lane 0 is the legacy single-seed run itself. Output is
// identical at any BatchSpec.Workers value (pattern groups are
// formed, decoded into independent decoders, and reduced in
// deterministic lane order).

// BatchSpec describes the Monte-Carlo axis of a SimBatch run: how
// many channel realizations to simulate and how the loss process is
// drawn. The channel lives here, not in SimSpec.Channel — the batch
// engine owns packet loss.
type BatchSpec struct {
	// Trials is the number of independent channel realizations (>= 1).
	Trials int
	// Seed is the base channel seed. Lane l uses
	// network.LaneSeed(Seed, l); lane 0 is Seed itself, reproducing
	// the scalar Simulate run with that seed.
	Seed uint64
	// LossRate is the i.i.d. per-packet loss probability in [0, 1],
	// used when GE is nil. Zero means loss-free lanes (the engine then
	// performs exactly one decode per frame).
	LossRate float64
	// GE selects a Gilbert–Elliott burst channel instead of i.i.d.
	// loss. All four probabilities must lie in [0, 1].
	GE *network.GEConfig
	// Workers bounds how many pattern groups decode concurrently
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for every
	// value.
	Workers int
	// Obs, when non-nil, receives the engine's observability counters
	// (sim.batch_* — lane frames, group decodes, fast-path hits,
	// forks, merges, parses).
	Obs *obs.Registry
	// Lane0Result, when set, additionally builds the full per-frame
	// Result for lane 0 — the legacy scalar run — in
	// MultiTrialResult.Lane0.
	Lane0Result bool
}

// Validate rejects malformed batch specs.
func (b BatchSpec) Validate() error {
	if b.Trials < 1 {
		return fmt.Errorf("experiment: batch spec: trials %d < 1", b.Trials)
	}
	if b.GE != nil {
		if err := b.GE.Validate(); err != nil {
			return fmt.Errorf("experiment: batch spec: %w", err)
		}
	} else if !(b.LossRate >= 0 && b.LossRate <= 1) {
		return fmt.Errorf("experiment: batch spec: loss rate %v outside [0, 1]", b.LossRate)
	}
	if b.Workers < 0 {
		return fmt.Errorf("experiment: batch spec: workers %d negative", b.Workers)
	}
	return nil
}

func (b BatchSpec) maskSource() (network.MaskSource, error) {
	if b.GE != nil {
		return network.NewBatchGE(*b.GE, b.Seed, b.Trials)
	}
	return network.NewBatchUniform(b.LossRate, b.Seed, b.Trials)
}

// BatchStats reports how much work the pattern-dedup engine actually
// performed — the observability behind the trials/s numbers.
type BatchStats struct {
	LaneFrames    int64 // Trials × Frames: what a scalar loop would decode
	GroupDecodes  int64 // decodes actually performed
	ParsedFrames  int64 // distinct payload parses (ParsePayload runs)
	AllReceived   int64 // lane-frames served by the all-received clean lineage
	LostLaneFrame int64 // lane-frames whose whole payload was lost
	Forks         int64 // decoder lineage forks (state copies)
	Merges        int64 // lineages re-merged after state convergence
	MaxLiveGroups int   // peak concurrent lineage count
}

// MultiTrialResult is the batch counterpart of Result: per-trial
// metric distributions over one simulated sequence, plus the
// loss-independent encode-side quantities Result carries.
type MultiTrialResult struct {
	Name   string
	Scheme string
	Frames int
	Trials int

	// Distributions across trials. PSNR summarizes each trial's mean
	// per-frame PSNR (matching Result.PSNR.Mean()); the others
	// summarize per-trial totals.
	PSNR         metrics.Dist
	BadPixels    metrics.Dist
	ConcealedMBs metrics.Dist
	LostFrames   metrics.Dist
	PacketsLost  metrics.Dist

	// Per-lane values behind the distributions, index = lane. Lane l
	// equals the scalar Simulate run seeded network.LaneSeed(Seed, l).
	LanePSNR         []float64
	LaneBadPixels    []int64
	LaneConcealedMBs []int64
	LaneLostFrames   []int64
	LanePacketsLost  []int64

	// Loss-independent quantities (identical in every trial).
	PacketsSent int
	TotalBytes  int
	Counters    energy.Counters
	Joules      float64
	Breakdown   energy.Breakdown

	Batch BatchStats

	// Lane0 is the full per-frame Result of lane 0 when
	// BatchSpec.Lane0Result was set (nil otherwise).
	Lane0 *Result
}

// batchChild is one (parent lineage, frame loss pattern) group during
// a frame step.
type batchChild struct {
	parent  int32
	pattern uint64
	dec     *codec.Decoder
	lanes   []int32
	payload []byte
	pf      *codec.ParsedFrame
	lost    bool // whole payload lost: conceal, count a lost frame
}

// pfKey keys the per-frame parse cache: groups whose decoders agree on
// the sticky header state parse a given loss pattern identically
// (frame count and reference existence are lockstep-equal across all
// lineages by construction).
type pfKey struct {
	pattern          uint64
	lastQP           int
	halfPel, deblock bool
}

type decOut struct {
	psnr      float64
	bad       int
	concealed int
	digest    uint64
}

// SimBatch evaluates one encoded sequence against batch.Trials
// independent loss realizations and returns the cross-trial metric
// distributions. sim follows the Simulate contract except that the
// channel must be described by batch (sim.Channel set is an error)
// and FEC grouping is not supported in batch mode.
func SimBatch(seq *codec.EncodedSequence, src synth.Source, sim SimSpec, batch BatchSpec) (*MultiTrialResult, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, fmt.Errorf("experiment: simbatch %q: empty sequence", sim.Name)
	}
	if src == nil {
		return nil, fmt.Errorf("experiment: simbatch %q: no source", sim.Name)
	}
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if sim.Channel != nil {
		return nil, fmt.Errorf("experiment: simbatch %q: sim.Channel must be nil — the batch spec owns the channel", sim.Name)
	}
	if sim.FECGroup > 0 {
		return nil, fmt.Errorf("experiment: simbatch %q: FEC grouping is not supported in batch mode", sim.Name)
	}

	maskSrc, err := batch.maskSource()
	if err != nil {
		return nil, fmt.Errorf("experiment: simbatch %q: %w", sim.Name, err)
	}

	var decOpts []codec.DecoderOption
	if sim.Concealer != nil {
		decOpts = append(decOpts, codec.WithConcealer(sim.Concealer))
	}
	// GOB-row fan-out stays off inside each decoder: the engine's
	// parallelism is across pattern groups (batch.Workers).
	newDecoder := func() (*codec.Decoder, error) {
		return codec.NewDecoder(seq.Width, seq.Height, decOpts...)
	}
	clean, err := newDecoder()
	if err != nil {
		return nil, fmt.Errorf("experiment: simbatch %q: %w", sim.Name, err)
	}

	profile := sim.Profile
	if profile.Name == "" {
		profile = energy.IPAQ
	}

	T := batch.Trials
	W := network.MaskWords(T)
	frames := len(seq.Frames)
	workers := parallel.Workers(batch.Workers, 1<<30)

	res := &MultiTrialResult{
		Name: sim.Name, Scheme: seq.Scheme, Frames: frames, Trials: T,
		LanePSNR:         make([]float64, T),
		LaneBadPixels:    make([]int64, T),
		LaneConcealedMBs: make([]int64, T),
		LaneLostFrames:   make([]int64, T),
		LanePacketsLost:  make([]int64, T),
	}
	var res0 *Result
	if batch.Lane0Result {
		res0 = &Result{Name: sim.Name, Scheme: seq.Scheme, Frames: frames}
	}
	stats := &res.Batch
	stats.LaneFrames = int64(T) * int64(frames)

	pktz := network.NewPacketizer(sim.MTU)
	lostCounters := make([]swar.LaneCounter, W)

	// Persistent lineage state.
	groups := []*batchChild{{dec: clean, lanes: make([]int32, 0, T)}}
	for l := 0; l < T; l++ {
		groups[0].lanes = append(groups[0].lanes, int32(l))
	}
	laneOf := make([]int32, T)
	psnrSum := make([]float64, T)

	// Reused per-frame scratch.
	maskBuf := make([][]uint64, 0, 8)
	pat := make([]uint64, T)
	var decFree []*codec.Decoder
	var pfFree []*codec.ParsedFrame
	getDec := func() (*codec.Decoder, error) {
		if n := len(decFree); n > 0 {
			d := decFree[n-1]
			decFree = decFree[:n-1]
			return d, nil
		}
		return newDecoder()
	}
	getPF := func() *codec.ParsedFrame {
		if n := len(pfFree); n > 0 {
			pf := pfFree[n-1]
			pfFree = pfFree[:n-1]
			return pf
		}
		return &codec.ParsedFrame{}
	}
	var recvScratch []network.Packet

	for f := 0; f < frames; f++ {
		ef := &seq.Frames[f]
		res.TotalBytes += len(ef.Data)
		if res0 != nil {
			res0.FrameBytes.Add(float64(len(ef.Data)))
			res0.IntraMBs.Add(float64(ef.IntraMBs))
			res0.TotalBytes += len(ef.Data)
		}

		packets := pktz.Packetize(ef.AsEncodedFrame())
		P := len(packets)
		if P > 64 {
			return nil, fmt.Errorf("experiment: simbatch %q: frame %d packetizes to %d packets; batch mode packs loss patterns into one word and supports at most 64 per frame (raise MTU)", sim.Name, f, P)
		}
		res.PacketsSent += P
		fullMask := ^uint64(0)
		if P < 64 {
			fullMask = (uint64(1) << uint(P)) - 1
		}

		// Draw every lane's loss word per packet, feed the per-lane
		// packet-loss counters, and build per-lane frame patterns (bit
		// p set = packet p lost). The bit-scan keeps pattern building
		// proportional to the number of losses, not lanes × packets.
		for len(maskBuf) < P {
			maskBuf = append(maskBuf, make([]uint64, W))
		}
		for l := range pat {
			pat[l] = 0
		}
		for p := 0; p < P; p++ {
			maskSrc.NextMask(maskBuf[p])
			for w := 0; w < W; w++ {
				word := maskBuf[p][w]
				lostCounters[w].Add(word)
				for word != 0 {
					l := 64*w + bits.TrailingZeros64(word)
					pat[l] |= uint64(1) << uint(p)
					word &= word - 1
				}
			}
		}

		// Group lanes by (parent lineage, pattern) in lane order; the
		// clean-lineage child (parent 0, pattern 0) always exists so
		// the all-received state advances even when every lane lost
		// something.
		type groupKey struct {
			parent  int32
			pattern uint64
		}
		children := []*batchChild{{parent: 0, pattern: 0}}
		childIdx := map[groupKey]int32{{0, 0}: 0}
		for l := 0; l < T; l++ {
			k := groupKey{parent: laneOf[l], pattern: pat[l]}
			ci, ok := childIdx[k]
			if !ok {
				ci = int32(len(children))
				children = append(children, &batchChild{parent: laneOf[l], pattern: pat[l]})
				childIdx[k] = ci
			}
			ch := children[ci]
			ch.lanes = append(ch.lanes, int32(l))
			laneOf[l] = ci
		}

		// Assign decoders: the first child of each damaged parent
		// inherits its decoder; every other child forks from the
		// parent's pre-decode state. The clean decoder is pinned to
		// child 0 and never given away.
		inherited := make([]bool, len(groups))
		inherited[0] = true
		children[0].dec = clean
		for _, ch := range children[1:] {
			if !inherited[ch.parent] {
				ch.dec = groups[ch.parent].dec
				inherited[ch.parent] = true
				continue
			}
			d, err := getDec()
			if err != nil {
				return nil, fmt.Errorf("experiment: simbatch %q: %w", sim.Name, err)
			}
			if err := d.CopyStateFrom(groups[ch.parent].dec); err != nil {
				return nil, fmt.Errorf("experiment: simbatch %q: %w", sim.Name, err)
			}
			ch.dec = d
			stats.Forks++
		}

		// Splice payloads and parse each distinct (pattern, carry
		// state) once. Payloads depend only on the pattern; parses
		// additionally on the decoder's sticky header state.
		payloadByPattern := map[uint64][]byte{}
		pfCache := map[pfKey]*codec.ParsedFrame{}
		var pfUsed []*codec.ParsedFrame
		for _, ch := range children {
			if ch.pattern == fullMask {
				ch.lost = true
				continue
			}
			payload, ok := payloadByPattern[ch.pattern]
			if !ok {
				recvScratch = recvScratch[:0]
				for p := 0; p < P; p++ {
					if ch.pattern&(uint64(1)<<uint(p)) == 0 {
						recvScratch = append(recvScratch, packets[p])
					}
				}
				payload = network.Reassemble(recvScratch)
				payloadByPattern[ch.pattern] = payload
			}
			if payload == nil {
				// Received packets carried no payload bytes: the scalar
				// path treats this as a wholly lost frame.
				ch.lost = true
				continue
			}
			ch.payload = payload
			lastQP, halfPel, deblock := ch.dec.CarryKey()
			k := pfKey{pattern: ch.pattern, lastQP: lastQP, halfPel: halfPel, deblock: deblock}
			pf, ok := pfCache[k]
			if !ok {
				pf = getPF()
				ch.dec.ParsePayload(payload, pf)
				pfCache[k] = pf
				pfUsed = append(pfUsed, pf)
				stats.ParsedFrames++
			}
			ch.pf = pf
		}

		// Decode each group once, fanned across the worker pool. Every
		// goroutine touches only its own decoder; shared ParsedFrames
		// and payloads are read-only.
		original := src.Frame(f)
		outs, err := parallel.Map(workers, len(children), func(i int) (decOut, error) {
			ch := children[i]
			var dr *codec.DecodeResult
			var err error
			switch {
			case ch.lost:
				dr = ch.dec.ConcealLostFrame()
			case ch.pf.Overflow():
				// Record-cap overflow (crafted streams): the replay path
				// cannot represent it, DecodeFrame's incremental flush can.
				dr, err = ch.dec.DecodeFrame(ch.payload)
			default:
				dr, err = ch.dec.DecodeParsed(ch.pf)
			}
			if err != nil {
				return decOut{}, fmt.Errorf("experiment: simbatch %q frame %d decode: %w", sim.Name, f, err)
			}
			st, err := metrics.Stats(original, dr.Frame, sim.BadPixelThreshold)
			if err != nil {
				return decOut{}, fmt.Errorf("experiment: simbatch %q frame %d metrics: %w", sim.Name, f, err)
			}
			return decOut{
				psnr:      st.PSNR(),
				bad:       st.Bad,
				concealed: dr.ConcealedMBs,
				digest:    ch.dec.StateDigest(),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		stats.GroupDecodes += int64(len(children))
		stats.AllReceived += int64(len(children[0].lanes))

		// Reduce per lane (slot-independent sums, deterministic values).
		for i, ch := range children {
			out := outs[i]
			for _, l := range ch.lanes {
				psnrSum[l] += out.psnr
				res.LaneBadPixels[l] += int64(out.bad)
				res.LaneConcealedMBs[l] += int64(out.concealed)
				if ch.lost {
					res.LaneLostFrames[l]++
				}
			}
			if ch.lost {
				stats.LostLaneFrame += int64(len(ch.lanes))
			}
		}
		if res0 != nil {
			ch := children[laneOf[0]]
			out := outs[laneOf[0]]
			if ch.lost {
				res0.LostFrames++
			}
			res0.ConcealedMBs += out.concealed
			res0.PSNR.Add(out.psnr)
			res0.BadPixels.Add(float64(out.bad))
			res0.TotalBadPix += out.bad
		}

		// Merge lineages whose decode state re-converged (digest
		// bucket, then exact comparison — merges happen only on true
		// state equality, so the partition is deterministic).
		survivor := map[uint64]int32{outs[0].digest: 0}
		kept := make([]*batchChild, 1, len(children))
		kept[0] = children[0]
		for i := 1; i < len(children); i++ {
			ch := children[i]
			if si, ok := survivor[outs[i].digest]; ok && ch.dec.StateEqual(children[si].dec) {
				children[si].lanes = append(children[si].lanes, ch.lanes...)
				decFree = append(decFree, ch.dec)
				stats.Merges++
				continue
			}
			if _, ok := survivor[outs[i].digest]; !ok {
				survivor[outs[i].digest] = int32(i)
			}
			kept = append(kept, ch)
		}
		groups = groups[:0]
		groups = append(groups, kept...)
		for gi, g := range groups {
			for _, l := range g.lanes {
				laneOf[l] = int32(gi)
			}
		}
		if len(groups) > stats.MaxLiveGroups {
			stats.MaxLiveGroups = len(groups)
		}
		pfFree = append(pfFree, pfUsed...)
	}

	// Per-trial reductions. The per-trial PSNR mean divides the
	// frame-ordered sum by the frame count, matching Result.PSNR.Mean.
	for w := 0; w < W; w++ {
		counts := lostCounters[w].Counts()
		for j := 0; j < 64; j++ {
			l := 64*w + j
			if l < T {
				res.LanePacketsLost[l] = int64(counts[j])
			}
		}
	}
	lostF := make([]float64, T)
	badF := make([]float64, T)
	concF := make([]float64, T)
	pktF := make([]float64, T)
	for l := 0; l < T; l++ {
		res.LanePSNR[l] = psnrSum[l] / float64(frames)
		lostF[l] = float64(res.LaneLostFrames[l])
		badF[l] = float64(res.LaneBadPixels[l])
		concF[l] = float64(res.LaneConcealedMBs[l])
		pktF[l] = float64(res.LanePacketsLost[l])
	}
	res.PSNR = metrics.Summarize(res.LanePSNR)
	res.BadPixels = metrics.Summarize(badF)
	res.ConcealedMBs = metrics.Summarize(concF)
	res.LostFrames = metrics.Summarize(lostF)
	res.PacketsLost = metrics.Summarize(pktF)

	res.Counters = seq.Counters
	res.Breakdown = profile.Decompose(seq.Counters)
	res.Joules = res.Breakdown.Total()
	if res0 != nil {
		res0.PacketsSent = res.PacketsSent
		res0.PacketsLost = int(res.LanePacketsLost[0])
		res0.Counters = seq.Counters
		res0.Breakdown = res.Breakdown
		res0.Joules = res.Joules
		res.Lane0 = res0
	}

	if batch.Obs != nil {
		batch.Obs.Counter("sim.batch_lane_frames").Add(stats.LaneFrames)
		batch.Obs.Counter("sim.batch_group_decodes").Add(stats.GroupDecodes)
		batch.Obs.Counter("sim.batch_parsed_frames").Add(stats.ParsedFrames)
		batch.Obs.Counter("sim.batch_all_received_fast").Add(stats.AllReceived)
		batch.Obs.Counter("sim.batch_lost_lane_frames").Add(stats.LostLaneFrame)
		batch.Obs.Counter("sim.batch_forks").Add(stats.Forks)
		batch.Obs.Counter("sim.batch_merges").Add(stats.Merges)
		if stats.GroupDecodes > 0 {
			batch.Obs.Gauge("sim.batch_lanes_per_decode").Set(float64(stats.LaneFrames) / float64(stats.GroupDecodes))
		}
		batch.Obs.Gauge("sim.batch_max_live_groups").Set(float64(stats.MaxLiveGroups))
	}
	return res, nil
}
