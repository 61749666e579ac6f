package codec

import (
	"fmt"

	"pbpair/internal/bitstream"
	"pbpair/internal/dct"
	"pbpair/internal/energy"
	"pbpair/internal/entropy"
	"pbpair/internal/motion"
	"pbpair/internal/parallel"
	"pbpair/internal/quant"
	"pbpair/internal/video"
)

// Encoder compresses a video sequence frame by frame under the control
// of a ModePlanner. It is not safe for concurrent use.
type Encoder struct {
	cfg Config
	ref *video.Frame // reconstruction of the previous frame
	// rec and pred are per-frame scratch (the reconstruction being
	// built, the motion-compensated prediction). Every macroblock of
	// rec is rewritten each frame, so neither carries state across
	// frames: both are allocated on the first EncodeFrame, and an
	// encoder that never encodes — a frozen Clone kept as a restore
	// point — holds one frame, not three.
	rec      *video.Frame
	pred     *video.Frame
	frameNum int
	w        bitstream.Writer
	events   []entropy.Event
	// mvPred is the motion-vector predictor for differential MV coding:
	// the previous inter macroblock's transmitted vector within the
	// current GOB (H.263 resets prediction at GOB boundaries so a lost
	// row cannot skew the next row's vectors). Intra and skip
	// macroblocks reset it to zero.
	mvPred motion.HalfVector
	// dcPred holds per-plane intra-DC predictors (Annex I-lite: the
	// previous intra block's DC level in this GOB; mid-grey at a GOB
	// start). Index 0 = luma, 1 = Cb, 2 = Cr.
	dcPred [3]int32
	// Planning scratch, reused across frames so the sharded search
	// adds no steady-state allocations: needSearch marks macroblocks
	// whose planner hooks requested motion estimation, penalties holds
	// the per-MB cost hooks captured during the serial planner phase.
	needSearch []bool
	penalties  []motion.PenaltyFunc
	// Sharding scratch: the row partitions and per-shard stat
	// accumulators for the ME and refinement passes. Both depend only
	// on (rows, Workers, HalfPel), which are fixed per encoder, so they
	// are computed once; the stats are zeroed before each frame. The
	// alloc-regression test pins EncodeFrame's steady state, so new
	// per-frame allocations here fail loudly.
	meSpans, refineSpans []parallel.Span
	meStats, refineStats []motion.Stats
	modeScratch          []MBMode
}

// NewEncoder validates cfg and returns a ready encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg, ref: video.NewFrame(cfg.Width, cfg.Height)}, nil
}

// Clone returns an independent encoder that continues the stream from
// exactly this encoder's state: same configuration, same frame number,
// and a deep copy of the reference reconstruction (the only state that
// crosses frame boundaries — per-frame scratch is allocated on the
// clone's first EncodeFrame, so the clone holds one frame until then).
// Encoding the same inputs on the clone and the original produces
// byte-identical bitstreams.
//
// planner and counters replace the original's: a ModePlanner carries
// cross-frame state of its own, so callers fork it in the same motion
// (e.g. core.PBPAIR.Clone), and energy tallies belong to exactly one
// encode stream. The serving layer's encode farm uses Clone to fork a
// shared session lineage when one receiver's feedback diverges.
func (e *Encoder) Clone(planner ModePlanner, counters *energy.Counters) (*Encoder, error) {
	cfg := e.cfg
	cfg.Planner = planner
	cfg.Counters = counters
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg, ref: e.ref.Clone(), frameNum: e.frameNum}, nil
}

// FrameNum returns the number of the next frame to be encoded.
func (e *Encoder) FrameNum() int { return e.frameNum }

// StateEqual reports whether two encoders are in exactly the same
// encode state: same geometry and bitstream-affecting configuration,
// same frame number, same reference pixels. Equal-state encoders with
// equivalent planners produce bit-identical output for every future
// frame sequence — the invariant the serving layer's lineage re-merge
// rests on, mirroring Decoder.StateEqual from the batch engine. (The
// rec/pred buffers, MV and DC predictors, and all sharding scratch are
// rebuilt within each frame and need no comparison; the planner is
// compared by the caller, who knows when its state is output-relevant.)
func (e *Encoder) StateEqual(o *Encoder) bool {
	if e.cfg.Width != o.cfg.Width || e.cfg.Height != o.cfg.Height {
		return false
	}
	if e.cfg.QP != o.cfg.QP || e.cfg.SearchRange != o.cfg.SearchRange ||
		e.cfg.Search != o.cfg.Search || e.cfg.SADThreshold != o.cfg.SADThreshold ||
		e.cfg.HalfPel != o.cfg.HalfPel || e.cfg.Deblock != o.cfg.Deblock {
		return false
	}
	if e.frameNum != o.frameNum {
		return false
	}
	if (e.ref == nil) != (o.ref == nil) {
		return false
	}
	return e.ref == nil || e.ref.Equal(o.ref)
}

// StateDigest returns a 64-bit hash of the encode state StateEqual
// compares, for bucketing candidate merges before the exact check.
// Equal states always digest equally; the (astronomically unlikely)
// converse failure only costs a missed merge, never correctness,
// because merges are verified with StateEqual.
func (e *Encoder) StateDigest() uint64 {
	h := uint64(0xCBF29CE484222325)
	h = hashUint64(h, uint64(int64(e.cfg.Width))<<32|uint64(uint32(e.cfg.Height)))
	h = hashUint64(h, uint64(int64(e.cfg.QP))<<32|uint64(uint32(e.cfg.SearchRange)))
	h = hashUint64(h, uint64(e.cfg.Search)<<32|uint64(uint32(e.cfg.SADThreshold)))
	var flags uint64
	if e.cfg.HalfPel {
		flags |= 1
	}
	if e.cfg.Deblock {
		flags |= 2
	}
	if e.ref != nil {
		flags |= 4
	}
	h = hashUint64(h, flags)
	h = hashUint64(h, uint64(int64(e.frameNum)))
	if e.ref != nil {
		h = hashBytes(h, e.ref.Y)
		h = hashBytes(h, e.ref.Cb)
		h = hashBytes(h, e.ref.Cr)
	}
	return h
}

// QP returns the quantiser parameter the next frame will use.
func (e *Encoder) QP() int { return e.cfg.QP }

// SetQP changes the quantiser parameter for subsequent frames (rate
// control adjusts it between frames; the value rides in every picture
// header, so decoders follow automatically). Out-of-range values are
// clamped to [1, 31].
func (e *Encoder) SetQP(qp int) { e.cfg.QP = quant.ClampQP(qp) }

// ReconClone returns a copy of the most recent reconstruction — what a
// loss-free decoder must reproduce bit-exactly.
func (e *Encoder) ReconClone() *video.Frame { return e.ref.Clone() }

// EncodeFrame compresses cur and advances the encoder state. The
// returned EncodedFrame owns its Data.
func (e *Encoder) EncodeFrame(cur *video.Frame) (*EncodedFrame, error) {
	if cur.Width != e.cfg.Width || cur.Height != e.cfg.Height {
		return nil, fmt.Errorf("codec: frame is %dx%d, encoder configured for %dx%d",
			cur.Width, cur.Height, e.cfg.Width, e.cfg.Height)
	}

	if e.rec == nil {
		e.rec = video.NewFrame(e.cfg.Width, e.cfg.Height)
		e.pred = video.NewFrame(e.cfg.Width, e.cfg.Height)
	}
	plan := e.planFrame(cur)
	e.refinePlan(cur, plan)
	frame, err := e.codeFrame(cur, plan)
	if err != nil {
		return nil, err
	}
	if e.cfg.Deblock {
		DeblockFrame(e.rec, e.cfg.QP)
	}

	var prevRecon *video.Frame
	if e.frameNum > 0 {
		prevRecon = e.ref
	}
	e.cfg.Planner.Update(&FrameResult{
		FrameNum:  e.frameNum,
		Plan:      plan,
		Cur:       cur,
		PrevRecon: prevRecon,
		Recon:     e.rec,
		Bits:      len(frame.Data) * 8,
	})

	// The current reconstruction becomes the reference for the next
	// frame; the old reference buffer is recycled.
	e.ref, e.rec = e.rec, e.ref
	e.frameNum++
	return frame, nil
}

// planFrame runs the decision pipeline: frame typing, pre-ME mode
// selection, motion estimation with the planner's cost hook, the
// SAD-based inter/intra fallback, and the planner's post-ME revision.
//
// The pipeline is two-phase so motion estimation — the dominant cost,
// and the paper's energy lever — can be sharded across macroblock
// rows. Phase 1 walks the grid serially in raster order calling the
// planner hooks (which may be stateful; see the ModePlanner contract).
// Phase 2 runs the SAD searches, which depend only on the two frames
// and the captured penalty hooks, across Config.Workers row shards;
// per-shard motion.Stats are merged in shard order, so the plan and
// the counter tallies are identical to a serial run.
func (e *Encoder) planFrame(cur *video.Frame) *FramePlan {
	rows, cols := cur.MBRows(), cur.MBCols()
	plan := &FramePlan{
		FrameNum: e.frameNum,
		Rows:     rows,
		Cols:     cols,
		MBs:      make([]MBPlan, rows*cols),
	}

	ftype := e.cfg.Planner.PlanFrame(e.frameNum)
	if e.frameNum == 0 || ftype == IFrame {
		plan.Type = IFrame
		for i := range plan.MBs {
			plan.MBs[i].Mode = ModeIntra
		}
		return plan
	}
	plan.Type = PFrame

	// Phase 1 (serial): planner decisions in raster order. One context
	// struct serves the whole frame — hooks read it during the call and
	// may not retain it (the ModePlanner contract), so reusing it keeps
	// the per-macroblock loop allocation-free.
	if len(e.needSearch) != rows*cols {
		e.needSearch = make([]bool, rows*cols)
		e.penalties = make([]motion.PenaltyFunc, rows*cols)
	}
	ctx := MBContext{FrameNum: e.frameNum, Cur: cur, Ref: e.ref}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			idx := row*cols + col
			ctx.Index = idx
			ctx.Row, ctx.Col = row, col
			if e.cfg.Planner.PreME(&ctx) {
				// Early intra decision: no motion estimation at all.
				plan.MBs[idx].Mode = ModeIntra
				e.needSearch[idx] = false
				e.penalties[idx] = nil
				continue
			}
			e.needSearch[idx] = true
			e.penalties[idx] = e.cfg.Planner.MEPenalty(&ctx)
		}
	}

	// Phase 2 (sharded): SAD search and the Figure 4 fallback. Reads
	// cur/ref and the captured penalties; writes only this shard's
	// rows of the plan and its own Stats accumulator.
	if e.meSpans == nil {
		e.meSpans = parallel.Split(rows, e.cfg.Workers)
		e.meStats = make([]motion.Stats, len(e.meSpans))
	}
	spans, shardStats := e.meSpans, e.meStats
	for i := range shardStats {
		shardStats[i] = motion.Stats{}
	}
	parallel.ForEach(len(spans), len(spans), func(shard int) {
		stats := &shardStats[shard]
		for row := spans[shard].Lo; row < spans[shard].Hi; row++ {
			for col := 0; col < cols; col++ {
				idx := row*cols + col
				if !e.needSearch[idx] {
					continue
				}
				mb := &plan.MBs[idx]
				res := motion.Search(cur, e.ref, row, col, motion.Config{
					Range:   e.cfg.SearchRange,
					Kind:    e.cfg.Search,
					Penalty: e.penalties[idx],
				}, stats)
				sadSelf := motion.SADSelf(cur, col*video.MBSize, row*video.MBSize, stats)
				mb.Searched = true
				mb.SAD = res.SAD
				mb.SADSelf = sadSelf
				// Figure 4 fallback: inter prediction not cheap enough.
				if res.SAD-e.cfg.SADThreshold > sadSelf {
					mb.Mode = ModeIntra
				} else {
					mb.Mode = ModeInter
					mb.MV = res.MV
				}
			}
		}
	})
	var mstats motion.Stats
	for _, s := range shardStats {
		mstats.Add(s)
	}
	if e.cfg.Counters != nil {
		e.cfg.Counters.SADPixelOps += mstats.PixelOps
		e.cfg.Counters.SADCalls += mstats.SADCalls
	}

	// Post-ME revision (AIR). Only inter→intra promotions are honoured.
	if len(e.modeScratch) != len(plan.MBs) {
		e.modeScratch = make([]MBMode, len(plan.MBs))
	}
	before := e.modeScratch
	for i := range plan.MBs {
		before[i] = plan.MBs[i].Mode
	}
	e.cfg.Planner.PostME(plan)
	for i := range plan.MBs {
		if before[i] == ModeIntra && plan.MBs[i].Mode != ModeIntra {
			plan.MBs[i].Mode = ModeIntra // demotion ignored
		}
		if plan.MBs[i].Mode == ModeIntra {
			plan.MBs[i].MV = motion.Vector{}
		}
	}
	return plan
}

// refinePlan assigns every planned inter macroblock its transmitted
// half-pel vector: FromInteger(MV) when half-pel mode is off, or the
// best of the eight half-pel neighbours of the integer winner when it
// is on. Refinement is pure SAD work over the original and reference
// frames, so under HalfPel it shards across macroblock rows exactly
// like the integer search, with per-shard stats merged in order. The
// pass runs between planning (after PostME, so the inter set is final)
// and coding (which reads mb.Half but never re-searches), keeping the
// bitstream byte-identical to the historical in-line refinement.
func (e *Encoder) refinePlan(cur *video.Frame, plan *FramePlan) {
	if plan.Type == IFrame {
		return
	}
	if e.refineSpans == nil {
		shards := e.cfg.Workers
		if !e.cfg.HalfPel {
			shards = 1 // conversion only; not worth goroutines
		}
		e.refineSpans = parallel.Split(plan.Rows, shards)
		e.refineStats = make([]motion.Stats, len(e.refineSpans))
	}
	spans, shardStats := e.refineSpans, e.refineStats
	for i := range shardStats {
		shardStats[i] = motion.Stats{}
	}
	parallel.ForEach(len(spans), len(spans), func(shard int) {
		stats := &shardStats[shard]
		for row := spans[shard].Lo; row < spans[shard].Hi; row++ {
			for col := 0; col < plan.Cols; col++ {
				mb := plan.At(row, col)
				if mb.Mode != ModeInter {
					continue
				}
				mb.Half = motion.FromInteger(mb.MV)
				if e.cfg.HalfPel {
					mb.Half, _ = motion.RefineHalf(cur, e.ref, row, col, mb.MV, mb.SAD, stats)
				}
			}
		}
	})
	if e.cfg.Counters != nil {
		for _, s := range shardStats {
			e.cfg.Counters.SADPixelOps += s.PixelOps
			e.cfg.Counters.SADCalls += s.SADCalls
		}
	}
}

// codeFrame serialises the planned frame and produces the encoder-side
// reconstruction in e.rec.
func (e *Encoder) codeFrame(cur *video.Frame, plan *FramePlan) (*EncodedFrame, error) {
	e.w.Reset()
	e.writePictureHeader(plan)

	offsets := make([]int, 0, plan.Rows)
	for row := 0; row < plan.Rows; row++ {
		e.w.AlignByte()
		offsets = append(offsets, e.w.BitLen()/8)
		e.w.WriteStartCode(bitstream.CodeGOB)
		e.w.WriteBits(uint32(row), 6)
		e.mvPred = motion.HalfVector{}
		e.dcPred = [3]int32{128, 128, 128}
		for col := 0; col < plan.Cols; col++ {
			if err := e.codeMB(cur, plan, row, col); err != nil {
				return nil, err
			}
		}
	}

	raw := e.w.Bytes()
	data := make([]byte, len(raw))
	copy(data, raw)

	if e.cfg.Counters != nil {
		e.cfg.Counters.VLCBits += int64(len(data) * 8)
		e.cfg.Counters.MBs += int64(len(plan.MBs))
		e.cfg.Counters.Frames++
	}
	return &EncodedFrame{
		FrameNum:   e.frameNum,
		Type:       plan.Type,
		Data:       data,
		GOBOffsets: offsets,
		Plan:       plan,
	}, nil
}

// writePictureHeader emits the picture layer. Dimensions ride in every
// header so a decoder can bootstrap from any received frame.
func (e *Encoder) writePictureHeader(plan *FramePlan) {
	e.w.WriteStartCode(bitstream.CodePicture)
	e.w.WriteBits(uint32(e.frameNum&0xFFFF), 16)
	if plan.Type == IFrame {
		e.w.WriteBit(0)
	} else {
		e.w.WriteBit(1)
	}
	e.w.WriteBits(uint32(e.cfg.QP), 5)
	if e.cfg.HalfPel {
		e.w.WriteBit(1)
	} else {
		e.w.WriteBit(0)
	}
	if e.cfg.Deblock {
		e.w.WriteBit(1)
	} else {
		e.w.WriteBit(0)
	}
	e.w.WriteBits(uint32(plan.Cols), 8)
	e.w.WriteBits(uint32(plan.Rows), 8)
}

// blockGeometry returns the six 8x8 blocks of macroblock (row, col) as
// (plane, x, y) triples in coding order Y0 Y1 Y2 Y3 Cb Cr.
func blockGeometry(row, col int) [6]struct {
	plane video.Plane
	x, y  int
} {
	lx, ly := col*video.MBSize, row*video.MBSize
	cx, cy := col*(video.MBSize/2), row*(video.MBSize/2)
	return [6]struct {
		plane video.Plane
		x, y  int
	}{
		{video.PlaneY, lx, ly},
		{video.PlaneY, lx + 8, ly},
		{video.PlaneY, lx, ly + 8},
		{video.PlaneY, lx + 8, ly + 8},
		{video.PlaneCb, cx, cy},
		{video.PlaneCr, cx, cy},
	}
}

// codeMB encodes one macroblock per its plan entry, writing bits and
// reconstructing into e.rec. It may promote a planned inter MB to
// ModeSkip.
func (e *Encoder) codeMB(cur *video.Frame, plan *FramePlan, row, col int) error {
	mb := plan.At(row, col)
	switch {
	case mb.Mode == ModeIntra:
		if plan.Type == PFrame {
			e.w.WriteBit(0) // COD: coded
			e.w.WriteBit(1) // mode: intra
		}
		e.codeIntraMB(cur, row, col)
		e.mvPred = motion.HalfVector{}
	case mb.Mode == ModeInter:
		if err := e.codeInterMB(cur, plan, row, col); err != nil {
			return err
		}
	default:
		return fmt.Errorf("codec: macroblock (%d,%d) has unexpected mode %v", row, col, mb.Mode)
	}
	return nil
}

// codeIntraMB codes all six blocks from the original pixels: fixed
// 8-bit DC plus TCOEF AC events, reconstructing via dequant + IDCT.
func (e *Encoder) codeIntraMB(cur *video.Frame, row, col int) {
	geom := blockGeometry(row, col)
	var src, freq, levels, rec video.Block
	var dcs [6]int32
	var acEvents [6][]entropy.Event
	cbp := uint32(0)

	scratch := e.events[:0]
	for b, g := range geom {
		cur.LoadBlock(g.plane, g.x, g.y, &src)
		dct.Forward(&src, &freq)
		quant.Intra(&freq, &levels, e.cfg.QP)
		dcs[b] = levels[0]
		start := len(scratch)
		scratch = entropy.BlockEvents(&levels, true, scratch)
		acEvents[b] = scratch[start:]
		if len(acEvents[b]) > 0 {
			cbp |= 1 << (5 - b)
		}

		// Reconstruct exactly as the decoder will.
		quant.DequantIntra(&levels, &rec, e.cfg.QP)
		dct.Inverse(&rec, &src)
		e.rec.StoreBlock(g.plane, g.x, g.y, &src)
	}
	e.events = scratch[:0]

	for b := range geom {
		plane := 0
		if b == 4 {
			plane = 1
		} else if b == 5 {
			plane = 2
		}
		mustWriteSE(&e.w, dcs[b]-e.dcPred[plane])
		e.dcPred[plane] = dcs[b]
	}
	// Errors from WriteUE/WriteEvent cannot occur here: cbp <= 63 and
	// all events come from BlockEvents, which only emits valid ones.
	mustWriteUE(&e.w, cbp)
	for b := range geom {
		for _, ev := range acEvents[b] {
			mustWriteEvent(&e.w, ev)
		}
	}

	if e.cfg.Counters != nil {
		e.cfg.Counters.DCTBlocks += 6
		e.cfg.Counters.QuantBlocks += 6
		e.cfg.Counters.DequantBlocks += 6
		e.cfg.Counters.IDCTBlocks += 6
	}
}

// codeInterMB motion-compensates using the vector the refinement pass
// assigned, transforms the residual and codes it; a zero-vector
// macroblock with an all-zero quantised residual is promoted to
// ModeSkip (COD=1).
func (e *Encoder) codeInterMB(cur *video.Frame, plan *FramePlan, row, col int) error {
	mb := plan.At(row, col)
	if e.cfg.HalfPel {
		motion.CompensateHalf(e.pred, e.ref, row, col, mb.Half)
	} else {
		motion.Compensate(e.pred, e.ref, row, col, mb.MV)
	}
	if e.cfg.Counters != nil {
		e.cfg.Counters.MCMBs++
	}

	geom := blockGeometry(row, col)
	var src, predBlk, freq, rec video.Block
	var levels [6]video.Block
	cbp := uint32(0)
	for b, g := range geom {
		cur.LoadBlock(g.plane, g.x, g.y, &src)
		e.pred.LoadBlock(g.plane, g.x, g.y, &predBlk)
		for i := range src {
			src[i] -= predBlk[i]
		}
		dct.Forward(&src, &freq)
		quant.Inter(&freq, &levels[b], e.cfg.QP)
		for i := range levels[b] {
			if levels[b][i] != 0 {
				cbp |= 1 << (5 - b)
				break
			}
		}
	}
	if e.cfg.Counters != nil {
		e.cfg.Counters.DCTBlocks += 6
		e.cfg.Counters.QuantBlocks += 6
	}

	if cbp == 0 && mb.Half.IsZero() {
		// Skip macroblock: reconstruction is the co-located reference.
		e.w.WriteBit(1) // COD: skipped
		mb.Mode = ModeSkip
		video.CopyMB(e.rec, e.ref, row, col)
		e.mvPred = motion.HalfVector{}
		return nil
	}

	e.w.WriteBit(0) // COD: coded
	e.w.WriteBit(0) // mode: inter
	// Transmit the vector differentially against the in-GOB predictor
	// (in half-pel units under HalfPel, integer-pel units otherwise).
	hv := motion.HalfVector{X: mb.MV.X, Y: mb.MV.Y}
	if e.cfg.HalfPel {
		hv = mb.Half
	}
	if err := entropy.WriteSE(&e.w, int32(hv.X-e.mvPred.X)); err != nil {
		return fmt.Errorf("codec: motion vector X: %w", err)
	}
	if err := entropy.WriteSE(&e.w, int32(hv.Y-e.mvPred.Y)); err != nil {
		return fmt.Errorf("codec: motion vector Y: %w", err)
	}
	e.mvPred = hv
	mustWriteUE(&e.w, cbp)

	scratch := e.events[:0]
	for b, g := range geom {
		coded := cbp&(1<<(5-b)) != 0
		if !coded {
			// Reconstruction is the prediction.
			e.pred.LoadBlock(g.plane, g.x, g.y, &predBlk)
			e.rec.StoreBlock(g.plane, g.x, g.y, &predBlk)
			continue
		}
		start := len(scratch)
		scratch = entropy.BlockEvents(&levels[b], false, scratch)
		for _, ev := range scratch[start:] {
			mustWriteEvent(&e.w, ev)
		}

		quant.DequantInter(&levels[b], &freq, e.cfg.QP)
		dct.Inverse(&freq, &rec)
		e.pred.LoadBlock(g.plane, g.x, g.y, &predBlk)
		for i := range rec {
			rec[i] += predBlk[i]
		}
		e.rec.StoreBlock(g.plane, g.x, g.y, &rec)
		if e.cfg.Counters != nil {
			e.cfg.Counters.DequantBlocks++
			e.cfg.Counters.IDCTBlocks++
		}
	}
	e.events = scratch[:0]
	return nil
}

// mustWriteSE writes a signed code whose value is guaranteed in range
// by construction (DC differences are within ±255).
func mustWriteSE(w *bitstream.Writer, v int32) {
	if err := entropy.WriteSE(w, v); err != nil {
		panic(fmt.Sprintf("codec: internal se write failed: %v", err))
	}
}

// mustWriteUE writes a ue code whose value is guaranteed in range by
// construction (CBP <= 63).
func mustWriteUE(w *bitstream.Writer, v uint32) {
	if err := entropy.WriteUE(w, v); err != nil {
		panic(fmt.Sprintf("codec: internal ue write failed: %v", err))
	}
}

// mustWriteEvent writes an event produced by BlockEvents, which cannot
// be invalid.
func mustWriteEvent(w *bitstream.Writer, ev entropy.Event) {
	if err := entropy.WriteEvent(w, ev); err != nil {
		panic(fmt.Sprintf("codec: internal event write failed: %v", err))
	}
}

// EncodeEnergy is a convenience that returns the modelled energy of a
// counter tally under a device profile.
func EncodeEnergy(p energy.Profile, c energy.Counters) float64 { return p.Joules(c) }
