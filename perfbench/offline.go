package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbpair/internal/bitcache"
	"pbpair/internal/codec"
	"pbpair/internal/conceal"
	"pbpair/internal/core"
	"pbpair/internal/experiment"
	"pbpair/internal/motion"
	"pbpair/internal/network"
	"pbpair/internal/parallel"
	"pbpair/internal/synth"
	"pbpair/internal/video"
)

// Grid sizes. A pass is one full grid on a fresh bitcache; a run
// repeats passes until --seconds is spent and reports per-pass medians.
const (
	fig5Frames = 16
	fig5Trials = 128
	fig5PLR    = 0.10
	// fig5SearchRange is the codec default; the full-scale figure
	// searches ±15, which would make the grid encode-bound.
	fig5SearchRange = 7

	sweepFrames = 12
)

var offlineRegimes = []synth.Regime{synth.RegimeForeman, synth.RegimeAkiyo, synth.RegimeGarden}

// fig5IntraTh stands in for Figure 5's size-matched Intra_Th
// calibration (a bisection of probe encodes), which would make the
// grid encode-bound; the workload is about the simulate side.
var fig5IntraTh = map[synth.Regime]float64{
	synth.RegimeForeman: 0.90, synth.RegimeAkiyo: 0.95, synth.RegimeGarden: 0.85,
}

// cellSink gathers the per-layer counts of one pass. Cells run
// concurrently, so every field is updated under mu.
type cellSink struct {
	mu           sync.Mutex
	encodedFrame int64 // frames produced by experiment.Encode calls
	sadOps       int64
	intraMBs     float64
	mbs          float64
	batch        experiment.BatchStats
}

func (s *cellSink) addEncode(seq *codec.EncodedSequence) {
	var intra int
	for _, f := range seq.Frames {
		intra += f.IntraMBs
	}
	s.addEncodeIntra(seq, float64(intra))
}

func (s *cellSink) addEncodeIntra(seq *codec.EncodedSequence, intraMBs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.encodedFrame += int64(len(seq.Frames))
	s.sadOps += seq.Counters.SADPixelOps
	s.intraMBs += intraMBs
	s.mbs += float64(len(seq.Frames) * (seq.Width / 16) * (seq.Height / 16))
}

func (s *cellSink) addBatch(b experiment.BatchStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch.LaneFrames += b.LaneFrames
	s.batch.GroupDecodes += b.GroupDecodes
	s.batch.ParsedFrames += b.ParsedFrames
	s.batch.Forks += b.Forks
	s.batch.Merges += b.Merges
	s.batch.MaxLiveGroups = max(s.batch.MaxLiveGroups, b.MaxLiveGroups)
}

// countingConcealer delegates to a codec.Concealer and keeps aggregate
// call and busy-time counters — one pair of atomics, not a span per MB.
type countingConcealer struct {
	inner codec.Concealer
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *countingConcealer) ConcealMB(dst, ref *video.Frame, mbRow, mbCol int) {
	t := time.Now()
	c.inner.ConcealMB(dst, ref, mbRow, mbCol)
	c.ns.Add(int64(time.Since(t)))
	c.calls.Add(1)
}

// offlineGrid is one offline workload: a list of independent cells
// fanned out across nproc workers, each cell calling into the
// experiment layer, plus an independent recomputation of one cell.
type offlineGrid struct {
	cells int
	// run computes cell i of a pass, recording layer spans under the
	// cell span and counts into sink. It keeps what check needs.
	run func(i int, cache *bitcache.Store, conc codec.Concealer, tr *Tracer, cell int, sink *cellSink) error
	// check recomputes cell i separately and compares it with what run
	// kept; a non-nil error is an output-check failure.
	check func(i int) error
}

func frameSetup(frames int) func() error {
	return func() error {
		for _, r := range offlineRegimes {
			src := synth.Memoize(synth.New(r))
			for k := 0; k < frames; k++ {
				src.Frame(k)
			}
		}
		_, err := bitcache.New(bitcache.Config{})
		return err
	}
}

// warmShared renders the frames the grid reads through synth.Shared,
// so the first timed pass does not pay for them.
func warmShared(frames int) {
	for _, r := range offlineRegimes {
		src := synth.Shared(r)
		for k := 0; k < frames; k++ {
			src.Frame(k)
		}
	}
}

// runOffline drives an offline grid for the run's time budget. Passes
// alternate untraced and traced when tracing; end-to-end figures come
// from untraced passes only.
func runOffline(o opts, g offlineGrid, frames int, rep *report) error {
	setup, err := timeSetup(offlineSetupReps, frameSetup(frames))
	if err != nil {
		return err
	}
	warmShared(frames)
	workers := runtime.GOMAXPROCS(0)

	var walls, cpus, tracedWalls []float64
	order, cost := make([]int, g.cells), make([]time.Duration, g.cells)
	for i := range order {
		order[i] = i
	}
	var layer passLayers
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for p := 0; ; p++ {
		traced := o.trace && p%2 == 1
		var tr *Tracer
		var conc codec.Concealer = conceal.Copy{}
		var counting *countingConcealer
		if traced {
			tr = o.tracer
			counting = &countingConcealer{inner: conc}
			conc = counting
		}
		cache, err := bitcache.New(bitcache.Config{})
		if err != nil {
			return err
		}
		sink := &cellSink{}
		errs := make([]error, g.cells)
		root := tr.Begin("pass", 0)
		cpu0, t0 := cpuTime(), time.Now()
		parallel.ForEach(workers, g.cells, func(k int) {
			i := order[k]
			cell := tr.Begin("cell", root)
			c0 := time.Now()
			errs[i] = g.run(i, cache, conc, tr, cell, sink)
			cost[i] = time.Since(c0)
			tr.End(cell)
		})
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		tr.End(root)
		// Longest cells first next pass, so the pass ends on a short
		// cell and its wall-clock does not hinge on which worker drew
		// the slowest one last.
		sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
		stats := cache.Stats()

		rep.Attempted += g.cells
		for i, e := range errs {
			if e != nil {
				rep.fail(fmt.Sprintf("pass %d cell %d: %v", p, i, e))
			}
		}
		// One sampled cell per pass, recomputed outside the timed grid.
		sampled := int((o.seed + uint64(p)*7919) % uint64(g.cells))
		if errs[sampled] == nil {
			rep.Attempted++
			if err := g.check(sampled); err != nil {
				rep.fail(fmt.Sprintf("pass %d check cell %d: %v", p, sampled, err))
			}
		}

		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			layer.add(sink, stats, counting, wall, workers)
		} else {
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
		}
		if time.Now().After(deadline) && len(walls) >= 3 && (!o.trace || len(tracedWalls) >= 2) {
			break
		}
	}
	rep.note("passes: %d untraced, %d traced; grid of %d cells on %d workers", len(walls), len(tracedWalls), g.cells, workers)
	rep.note("untraced pass wall_s %.3f, cpu_s %.3f", walls, cpus)
	rep.e2e("setup_s", setup, "s")
	rep.e2e("wall_s", median(walls), "s")
	rep.e2e("cpu_s", median(cpus), "s")
	rep.e2e("max_rss_mb", maxRSSMB(), "MB")
	rep.e2e("fail_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "frac")
	if o.trace {
		layer.report(rep, o.tracer)
		rep.layer("trace.overhead_frac", median(tracedWalls)/median(walls)-1, "frac")
	}
	return nil
}

// passLayers accumulates per-layer counts over the traced passes.
type passLayers struct {
	passes    int
	sink      cellSink
	hits      int64
	lookups   int64
	concCalls int64
	concNS    int64
	capNS     int64
}

func (l *passLayers) add(s *cellSink, st bitcache.Stats, c *countingConcealer, wall time.Duration, workers int) {
	l.passes++
	l.sink.encodedFrame += s.encodedFrame
	l.sink.sadOps += s.sadOps
	l.sink.intraMBs += s.intraMBs
	l.sink.mbs += s.mbs
	l.sink.batch = s.batch // identical every pass: the grid and its seeds are fixed
	l.hits += st.Hits
	l.lookups += st.Hits + st.Misses
	l.concCalls += c.calls.Load()
	l.concNS += c.ns.Load()
	l.capNS += int64(wall) * int64(workers)
}

func (l *passLayers) report(rep *report, tr *Tracer) {
	lt := selfTimes(tr.Spans())
	enc, sim := lt["experiment.Encode"], lt["experiment.SimBatch"]
	ext, ana := lt["experiment.ExtractModel"], lt["experiment.AnalyzeModel"]
	cell := lt["cell"]
	b := l.sink.batch
	laneFrames := float64(b.LaneFrames) * float64(l.passes)

	rep.layer("experiment.encode_ms_per_frame", ratio(float64(enc.Total)/1e6, float64(l.sink.encodedFrame)), "ms")
	rep.layer("experiment.encode_share", ratio(float64(enc.Total), float64(cell.Total)), "frac")
	rep.layer("experiment.simbatch_share", ratio(float64(sim.Total), float64(cell.Total)), "frac")
	rep.layer("motion.sad_ops_per_frame", ratio(float64(l.sink.sadOps), float64(l.sink.encodedFrame)), "count")
	rep.layer("core.intra_mb_frac", ratio(l.sink.intraMBs, l.sink.mbs), "frac")
	rep.layer("bitcache.hit_frac", ratio(float64(l.hits), float64(l.lookups)), "frac")
	rep.layer("experiment.simbatch_us_per_lane_frame", ratio(float64(sim.Total)/1e3, laneFrames), "us")
	rep.layer("experiment.lanes_per_decode", ratio(float64(b.LaneFrames), float64(b.GroupDecodes)), "count")
	rep.layer("experiment.parsed_frames", float64(b.ParsedFrames), "count")
	rep.layer("experiment.batch_forks", float64(b.Forks), "count")
	rep.layer("experiment.batch_merges", float64(b.Merges), "count")
	rep.layer("experiment.max_live_groups", float64(b.MaxLiveGroups), "count")
	rep.layer("conceal.busy_share", ratio(float64(l.concNS), float64(sim.Total)), "frac")
	rep.layer("conceal.calls_per_lane_frame", ratio(float64(l.concCalls), laneFrames), "count")
	rep.layer("analytic.extract_ms", ratio(float64(ext.Total)/1e6, float64(ext.Count)), "ms")
	rep.layer("analytic.evaluate_us", ratio(float64(ana.Total)/1e3, float64(ana.Count)), "us")
	rep.layer("parallel.utilization", ratio(float64(cell.Total), float64(l.capNS)), "frac")
}

// fig5Cell is one (sequence, scheme) cell of the Figure 5 grid.
type fig5Cell struct {
	regime synth.Regime
	spec   experiment.EncodeSpec
	name   string
	seed   uint64 // base channel seed; lane 0 is the scalar run with it
}

// newFig5 builds the fig5-mc workload: FOREMAN/AKIYO/GARDEN ×
// NO/GOP-3/AIR-24/PGOP-3/PBPAIR at 10% PLR, each cell encoded then run
// through the 64-lane batch Monte-Carlo engine.
func newFig5(seed uint64) offlineGrid {
	var cells []fig5Cell
	rng := splitmix64(seed)
	for _, r := range offlineRegimes {
		src := synth.Shared(r)
		w, h := src.Dims()
		rows, cols := h/16, w/16
		for _, sc := range []experiment.SchemeSpec{
			experiment.SchemeNO(),
			experiment.SchemeGOP(3),
			experiment.SchemeAIR(24),
			experiment.SchemePGOP(3, cols),
			experiment.SchemePBPAIR(core.Config{Rows: rows, Cols: cols, IntraTh: fig5IntraTh[r], PLR: fig5PLR}),
		} {
			cells = append(cells, fig5Cell{
				regime: r,
				spec:   experiment.EncodeSpec{Regime: r, Frames: fig5Frames, SearchRange: fig5SearchRange, Scheme: sc},
				name:   fmt.Sprintf("fig5/%s/%s", src.Name(), sc.Key()),
				seed:   rng.next(),
			})
		}
	}
	results := make([]*experiment.MultiTrialResult, len(cells))
	return offlineGrid{
		cells: len(cells),
		run: func(i int, cache *bitcache.Store, conc codec.Concealer, tr *Tracer, parent int, sink *cellSink) error {
			c := cells[i]
			sp := tr.Begin("experiment.Encode", parent)
			seq, err := experiment.Encode(cache, c.spec)
			tr.End(sp)
			if err != nil {
				return err
			}
			sink.addEncode(seq)
			sp = tr.Begin("experiment.SimBatch", parent)
			mtr, err := experiment.SimBatch(seq, synth.Shared(c.regime),
				experiment.SimSpec{Name: c.name, Concealer: conc},
				experiment.BatchSpec{Trials: fig5Trials, Seed: c.seed, LossRate: fig5PLR, Workers: 1})
			tr.End(sp)
			if err != nil {
				return err
			}
			if mtr.Trials != fig5Trials || len(mtr.LanePSNR) != fig5Trials || mtr.Batch.LaneFrames != int64(fig5Trials*fig5Frames) {
				return fmt.Errorf("%s: %d trials, %d lanes, %d lane-frames", c.name, mtr.Trials, len(mtr.LanePSNR), mtr.Batch.LaneFrames)
			}
			sink.addBatch(mtr.Batch)
			results[i] = mtr
			return nil
		},
		check: func(i int) error {
			c := cells[i]
			seq, err := experiment.Encode(nil, c.spec)
			if err != nil {
				return err
			}
			ch, err := network.NewUniformLoss(fig5PLR, c.seed)
			if err != nil {
				return err
			}
			r, err := experiment.Simulate(seq, synth.Shared(c.regime),
				experiment.SimSpec{Name: c.name, Channel: ch, Concealer: conceal.Copy{}})
			if err != nil {
				return err
			}
			m := results[i]
			if r.PSNR.Mean() != m.LanePSNR[0] || int64(r.TotalBadPix) != m.LaneBadPixels[0] ||
				int64(r.ConcealedMBs) != m.LaneConcealedMBs[0] || int64(r.LostFrames) != m.LaneLostFrames[0] ||
				int64(r.PacketsLost) != m.LanePacketsLost[0] {
				return fmt.Errorf("%s: lane 0 (psnr %v bad %d) differs from scalar Simulate (psnr %v bad %d)",
					c.name, m.LanePSNR[0], m.LaneBadPixels[0], r.PSNR.Mean(), r.TotalBadPix)
			}
			return nil
		},
	}
}

// Sweep axes before the per-seed jitter: encoder α, Intra_Th and the
// channel loss rates every model is evaluated at.
var (
	sweepAlphas = []float64{0.05, 0.10, 0.20}
	sweepThs    = []float64{0.30, 0.60, 0.85, 0.95}
	sweepLosses = []float64{0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40}
)

// sweepJob is one distinct encode of the analytic sweep.
type sweepJob struct {
	regime synth.Regime
	spec   experiment.EncodeSpec
	losses []experiment.AnalyticSpec
}

// newSweep builds the sweep-analytic workload: regime × α × Intra_Th
// full-search encodes, each extracted once and evaluated at every loss
// rate. The seed jitters the channel loss axis only: jittering α or
// Intra_Th moves the intra-refresh count and with it the encode work,
// which would make runs on different seeds measure different amounts
// of work.
func newSweep(seed uint64) offlineGrid {
	rng := splitmix64(seed)
	jitter := func(v, amp float64) float64 { return v + amp*(2*rng.float()-1) }
	var jobs []sweepJob
	for _, r := range offlineRegimes {
		src := synth.Shared(r)
		w, h := src.Dims()
		for _, a := range sweepAlphas {
			for _, th := range sweepThs {
				job := sweepJob{regime: r, spec: experiment.EncodeSpec{
					Regime: r, Frames: sweepFrames, Search: motion.FullSearch,
					Scheme: experiment.SchemePBPAIR(core.Config{Rows: h / 16, Cols: w / 16,
						IntraTh: th, PLR: a}),
				}}
				for _, l := range sweepLosses {
					if l > 0 {
						l = jitter(l, 0.005)
					}
					job.losses = append(job.losses, experiment.AnalyticSpec{
						Name: fmt.Sprintf("sweep/%s/%s/loss%.4f", src.Name(), job.spec.Scheme.Key(), l), LossRate: l,
					})
				}
				jobs = append(jobs, job)
			}
		}
	}
	rows := make([][]*experiment.AnalyticResult, len(jobs))
	var checks atomic.Int64
	return offlineGrid{
		cells: len(jobs),
		run: func(i int, cache *bitcache.Store, _ codec.Concealer, tr *Tracer, parent int, sink *cellSink) error {
			job := jobs[i]
			src := synth.Shared(job.regime)
			sp := tr.Begin("experiment.Encode", parent)
			seq, err := experiment.Encode(cache, job.spec)
			tr.End(sp)
			if err != nil {
				return err
			}
			sp = tr.Begin("experiment.ExtractModel", parent)
			m, err := experiment.ExtractModel(seq, src, experiment.AnalyticSpec{})
			tr.End(sp)
			if err != nil {
				return err
			}
			sink.addEncodeIntra(seq, m.IntraMBsPerFrame()*float64(m.FrameCount()))
			out := make([]*experiment.AnalyticResult, len(job.losses))
			for k, spec := range job.losses {
				sp = tr.Begin("experiment.AnalyzeModel", parent)
				out[k], err = experiment.AnalyzeModel(m, spec)
				tr.End(sp)
				if err != nil {
					return err
				}
				if err := finiteAnalytic(out[k]); err != nil {
					return fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
			rows[i] = out
			return nil
		},
		check: func(i int) error {
			job := jobs[i]
			k := int(checks.Add(1)) % len(job.losses)
			seq, err := experiment.Encode(nil, job.spec)
			if err != nil {
				return err
			}
			want, err := experiment.Analyze(seq, synth.Shared(job.regime), job.losses[k])
			if err != nil {
				return err
			}
			if err := sameAnalytic(rows[i][k], want); err != nil {
				return fmt.Errorf("%s: %w", job.losses[k].Name, err)
			}
			return nil
		},
	}
}

// sameAnalytic reports whether a grid row is bit-equal to a separate
// Encode + Analyze of the same point.
func sameAnalytic(got, want *experiment.AnalyticResult) error {
	if got.ExpPSNR.Mean() != want.ExpPSNR.Mean() || got.ExpBadPixTotal != want.ExpBadPixTotal ||
		got.ExpConcealedMBs != want.ExpConcealedMBs || got.ExpPacketsLost != want.ExpPacketsLost ||
		got.ExpLostFrames != want.ExpLostFrames || got.PacketsSent != want.PacketsSent ||
		got.TotalBytes != want.TotalBytes || got.IntraMBsPerFrame != want.IntraMBsPerFrame ||
		got.MeanSigma != want.MeanSigma || got.Joules != want.Joules || got.Counters != want.Counters {
		return fmt.Errorf("grid row (psnr %v, bytes %d) differs from recomputation (psnr %v, bytes %d)",
			got.ExpPSNR.Mean(), got.TotalBytes, want.ExpPSNR.Mean(), want.TotalBytes)
	}
	return nil
}

func finiteAnalytic(r *experiment.AnalyticResult) error {
	for _, v := range []float64{r.ExpPSNR.Mean(), r.ExpBadPixTotal, r.ExpConcealedMBs, r.ExpPacketsLost, r.Joules} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("non-finite or negative expectation %v", v)
		}
	}
	return nil
}
