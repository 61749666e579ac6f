package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pbpair/internal/core"
	"pbpair/internal/experiment"
	"pbpair/internal/motion"
	"pbpair/internal/serve"
	"pbpair/internal/synth"
)

// servingProfile is one open-loop serving workload: a server
// configuration, the sessions the generator offers and the fixed
// ladder of arrival rates it steps through.
type servingProfile struct {
	frames        int
	frameInterval time.Duration
	cohortWindow  time.Duration
	maxSessions   int
	// farmBacklog deepens the encode farm's job queue past its default
	// of 2 × workers: with one lineage per forked session, lineages fall
	// due together at each frame tick and the default sheds sessions at
	// a fraction of capacity.
	farmBacklog int
	cohorts     []cohort
	// ladder lists offered arrival rates in sessions/s. ladder[0] is
	// the nominal step, below capacity; the last step is above it.
	ladder []float64
	// forked clients each inject their own receiver-side loss and
	// report every frame, so their lineages fork.
	forked bool
	// sloLimitMS is the latency limit on slip_p99_ms for slo_rate.
	sloLimitMS float64
}

// cohort is one lineage-sharing class of sessions (equal cohort key).
type cohort struct {
	regime synth.Regime
	qp     int
}

var fanoutProfile = servingProfile{
	frames:        25,
	frameInterval: 40 * time.Millisecond,
	cohortWindow:  300 * time.Millisecond,
	maxSessions:   4000,
	farmBacklog:   64,
	cohorts:       []cohort{{synth.RegimeForeman, 8}, {synth.RegimeAkiyo, 8}, {synth.RegimeGarden, 10}},
	ladder:        []float64{60, 240, 960},
	sloLimitMS:    200,
}

var forkedProfile = servingProfile{
	frames:        25,
	frameInterval: 40 * time.Millisecond,
	cohortWindow:  100 * time.Millisecond,
	maxSessions:   4000,
	farmBacklog:   64,
	cohorts:       []cohort{{synth.RegimeForeman, 8}},
	ladder:        []float64{12, 32, 96},
	forked:        true,
	sloLimitMS:    200,
}

// idealDuration is how long a session takes with no delay at all: the
// cohort window, then one frame interval between each pair of frames.
func idealDuration(window, interval time.Duration, frames int) time.Duration {
	return window + time.Duration(frames-1)*interval
}

// slip is how late a session finished against its schedule: the
// return time minus (scheduled arrival + ideal duration). Timing from
// the scheduled arrival, not the launch, charges generator and
// scheduler stalls to the sessions they delay.
func slip(due, returned, ideal time.Duration) time.Duration {
	return returned - due - ideal
}

// arrival is one scheduled session.
type arrival struct {
	due    time.Duration // since the step's epoch
	cohort int
	decode bool    // sampled client that decodes and scores PSNR
	drop   float64 // injected receiver-side loss (forked only)
	seed   uint64
}

// schedule draws the open-loop arrivals of one step from the run seed
// and the step index only: round(rate·window) arrival times placed as a
// Poisson process conditioned on its count (sorted uniform draws), so
// every seed offers the same amount of work at different instants.
// Cohorts are assigned round-robin for the same reason.
func schedule(p servingProfile, seed uint64, step int, rate float64, window time.Duration) []arrival {
	r := splitmix64(seed ^ uint64(step+1)*0x9e3779b97f4a7c15)
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.float() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]arrival, n)
	for i, due := range dues {
		a := arrival{due: due, cohort: i % len(p.cohorts), seed: r.next()}
		if p.forked {
			a.drop = 0.03 + 0.12*r.float()
		} else {
			a.decode = step == 0 && i < len(p.cohorts) // one sampled client per cohort
		}
		out[i] = a
	}
	return out
}

// sessionRec is what one session did, timed against the step epoch.
type sessionRec struct {
	due, launch, ret time.Duration
	sum              *serve.ClientSummary
	err              error
}

// stepResult is one ladder step.
type stepResult struct {
	rate      float64
	sessions  int
	failed    int      // rejected, errored or short sessions
	short     []string // admitted sessions that lost frames
	slips     []float64
	slip      summary
	backlog   bool
	lag       summary // generator lateness, ms
	late      int     // launches more than maxGenLagMS late
	wall      float64 // mean session wall-clock, scheduled arrival to return
	span      float64 // step wall-clock, epoch to the last return
	cpu       float64
	goodput   float64 // delivered frames per second
	frames    int64   // delivered frames
	snap      map[string]float64
	entries   float64 // peak registry entries seen by the sampler
	active    float64 // peak server.sessions_active seen by the sampler
	newMS     float64
	shutMS    float64
	sessionMS []float64
	sendMS    []float64
	recs      []sessionRec
	sched     []arrival
}

// A step is invalid — it measured the generator, not the server — when
// more than maxLateFrac of its sessions launched over maxGenLagMS late.
// Single launches run 5–45 ms late now and then on a busy 2-vCPU host
// (one descheduled vCPU delays every timer), so one late launch must
// not void a step; a generator that has fallen behind is late for many.
const (
	maxGenLagMS = 50
	maxLateFrac = 0.05
)

// lateLaunches counts launches more than maxGenLagMS behind schedule.
func lateLaunches(lagsMS []float64) int {
	n := 0
	for _, l := range lagsMS {
		if l > maxGenLagMS {
			n++
		}
	}
	return n
}

func (s *stepResult) genValid() bool {
	return s.sessions > 0 && float64(s.late) <= maxLateFrac*float64(s.sessions)
}

// backlogGrowing reports whether a step's queue grew: the median slip
// of the last third of its sessions (in arrival order) exceeds the
// first third's by more than tolMS.
func backlogGrowing(slipsByDue []float64, tolMS float64) bool {
	n := len(slipsByDue) / 3
	if n == 0 {
		return false
	}
	early, late := median(slipsByDue[:n]), median(slipsByDue[len(slipsByDue)-n:])
	return late-early > tolMS
}

// sloRate returns the highest step rate whose slip p99 is under
// limitMS with no failed session, no growing backlog and a generator
// that kept to its schedule; 0 when no step qualifies.
func sloRate(steps []*stepResult, limitMS float64) float64 {
	best := 0.0
	for _, s := range steps {
		if s.genValid() && s.failed == 0 && !s.backlog && s.slip.P99 < limitMS && s.rate > best {
			best = s.rate
		}
	}
	return best
}

// stepWindows splits the run's seconds across the ladder: every step
// pays one session duration of drain plus a fixed margin; the nominal
// step gets half of what remains for arrivals.
func stepWindows(p servingProfile, seconds int) []time.Duration {
	d := idealDuration(p.cohortWindow, p.frameInterval, p.frames) + 500*time.Millisecond
	avail := time.Duration(seconds)*time.Second - time.Duration(len(p.ladder))*d
	out := make([]time.Duration, len(p.ladder))
	for i := range out {
		w := avail / 2
		if i > 0 {
			w = avail / 2 / time.Duration(len(p.ladder)-1)
		}
		out[i] = max(w, time.Second)
	}
	return out
}

func runServing(o opts, p servingProfile, rep *report) error {
	cfg := serve.Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   p.maxSessions,
		FrameInterval: p.frameInterval,
		CohortWindow:  p.cohortWindow,
		FarmBacklog:   p.farmBacklog,
	}
	setup, err := timeSetup(servingSetupReps, func() error {
		srv, err := serve.New(cfg)
		if err != nil {
			return err
		}
		return srv.Close()
	})
	if err != nil {
		return err
	}
	windows := stepWindows(p, o.seconds)
	var untracedNominal *stepResult
	if o.trace {
		// The tracing overhead: the nominal step once more, untraced.
		if untracedNominal, err = runStep(o, p, cfg, 0, windows[0], nil); err != nil {
			return err
		}
	}
	var steps []*stepResult
	var rssMB float64
	for i, rate := range p.ladder {
		s, err := runStep(o, p, cfg, i, windows[i], o.tracer)
		if err != nil {
			return err
		}
		s.rate = rate
		steps = append(steps, s)
		if i == 0 {
			rssMB = maxRSSMB() // peak through the nominal step: the fixed work
		}
		rep.note("step %d: %.0f sessions/s offered, %d sessions, %d failed, slip p50 %.2f ms p99 %.2f ms (n=%d, %d beyond), backlog growing %v, generator lag p50 %.2f ms p99 %.2f ms, goodput %.0f frames/s",
			i, rate, s.sessions, s.failed, s.slip.P50, s.slip.P99, s.slip.N, s.slip.P99Beyond, s.backlog, s.lag.P50, s.lag.P99, s.goodput)
		if !s.genValid() {
			rep.note("step %d INVALID: %d of %d launches over %d ms late", i, s.late, s.sessions, maxGenLagMS)
		}
	}
	nom, top := steps[0], steps[len(steps)-1]

	// Output checks and failures count at the nominal step only; above
	// capacity, rejections and shortfalls are what slo_rate measures.
	rep.Attempted += nom.sessions
	rep.Failed += nom.failed
	rep.Failures = append(rep.Failures, nom.short...)
	if !p.forked {
		if err := checkPSNR(p, nom, rep); err != nil {
			return err
		}
	}
	if !nom.genValid() {
		rep.Invalid = fmt.Sprintf("generator fell behind at the nominal step: %d of %d launches over %d ms late", nom.late, nom.sessions, maxGenLagMS)
	}

	rep.e2e("setup_s", setup, "s")
	rep.e2e("wall_s", nom.wall, "s")
	rep.e2e("cpu_s", nom.cpu, "s")
	rep.e2e("max_rss_mb", rssMB, "MB")
	rep.e2e("fail_frac", ratio(float64(nom.failed), float64(nom.sessions)), "frac")
	rep.e2e("slip_p50_ms", nom.slip.P50, "ms")
	rep.e2e("slip_p99_ms", nom.slip.P99, "ms")
	rep.e2e("slo_rate", sloRate(steps, p.sloLimitMS), "1/s")
	rep.e2e("peak_goodput_fps", top.goodput, "frames/s")
	tailName := fmt.Sprintf("p%g", float64(nom.slip.TailPM)/10)
	rep.note("slip at nominal: p50 %.3f ms, p99 %.3f ms over n=%d (%d beyond p99); tail rule: %s = %.3f ms (supported %v); limit %.0f ms",
		nom.slip.P50, nom.slip.P99, nom.slip.N, nom.slip.P99Beyond, tailName, nom.slip.Tail, nom.slip.TailOK, p.sloLimitMS)

	if o.trace {
		servingLayers(rep, steps, o.tracer)
		rep.layer("trace.overhead_frac", nom.cpu/untracedNominal.cpu-1, "frac")
	}
	return nil
}

// runStep runs one ladder step on a fresh server.
func runStep(o opts, p servingProfile, cfg serve.Config, step int, window time.Duration, tr *Tracer) (*stepResult, error) {
	st := &stepResult{sched: schedule(p, o.seed, step, p.ladder[step], window)}
	span := tr.Begin("step", 0)
	defer tr.End(span)

	sp := tr.Begin("serve.New", span)
	t0 := time.Now()
	srv, err := serve.New(cfg)
	st.newMS = msSince(t0)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	addr := srv.Addr().String()
	ideal := idealDuration(p.cohortWindow, p.frameInterval, p.frames)
	ctx, cancel := context.WithTimeout(context.Background(), window+ideal+20*time.Second)
	defer cancel()

	// Sampler: the registry's size and live sessions, every 100 ms.
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			sp := tr.Begin("obs.Snapshot", span)
			snap := srv.Registry().Snapshot()
			tr.End(sp)
			st.entries = max(st.entries, float64(len(snap)))
			st.active = max(st.active, snap["server.sessions_active"])
		}
	}()

	st.recs = make([]sessionRec, len(st.sched))
	lags := make([]float64, len(st.sched))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	epoch := time.Now()
	for i, a := range st.sched {
		if d := a.due - time.Since(epoch); d > 0 {
			time.Sleep(d)
		}
		launch := time.Since(epoch)
		lags[i] = float64(launch-a.due) / 1e6
		c := p.cohorts[a.cohort]
		cc := serve.ClientConfig{
			Server: addr, Frames: p.frames, Regime: c.regime, QP: c.qp,
			Decode: a.decode, Seed: a.seed,
			IdleTimeout: 3 * time.Second, HandshakeTimeout: time.Second,
		}
		if p.forked {
			// Loss starts after frame 0, so every session sees its
			// stream start; each session's rate and pattern differ.
			drop, err := serve.NewStepLoss(0, a.drop, 1)
			if err != nil {
				return nil, err
			}
			cc.Drop, cc.ReportEvery = drop, 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Begin("serve.RunClient", span)
			sum, err := serve.RunClient(ctx, cc)
			tr.End(sp)
			st.recs[i] = sessionRec{due: a.due, launch: launch, ret: time.Since(epoch), sum: sum, err: err}
		}()
	}
	wg.Wait()
	st.cpu = (cpuTime() - cpu0).Seconds()
	close(stop)
	samplerDone.Wait()
	st.snap = srv.Registry().Snapshot()

	sp = tr.Begin("serve.Shutdown", span)
	t0 = time.Now()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = srv.Shutdown(sctx)
	scancel()
	st.shutMS = msSince(t0)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	st.sessions = len(st.sched)
	st.lag = summarize(lags)
	st.late = lateLaunches(lags)
	var last, total time.Duration
	for i, r := range st.recs {
		last = max(last, r.ret)
		s := float64(slip(r.due, r.ret, ideal)) / 1e6
		if why := sessionFailure(p, r); why != "" {
			st.failed++
			s = math.Inf(1) // a failed session misses any limit
			var rej *serve.RejectedError
			if !errors.As(r.err, &rej) {
				st.short = append(st.short, fmt.Sprintf("step %d session %d: %s", step, i, why))
			}
		} else {
			st.frames += int64(r.sum.FramesFlushed)
			total += r.ret - r.due
			st.sendMS = append(st.sendMS, float64(r.sum.E2E.Mean())/1e6)
		}
		st.slips = append(st.slips, s)
		st.sessionMS = append(st.sessionMS, float64(r.ret-r.launch)/1e6)
	}
	st.slip = summarize(st.slips)
	st.backlog = backlogGrowing(st.slips, p.sloLimitMS/4)
	st.span = last.Seconds()
	st.wall = ratio(total.Seconds(), float64(st.sessions-st.failed))
	st.goodput = ratio(float64(st.frames), st.span)
	return st, nil
}

// sessionFailure says why a session failed, or "" if it delivered
// every frame it requested.
func sessionFailure(p servingProfile, r sessionRec) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.sum.FramesFlushed != p.frames:
		return fmt.Sprintf("delivered %d/%d frames", r.sum.FramesFlushed, p.frames)
	case !p.forked && r.sum.WireLost > 0:
		return fmt.Sprintf("lost %d datagrams on a loss-free path", r.sum.WireLost)
	}
	return ""
}

// checkPSNR compares each sampled decoding client's PSNR with an
// offline encode and loss-free decode of the same stream: the server
// encodes a loss-free cohort with PBPAIR at α = Intra_Th = 0 and a
// three-step search over the codec's default range.
func checkPSNR(p servingProfile, st *stepResult, rep *report) error {
	want := map[int]float64{}
	for i, a := range st.sched {
		if !a.decode {
			continue
		}
		rep.Attempted++
		r := st.recs[i]
		if sessionFailure(p, r) != "" {
			continue // already counted
		}
		c := p.cohorts[a.cohort]
		if _, ok := want[a.cohort]; !ok {
			src := synth.Shared(c.regime)
			w, h := src.Dims()
			seq, err := experiment.Encode(nil, experiment.EncodeSpec{
				Regime: c.regime, Frames: p.frames, QP: c.qp, SearchRange: 7, Search: motion.ThreeStep,
				Scheme: experiment.SchemePBPAIR(core.Config{Rows: h / 16, Cols: w / 16}),
			})
			if err != nil {
				return err
			}
			res, err := experiment.Simulate(seq, src, experiment.SimSpec{})
			if err != nil {
				return err
			}
			want[a.cohort] = res.PSNR.Mean()
		}
		if got := r.sum.MeanPSNR(); r.sum.FramesDecoded != p.frames || math.Abs(got-want[a.cohort]) > 1e-9 {
			rep.fail(fmt.Sprintf("cohort %d: client decoded %d frames at %.6f dB, offline encode gives %.6f dB",
				a.cohort, r.sum.FramesDecoded, got, want[a.cohort]))
		}
	}
	return nil
}

func servingLayers(rep *report, steps []*stepResult, tr *Tracer) {
	nom := steps[0]
	snap := nom.snap
	session, send := summarize(nom.sessionMS), summarize(nom.sendMS)
	var newMS, shutMS, deferrals, rejects, rejected, fbDropped float64
	for _, s := range steps {
		newMS += s.newMS / float64(len(steps))
		shutMS += s.shutMS / float64(len(steps))
		deferrals += s.snap["server.loadshed_deferrals"]
		rejects += s.snap["server.loadshed_rejects"]
		rejected += s.snap["server.sessions_rejected"]
		fbDropped += s.snap["server.feedback_dropped"]
	}
	lt := selfTimes(tr.Spans())
	snapT := lt["obs.Snapshot"]
	rep.layer("serve.new_ms", newMS, "ms")
	rep.layer("serve.shutdown_ms", shutMS, "ms")
	rep.layer("serve.session_ms_p50", session.P50, "ms")
	rep.layer("serve.session_ms_p99", session.P99, "ms")
	rep.layer("serve.send_path_ms_p50", send.P50, "ms")
	rep.layer("serve.send_path_ms_p99", send.P99, "ms")
	rep.layer("serve.frame_latency_mean_ms", snap["server.frame_latency.mean_us"]/1e3, "ms")
	rep.layer("serve.encode_latency_mean_ms", snap["server.encode_latency.mean_us"]/1e3, "ms")
	rep.layer("serve.encodes_per_frame", ratio(snap["server.encodes"], float64(nom.frames)), "count")
	rep.layer("network.datagrams_per_recv", ratio(snap["server.recv_datagrams"], snap["server.recv_batches"]), "count")
	rep.layer("serve.loadshed_deferrals", deferrals, "count")
	rep.layer("serve.loadshed_rejects", rejects, "count")
	rep.layer("serve.sessions_rejected", rejected, "count")
	rep.layer("serve.feedback_dropped", fbDropped, "count")
	rep.layer("serve.lineage_forks", snap["server.lineage_forks"], "count")
	rep.layer("serve.lineage_merges", snap["server.lineage_merges"], "count")
	rep.layer("serve.sessions_active_peak", nom.active, "count")
	rep.layer("serve.shard_rx_balance", snap["server.shard_rx_balance"], "frac")
	rep.layer("obs.registry_entries_peak", nom.entries, "count")
	rep.layer("obs.snapshot_ms", ratio(float64(snapT.Total)/1e6, float64(snapT.Count)), "ms")
	rep.layer("gen.lag_p99_ms", nom.lag.P99, "ms")
	rep.note("session span n=%d, send path n=%d, generator lag n=%d", session.N, send.N, nom.lag.N)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
