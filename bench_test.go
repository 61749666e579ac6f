// Package pbpair's root benchmark harness regenerates every table and
// figure of the paper's evaluation (DESIGN.md experiments E1–E12 plus
// the ablations). Each benchmark runs the full experiment pipeline —
// synthetic source, encoder under the scheme, packetiser, lossy
// channel, decoder with concealment, metrics — and reports the
// figures' key quantities via b.ReportMetric, so `go test -bench`
// output doubles as the reproduction record.
//
// Benchmarks run at reduced scale (fewer frames, search range ±7) to
// keep the suite fast; cmd/pbpair-figures runs the paper-scale
// versions. Every qualitative relationship (who wins, roughly by how
// much, where the crossovers sit) is scale-invariant here.
package pbpair_test

import (
	"fmt"
	"testing"

	"pbpair/internal/adapt"
	"pbpair/internal/bitcache"
	"pbpair/internal/codec"
	"pbpair/internal/conceal"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/experiment"
	"pbpair/internal/metrics"
	"pbpair/internal/motion"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/rate"
	"pbpair/internal/resilience"
	"pbpair/internal/synth"
)

// benchFig5Config is the reduced-scale Figure 5 setup shared by E1–E4,
// E9 and E10.
func benchFig5Config() experiment.Fig5Config {
	return experiment.Fig5Config{
		Frames:      24,
		ProbeFrames: 10,
		SearchRange: 7,
		PLR:         0.10,
	}
}

func runFig5(b *testing.B) []experiment.Fig5Row {
	b.Helper()
	rows, err := experiment.Fig5(benchFig5Config())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkFig5a — E1: average PSNR per (sequence, scheme) at PLR 10%.
func BenchmarkFig5a(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runFig5(b)
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgPSNR, r.Sequence+"/"+r.Scheme+"_dB")
	}
}

// BenchmarkFig5b — E2: bad-pixel counts.
func BenchmarkFig5b(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runFig5(b)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.BadPixels), r.Sequence+"/"+r.Scheme+"_badpx")
	}
}

// BenchmarkFig5c — E3: encoded file sizes.
func BenchmarkFig5c(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runFig5(b)
	}
	for _, r := range rows {
		b.ReportMetric(r.FileKB, r.Sequence+"/"+r.Scheme+"_KB")
	}
}

// BenchmarkFig5d — E4: modelled encoding energy (iPAQ).
func BenchmarkFig5d(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runFig5(b)
	}
	for _, r := range rows {
		b.ReportMetric(r.EnergyJ, r.Sequence+"/"+r.Scheme+"_J")
	}
}

// BenchmarkHeadlineEnergySavings — E9: the paper's headline numbers
// (PBPAIR saves 34% vs AIR, 24% vs GOP, 17% vs PGOP).
func BenchmarkHeadlineEnergySavings(b *testing.B) {
	var savings map[string]float64
	for i := 0; i < b.N; i++ {
		savings = experiment.HeadlineSavings(runFig5(b))
	}
	for scheme, s := range savings {
		b.ReportMetric(s*100, "saving_vs_"+scheme+"_%")
	}
}

// BenchmarkDeviceProfiles — E10: the same work tally priced on both
// PDAs (§4.1).
func BenchmarkDeviceProfiles(b *testing.B) {
	var rows []experiment.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = runFig5(b)
	}
	for _, r := range rows {
		if r.Sequence != "foreman" {
			continue
		}
		b.ReportMetric(energy.IPAQ.Joules(r.Counters), r.Scheme+"_ipaq_J")
		b.ReportMetric(energy.Zaurus.Joules(r.Counters), r.Scheme+"_zaurus_J")
	}
}

func benchFig6Config() experiment.Fig6Config {
	return experiment.Fig6Config{
		Frames:      42,
		ProbeFrames: 12,
		SearchRange: 7,
		LossEvents:  []int{5, 20, 36},
	}
}

// BenchmarkFig6a — E5: per-frame PSNR traces under scripted loss
// (reported as each scheme's mean and minimum PSNR over the trace).
func BenchmarkFig6a(b *testing.B) {
	var series []experiment.Fig6Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.Fig6(benchFig6Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		mean, minV := 0.0, s.PSNR[0]
		for _, v := range s.PSNR {
			mean += v
			if v < minV {
				minV = v
			}
		}
		b.ReportMetric(mean/float64(len(s.PSNR)), s.Scheme+"_meandB")
		b.ReportMetric(minV, s.Scheme+"_mindB")
	}
}

// BenchmarkFig6b — E6: frame-size variation (burstiness as max/mean;
// the paper's point is GOP's severe fluctuation).
func BenchmarkFig6b(b *testing.B) {
	var series []experiment.Fig6Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.Fig6(benchFig6Config())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		mean, maxV := 0.0, 0.0
		for _, v := range s.FrameBytes {
			mean += v
			if v > maxV {
				maxV = v
			}
		}
		mean /= float64(len(s.FrameBytes))
		b.ReportMetric(maxV/mean, s.Scheme+"_burst")
	}
}

// BenchmarkRecoverySpeed — E11: frames to return within 1 dB of the
// loss-free trace after each loss event (censored at the window when
// unrecovered).
func BenchmarkRecoverySpeed(b *testing.B) {
	cfg := benchFig6Config()
	var series []experiment.Fig6Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiment.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		var total float64
		for i, r := range s.Recovery {
			if r < 0 {
				end := cfg.Frames
				if i+1 < len(cfg.LossEvents) {
					end = cfg.LossEvents[i+1]
				}
				r = end - cfg.LossEvents[i]
			}
			total += float64(r)
		}
		b.ReportMetric(total/float64(len(s.Recovery)), s.Scheme+"_frames")
	}
}

// BenchmarkSweepResiliencyEnergy — E7 (§4.3): the Intra_Th × PLR
// operating grid's energy/size trade-off.
func BenchmarkSweepResiliencyEnergy(b *testing.B) {
	cfg := experiment.SweepConfig{
		Frames:      12,
		SearchRange: 7,
		IntraThs:    []float64{0, 0.8, 1},
		PLRs:        []float64{0.05, 0.2},
	}
	var points []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		key := fmt.Sprintf("th%.1f_plr%.2f", p.IntraTh, p.PLR)
		b.ReportMetric(p.EnergyJ, key+"_J")
		b.ReportMetric(p.IntraMBsPerFrame, key+"_intra")
	}
}

// BenchmarkSweepQuality — E8 (§4.4): the same grid's quality side.
func BenchmarkSweepQuality(b *testing.B) {
	cfg := experiment.SweepConfig{
		Frames:      12,
		SearchRange: 7,
		IntraThs:    []float64{0, 0.8, 1},
		PLRs:        []float64{0.05, 0.2},
	}
	var points []experiment.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		key := fmt.Sprintf("th%.1f_plr%.2f", p.IntraTh, p.PLR)
		b.ReportMetric(p.AvgPSNR, key+"_dB")
		b.ReportMetric(float64(p.BadPixels), key+"_badpx")
	}
}

// BenchmarkAdaptive — E12 (§3.2): PBPAIR under a time-varying PLR with
// the quality controller in the loop versus a fixed-threshold run.
func BenchmarkAdaptive(b *testing.B) {
	run := func(adaptive bool) float64 {
		src := synth.New(synth.RegimeForeman)
		w, h := src.Dims()
		planner, err := core.New(core.Config{Rows: h / 16, Cols: w / 16, IntraTh: 0.85, PLR: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		controller, err := adapt.NewQualityController(6)
		if err != nil {
			b.Fatal(err)
		}
		controller.SetSimilarity(0.75)
		res := 0.0
		frames := 40
		// True loss steps up mid-run.
		lossAt := func(k int) float64 {
			if k >= 20 {
				return 0.25
			}
			return 0.05
		}
		enc, err := codec.NewEncoder(codec.Config{
			Width: w, Height: h, QP: 8, SearchRange: 7, Planner: planner,
		})
		if err != nil {
			b.Fatal(err)
		}
		dec, err := codec.NewDecoder(w, h)
		if err != nil {
			b.Fatal(err)
		}
		pktz := network.NewPacketizer(network.DefaultMTU)
		rng := uint64(99)
		next := func() float64 {
			rng += 0x9E3779B97F4A7C15
			z := rng
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return float64((z^(z>>31))>>11) / (1 << 53)
		}
		var psnrSum float64
		for k := 0; k < frames; k++ {
			if adaptive {
				controller.Apply(planner, lossAt(k)) // ideal feedback
			}
			original := src.Frame(k)
			ef, err := enc.EncodeFrame(original)
			if err != nil {
				b.Fatal(err)
			}
			var kept []network.Packet
			for _, pkt := range pktz.Packetize(ef) {
				if next() >= lossAt(k) {
					kept = append(kept, pkt)
				}
			}
			var dr *codec.DecodeResult
			if payload := network.Reassemble(kept); payload == nil {
				dr = dec.ConcealLostFrame()
			} else {
				if dr, err = dec.DecodeFrame(payload); err != nil {
					b.Fatal(err)
				}
			}
			p, err := metrics.PSNR(original, dr.Frame)
			if err != nil {
				b.Fatal(err)
			}
			psnrSum += p
		}
		res = psnrSum / float64(frames)
		return res
	}
	var fixed, adaptive float64
	for i := 0; i < b.N; i++ {
		fixed = run(false)
		adaptive = run(true)
	}
	b.ReportMetric(fixed, "fixed_dB")
	b.ReportMetric(adaptive, "adaptive_dB")
}

// BenchmarkAblationProbME isolates the Figure 3 mechanism: PBPAIR with
// and without the probability-aware motion-vector penalty. A small MTU
// splits frames into several packets so losses damage *regions* rather
// than whole frames — the situation where avoiding likely-damaged
// references can matter at all (with whole-frame loss every candidate
// reference shares the same fate and the penalty is provably neutral).
func BenchmarkAblationProbME(b *testing.B) {
	run := func(lambda float64) float64 {
		planner, err := core.New(core.Config{
			Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.15, Lambda: lambda,
		})
		if err != nil {
			b.Fatal(err)
		}
		channel, err := network.NewUniformLoss(0.15, 31337)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiment.Run(experiment.Scenario{
			Name: "ablation-probme", Source: synth.New(synth.RegimeForeman),
			Frames: 30, SearchRange: 7, Planner: planner, Channel: channel,
			MTU: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.PSNR.Mean()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(0) // 0 selects the default λ
		without = run(-1)
	}
	b.ReportMetric(with, "probME_on_dB")
	b.ReportMetric(without, "probME_off_dB")
}

// BenchmarkAblationSimilarity compares the full update formula against
// the Formula 3 approximation (similarity disabled).
func BenchmarkAblationSimilarity(b *testing.B) {
	run := func(disable bool) (float64, float64) {
		planner, err := core.New(core.Config{
			Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1, DisableSimilarity: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiment.Run(experiment.Scenario{
			Name: "ablation-sim", Source: synth.New(synth.RegimeForeman),
			Frames: 30, SearchRange: 7, Planner: planner,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.IntraMBs.Mean(), float64(res.TotalBytes) / 1024
	}
	var onIntra, onKB, offIntra, offKB float64
	for i := 0; i < b.N; i++ {
		onIntra, onKB = run(false)
		offIntra, offKB = run(true)
	}
	b.ReportMetric(onIntra, "sim_on_intra")
	b.ReportMetric(onKB, "sim_on_KB")
	b.ReportMetric(offIntra, "sim_off_intra")
	b.ReportMetric(offKB, "sim_off_KB")
}

// BenchmarkAblationConcealment swaps the decoder's concealment
// strategy (the similarity-factor plug-in point of §3.1.3).
func BenchmarkAblationConcealment(b *testing.B) {
	cases := []struct {
		name string
		c    codec.Concealer
	}{
		{"copy", conceal.Copy{}},
		{"bma", conceal.BMA{}},
		{"spatial", conceal.Spatial{}},
		{"grey", conceal.Grey{}},
	}
	results := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, tc := range cases {
			planner, err := core.New(core.Config{
				Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1,
				SimilarityScale: conceal.SimilarityScaleFor(tc.c),
			})
			if err != nil {
				b.Fatal(err)
			}
			channel, err := network.NewUniformLoss(0.1, 2024)
			if err != nil {
				b.Fatal(err)
			}
			res, err := experiment.Run(experiment.Scenario{
				Name: "ablation-conceal", Source: synth.New(synth.RegimeForeman),
				Frames: 30, SearchRange: 7, Planner: planner,
				Channel: channel, Concealer: tc.c,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[tc.name] = res.PSNR.Mean()
		}
	}
	for name, psnr := range results {
		b.ReportMetric(psnr, name+"_dB")
	}
}

// BenchmarkAblationSearch measures the energy model's sensitivity to
// the ME strategy: full search versus three-step.
func BenchmarkAblationSearch(b *testing.B) {
	run := func(kind motion.SearchKind) (float64, float64) {
		res, err := experiment.Run(experiment.Scenario{
			Name: "ablation-search", Source: synth.New(synth.RegimeForeman),
			Frames: 30, SearchRange: 15, Search: kind,
			Planner: resilience.NewNone(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Joules, res.PSNR.Mean()
	}
	var fullJ, fullDB, tssJ, tssDB float64
	for i := 0; i < b.N; i++ {
		fullJ, fullDB = run(motion.FullSearch)
		tssJ, tssDB = run(motion.ThreeStep)
	}
	b.ReportMetric(fullJ, "full_J")
	b.ReportMetric(fullDB, "full_dB")
	b.ReportMetric(tssJ, "tss_J")
	b.ReportMetric(tssDB, "tss_dB")
}

// BenchmarkPropagation — E16: single-loss error-propagation profiles:
// peak PSNR gap, half-life and unrepaired residual per scheme (the
// mechanism behind every Figure 6 trace).
func BenchmarkPropagation(b *testing.B) {
	cases := []struct {
		name string
		mk   func() (codec.ModePlanner, error)
	}{
		{"NO", func() (codec.ModePlanner, error) { return resilience.NewNone(), nil }},
		{"GOP-8", func() (codec.ModePlanner, error) { return resilience.NewGOP(8) }},
		{"AIR-10", func() (codec.ModePlanner, error) { return resilience.NewAIR(10) }},
		{"PGOP-1", func() (codec.ModePlanner, error) { return resilience.NewPGOP(1, 11) }},
		{"PBPAIR", func() (codec.ModePlanner, error) {
			return core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.9, PLR: 0.1})
		}},
	}
	results := map[string]*experiment.PropagationResult{}
	for i := 0; i < b.N; i++ {
		for _, tc := range cases {
			res, err := experiment.Propagation(experiment.PropagationConfig{
				Frames: 30, Event: 8, SearchRange: 7, MakePlanner: tc.mk,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[tc.name] = res
		}
	}
	for name, r := range results {
		hl := float64(r.HalfLife)
		if r.HalfLife < 0 {
			hl = float64(len(r.GapDB)) // censored at window
		}
		b.ReportMetric(r.PeakGapDB, name+"_peak_dB")
		b.ReportMetric(hl, name+"_halflife")
		b.ReportMetric(r.ResidualDB, name+"_residual_dB")
	}
}

// BenchmarkRDCurves maps the rate–distortion frontier of NO vs PBPAIR
// (the quantified §4.3 trade-off: robustness is paid in rate).
func BenchmarkRDCurves(b *testing.B) {
	cfg := experiment.RDConfig{
		Regime:      synth.RegimeForeman,
		Frames:      10,
		SearchRange: 7,
		QPs:         []int{4, 8, 14, 22},
	}
	var gap float64
	var noCurve, pbCurve []experiment.RDPoint
	for i := 0; i < b.N; i++ {
		cfg.MakePlanner = func() (codec.ModePlanner, error) { return resilience.NewNone(), nil }
		var err error
		noCurve, err = experiment.RDCurve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.MakePlanner = func() (codec.ModePlanner, error) {
			return core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.9, PLR: 0.1})
		}
		pbCurve, err = experiment.RDCurve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gap, err = experiment.BDRateGap(noCurve, pbCurve)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range noCurve {
		b.ReportMetric(p.KBytes, fmt.Sprintf("NO_qp%d_KB", p.QP))
	}
	for _, p := range pbCurve {
		b.ReportMetric(p.KBytes, fmt.Sprintf("PBPAIR_qp%d_KB", p.QP))
	}
	b.ReportMetric(gap, "rate_overhead_x")
}

// BenchmarkAblationHalfPel isolates half-pixel motion: quality, bits
// and modelled energy with and without it, on content with true
// sub-pixel motion.
func BenchmarkAblationHalfPel(b *testing.B) {
	p := synth.DefaultParams(synth.RegimeGarden)
	p.PanX = 1 << 15 // 0.5 px/frame: pure half-pel motion
	src := synth.NewWithParams(p)
	run := func(halfPel bool) (db, kb, joules float64) {
		res, err := experiment.Run(experiment.Scenario{
			Name: "ablation-halfpel", Source: src,
			Frames: 20, SearchRange: 7, HalfPel: halfPel,
			Planner: resilience.NewNone(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.PSNR.Mean(), float64(res.TotalBytes) / 1024, res.Joules
	}
	var intDB, intKB, intJ, halfDB, halfKB, halfJ float64
	for i := 0; i < b.N; i++ {
		intDB, intKB, intJ = run(false)
		halfDB, halfKB, halfJ = run(true)
	}
	b.ReportMetric(intDB, "int_dB")
	b.ReportMetric(intKB, "int_KB")
	b.ReportMetric(intJ, "int_J")
	b.ReportMetric(halfDB, "half_dB")
	b.ReportMetric(halfKB, "half_KB")
	b.ReportMetric(halfJ, "half_J")
}

// BenchmarkExtensionFEC — §5 channel-coding cooperation: PBPAIR alone
// versus PBPAIR plus XOR-parity FEC (group of 4) at 10% uniform loss.
// FEC buys quality with parity bytes and latency; the metrics expose
// both sides of the trade.
func BenchmarkExtensionFEC(b *testing.B) {
	run := func(fecGroup int) (psnr, kb float64) {
		planner, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		channel, err := network.NewUniformLoss(0.1, 777)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiment.Run(experiment.Scenario{
			Name: "ext-fec", Source: synth.New(synth.RegimeForeman),
			Frames: 30, SearchRange: 7, Planner: planner,
			Channel: channel, FECGroup: fecGroup,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.PSNR.Mean(), float64(res.TotalBytes+res.FECBytes) / 1024
	}
	var plainDB, plainKB, fecDB, fecKB float64
	for i := 0; i < b.N; i++ {
		plainDB, plainKB = run(0)
		fecDB, fecKB = run(4)
	}
	b.ReportMetric(plainDB, "plain_dB")
	b.ReportMetric(plainKB, "plain_KB")
	b.ReportMetric(fecDB, "fec4_dB")
	b.ReportMetric(fecKB, "fec4_KB")
}

// BenchmarkExtensionDVS — §5 DVS/DFS cooperation: per-frame frequency
// scaling on top of each scheme. PBPAIR's lighter frames let the
// governor downshift, so its saving compounds quadratically with
// voltage.
func BenchmarkExtensionDVS(b *testing.B) {
	run := func(mk func() codec.ModePlanner) (fixedJ, dvsJ float64) {
		src := synth.New(synth.RegimeForeman)
		var tally, prev energy.Counters
		enc, err := codec.NewEncoder(codec.Config{
			Width: 176, Height: 144, QP: 8, SearchRange: 15,
			Planner: mk(), Counters: &tally,
		})
		if err != nil {
			b.Fatal(err)
		}
		gov, err := energy.NewGovernor(energy.IPAQ, energy.XScaleLevels, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		top := energy.XScaleLevels[len(energy.XScaleLevels)-1]
		for k := 0; k < 30; k++ {
			if _, err := enc.EncodeFrame(src.Frame(k)); err != nil {
				b.Fatal(err)
			}
			delta := tally.Sub(prev)
			prev = tally

			level, _ := gov.Select()
			dvsJ += gov.FrameEnergy(delta, level)
			fixedJ += gov.FrameEnergy(delta, top)
			gov.Observe(delta)
		}
		return fixedJ, dvsJ
	}
	var noFixed, noDVS, pbFixed, pbDVS float64
	for i := 0; i < b.N; i++ {
		noFixed, noDVS = run(func() codec.ModePlanner { return resilience.NewNone() })
		pbFixed, pbDVS = run(func() codec.ModePlanner {
			p, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.92, PLR: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			return p
		})
	}
	b.ReportMetric(noFixed, "NO_fixed_J")
	b.ReportMetric(noDVS, "NO_dvs_J")
	b.ReportMetric(pbFixed, "PBPAIR_fixed_J")
	b.ReportMetric(pbDVS, "PBPAIR_dvs_J")
}

// BenchmarkExtensionRateControl — the paper's independence claim: a
// TMN-style rate loop composed with PBPAIR converges on its bit budget
// while the refresh keeps running.
func BenchmarkExtensionRateControl(b *testing.B) {
	var meanBits, targetBits float64
	for i := 0; i < b.N; i++ {
		planner, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := rate.NewController(64000, 10, 8, 0)
		if err != nil {
			b.Fatal(err)
		}
		targetBits = ctrl.TargetBits()
		enc, err := codec.NewEncoder(codec.Config{
			Width: 176, Height: 144, QP: ctrl.QP(), SearchRange: 7, Planner: planner,
		})
		if err != nil {
			b.Fatal(err)
		}
		src := synth.New(synth.RegimeForeman)
		var tail float64
		const frames = 40
		for k := 0; k < frames; k++ {
			enc.SetQP(ctrl.QP())
			ef, err := enc.EncodeFrame(src.Frame(k))
			if err != nil {
				b.Fatal(err)
			}
			ctrl.Observe(ef.Bytes() * 8)
			if k >= frames/2 {
				tail += float64(ef.Bytes() * 8)
			}
		}
		meanBits = tail / float64(frames/2)
	}
	b.ReportMetric(targetBits, "target_bits_per_frame")
	b.ReportMetric(meanBits, "steady_bits_per_frame")
}

// BenchmarkEncodeFrame measures raw single-frame encode cost per
// scheme (the wall-clock proxy next to the energy model).
func BenchmarkEncodeFrame(b *testing.B) {
	cases := []struct {
		name string
		mk   func() codec.ModePlanner
	}{
		{"NO", func() codec.ModePlanner { return resilience.NewNone() }},
		{"PBPAIR", func() codec.ModePlanner {
			p, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			return p
		}},
	}
	src := synth.New(synth.RegimeForeman)
	clip := synth.Clip(src, 8)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			enc, err := codec.NewEncoder(codec.Config{
				Width: 176, Height: 144, QP: 8, SearchRange: 7, Planner: tc.mk(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncodeFrame(clip[i%len(clip)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeParallel measures the encoder's intra-frame sharding
// (codec.Config.Workers) at several pool sizes, with half-pel
// refinement and the PBPAIR planner enabled so both sharded phases —
// the SAD search and the refinement pass — carry real work. The output
// is bit-identical across sub-benchmarks (the golden and parallel
// tests pin that); only ns/op should move, and only on multi-core
// hosts (GOMAXPROCS caps the real concurrency).
func BenchmarkEncodeParallel(b *testing.B) {
	src := synth.New(synth.RegimeForeman)
	clip := synth.Clip(src, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			planner, err := core.New(core.Config{Rows: 9, Cols: 11, IntraTh: 0.85, PLR: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			enc, err := codec.NewEncoder(codec.Config{
				Width: 176, Height: 144, QP: 8, SearchRange: 15,
				HalfPel: true, Planner: planner, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.EncodeFrame(clip[i%len(clip)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepParallel measures the experiment fan-out: the same
// Intra_Th × PLR grid at several pool sizes. Grid points are
// independent pipelines, so wall-clock should scale down with workers
// until GOMAXPROCS or the grid size saturates; the resulting points
// (and their CSV) are byte-identical across sub-benchmarks.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiment.SweepConfig{
		Frames:      12,
		SearchRange: 7,
		IntraThs:    []float64{0, 0.8, 1},
		PLRs:        []float64{0.05, 0.2},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := cfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Sweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrame measures raw single-frame decode cost.
func BenchmarkDecodeFrame(b *testing.B) {
	src := synth.New(synth.RegimeForeman)
	enc, err := codec.NewEncoder(codec.Config{
		Width: 176, Height: 144, QP: 8, SearchRange: 7, Planner: resilience.NewNone(),
	})
	if err != nil {
		b.Fatal(err)
	}
	var payloads [][]byte
	for k := 0; k < 8; k++ {
		ef, err := enc.EncodeFrame(src.Frame(k))
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, ef.Data)
	}
	dec, err := codec.NewDecoder(176, 144)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeFrame(payloads[i%len(payloads)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentSensitivity — E18: the five schemes across all five
// synthetic regimes (beyond the paper's three), reporting PSNR per
// cell. Shows where each scheme's assumptions break (AIR on garden,
// PGOP's wasted sweep on hall).
func BenchmarkContentSensitivity(b *testing.B) {
	var rows []experiment.ContentRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.ContentTable(experiment.ContentConfig{
			Frames:      20,
			SearchRange: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgPSNR, r.Sequence+"/"+r.Scheme+"_dB")
	}
}

// BenchmarkFig5MultiCached — the two-phase pipeline's payoff: the
// Figure 5 experiment replicated across loss seeds with the bitstream
// cache on vs off. The encode phase (calibration probes included) is
// loss-independent, so with the cache every seed past the first reuses
// all 15 encodes and only re-simulates; uncached, every seed pays the
// full encode again. The sub-benchmark names carry the mode; the
// cached run also reports hit/miss counters observed through
// internal/obs, proving the counters are wired end to end.
func BenchmarkFig5MultiCached(b *testing.B) {
	seeds := []uint64{11, 22, 33, 44, 55}
	cfg := experiment.Fig5Config{
		Frames:      16,
		ProbeFrames: 8,
		SearchRange: 7,
		Workers:     1, // single worker: a pure encode-work comparison
	}
	runSeeds := func(b *testing.B, cfg experiment.Fig5Config) {
		for _, seed := range seeds {
			c := cfg
			c.Seed = seed
			if _, err := experiment.Fig5(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSeeds(b, cfg)
		}
	})
	b.Run("cached", func(b *testing.B) {
		var hits, misses float64
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			cache, err := bitcache.New(bitcache.Config{Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			c := cfg
			c.Cache = cache
			runSeeds(b, c)
			snap := reg.Snapshot()
			hits, misses = snap["bitcache.hits"], snap["bitcache.misses"]
		}
		b.ReportMetric(hits, "cache_hits")
		b.ReportMetric(misses, "cache_misses")
	})
}
