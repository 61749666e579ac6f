// pbpair-sweep runs the §4.3 / §4.4 operating-point sweeps: a grid of
// (Intra_Th, PLR) points reporting intra-MB rate, encoded size, energy
// (the resiliency-vs-energy trade-off) and PSNR / bad pixels (the
// resiliency-vs-quality trade-off). Output is an aligned table or CSV.
//
// Grid points are independent, so they fan out across -workers
// goroutines (default: GOMAXPROCS); the table and CSV are byte-
// identical for every worker count.
//
// Usage:
//
//	pbpair-sweep -regime foreman -frames 60
//	pbpair-sweep -csv -workers 8 > sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pbpair/internal/bitcache"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/experiment"
	"pbpair/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbpair-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	regime := flag.String("regime", "foreman", "sequence: akiyo, foreman, garden, hall or mobile")
	frames := flag.Int("frames", 60, "frames per grid point")
	qp := flag.Int("qp", 8, "quantiser parameter")
	thList := flag.String("intra-th", "0,0.2,0.4,0.6,0.8,0.9,0.95,1", "comma-separated Intra_Th grid")
	plrList := flag.String("plr", "0,0.05,0.1,0.2,0.3", "comma-separated PLR grid")
	device := flag.String("device", "ipaq", "energy profile: ipaq or zaurus")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	rd := flag.Bool("rd", false, "emit rate-distortion curves (QP sweep) instead of the Intra_Th x PLR grid")
	analytic := flag.Bool("analytic", false, "evaluate the grid with the closed-form engine (no channel simulation); unlocks the -loss axis and comma-separated -regime lists")
	lossList := flag.String("loss", "", "analytic mode: comma-separated channel loss rates, a grid axis independent of -plr (default: the -plr list)")
	trials := flag.Int("trials", 1, "channel realizations per grid point through the bit-packed batch engine; > 1 reports mean ± 95% CI (trial 0 is the single-channel run)")
	workers := flag.Int("workers", 0, "concurrent grid points (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
	cacheDir := flag.String("cache-dir", "", "bitstream cache spill directory (cross-process encode reuse)")
	cacheMB := flag.Int("cache-mb", 0, "in-memory bitstream cache budget in MiB; with -cache-dir unset, 0 disables the cache")
	flag.Parse()

	var cache *bitcache.Store
	if *cacheMB > 0 || *cacheDir != "" {
		var err error
		if cache, err = bitcache.New(bitcache.Config{MaxBytes: int64(*cacheMB) << 20, Dir: *cacheDir}); err != nil {
			return err
		}
		defer func() { fmt.Fprintln(os.Stderr, cache.Stats()) }()
	}
	ths, err := parseFloats(*thList)
	if err != nil {
		return fmt.Errorf("-intra-th: %w", err)
	}
	plrs, err := parseFloats(*plrList)
	if err != nil {
		return fmt.Errorf("-plr: %w", err)
	}
	profile := energy.IPAQ
	if *device == "zaurus" {
		profile = energy.Zaurus
	} else if *device != "ipaq" {
		return fmt.Errorf("unknown device %q", *device)
	}

	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", *trials)
	}
	if *trials > 1 && (*analytic || *rd) {
		return fmt.Errorf("-trials is a simulated-grid axis; it does not combine with -analytic or -rd")
	}
	if *analytic {
		return runAnalytic(analyticArgs{
			regimes: *regime, frames: *frames, qp: *qp,
			ths: ths, plrs: plrs, lossList: *lossList,
			profile: profile, workers: *workers, cache: cache, csv: *csv,
		})
	}
	if *lossList != "" {
		return fmt.Errorf("-loss is an analytic-mode axis (the simulator's channel rate is -plr); add -analytic")
	}

	r, err := regimeFor(*regime)
	if err != nil {
		return err
	}
	if *rd {
		return runRD(r, *frames, *workers, cache)
	}

	points, err := experiment.Sweep(experiment.SweepConfig{
		Frames:   *frames,
		QP:       *qp,
		IntraThs: ths,
		PLRs:     plrs,
		Regime:   r,
		Profile:  profile,
		Workers:  *workers,
		Trials:   *trials,
		Cache:    cache,
	})
	if err != nil {
		return err
	}

	if *csv {
		fmt.Print(experiment.SweepCSV(points))
		return nil
	}

	if *trials > 1 {
		tb := experiment.NewTable(
			fmt.Sprintf("PBPAIR operating points (§4.3/§4.4): %s, %d frames, %s, %d trials",
				*regime, *frames, profile.Name, *trials),
			"Intra_Th", "PLR", "intra/frame", "size(KB)", "energy(J)", "PSNR(dB)", "±CI95", "bad px", "±CI95")
		for _, p := range points {
			tb.AddRow(
				fmt.Sprintf("%.2f", p.IntraTh),
				fmt.Sprintf("%.2f", p.PLR),
				fmt.Sprintf("%.1f", p.IntraMBsPerFrame),
				fmt.Sprintf("%.1f", p.FileKB),
				fmt.Sprintf("%.3f", p.EnergyJ),
				fmt.Sprintf("%.2f", p.AvgPSNR),
				fmt.Sprintf("%.2f", p.PSNRCI95),
				fmt.Sprintf("%d", p.BadPixels),
				fmt.Sprintf("%.1f", p.BadPixelsCI95),
			)
		}
		fmt.Print(tb.String())
		return nil
	}

	tb := experiment.NewTable(
		fmt.Sprintf("PBPAIR operating points (§4.3/§4.4): %s, %d frames, %s", *regime, *frames, profile.Name),
		"Intra_Th", "PLR", "intra/frame", "size(KB)", "energy(J)", "PSNR(dB)", "bad px")
	for _, p := range points {
		tb.AddRow(
			fmt.Sprintf("%.2f", p.IntraTh),
			fmt.Sprintf("%.2f", p.PLR),
			fmt.Sprintf("%.1f", p.IntraMBsPerFrame),
			fmt.Sprintf("%.1f", p.FileKB),
			fmt.Sprintf("%.3f", p.EnergyJ),
			fmt.Sprintf("%.2f", p.AvgPSNR),
			fmt.Sprintf("%d", p.BadPixels),
		)
	}
	fmt.Print(tb.String())
	return nil
}

// runRD prints rate-distortion curves for NO and PBPAIR plus the mean
// rate overhead at equal quality. Both curves go through SchemeSpec,
// so with a cache (especially a -cache-dir spill) repeated RD runs
// reuse every QP point's encode.
func runRD(r synth.Regime, frames, workers int, cache *bitcache.Store) error {
	cfg := experiment.RDConfig{Regime: r, Frames: frames, Workers: workers, Cache: cache}
	cfg.Scheme = experiment.SchemeNO()
	noCurve, err := experiment.RDCurve(cfg)
	if err != nil {
		return err
	}
	cfg.Scheme = experiment.SchemePBPAIR(core.Config{Rows: 9, Cols: 11, IntraTh: 0.9, PLR: 0.1})
	pbCurve, err := experiment.RDCurve(cfg)
	if err != nil {
		return err
	}
	tb := experiment.NewTable(
		fmt.Sprintf("Rate-distortion, %s, %d frames (loss-free)", r, frames),
		"QP", "NO KB", "NO dB", "PBPAIR KB", "PBPAIR dB")
	for i := range noCurve {
		tb.AddRow(
			fmt.Sprintf("%d", noCurve[i].QP),
			fmt.Sprintf("%.1f", noCurve[i].KBytes),
			fmt.Sprintf("%.2f", noCurve[i].PSNR),
			fmt.Sprintf("%.1f", pbCurve[i].KBytes),
			fmt.Sprintf("%.2f", pbCurve[i].PSNR))
	}
	fmt.Print(tb.String())
	if gap, err := experiment.BDRateGap(noCurve, pbCurve); err == nil {
		fmt.Printf("PBPAIR rate overhead at equal quality: %.2fx\n", gap)
	}
	return nil
}

type analyticArgs struct {
	regimes  string
	frames   int
	qp       int
	ths      []float64
	plrs     []float64
	lossList string
	profile  energy.Profile
	workers  int
	cache    *bitcache.Store
	csv      bool
}

// runAnalytic evaluates the four-axis closed-form grid: Intra_Th ×
// encoder α (-plr) × channel loss rate (-loss) × content (-regime
// accepts a comma-separated list here). One encode+extraction is paid
// per (regime, α, Intra_Th); each loss point after that is pure
// arithmetic, which is what makes the extra axes affordable.
func runAnalytic(a analyticArgs) error {
	var regimes []synth.Regime
	for _, name := range strings.Split(a.regimes, ",") {
		r, err := regimeFor(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		regimes = append(regimes, r)
	}
	losses := a.plrs
	if a.lossList != "" {
		var err error
		if losses, err = parseFloats(a.lossList); err != nil {
			return fmt.Errorf("-loss: %w", err)
		}
	}

	points, err := experiment.AnalyticSweep(experiment.AnalyticSweepConfig{
		Frames:    a.frames,
		QP:        a.qp,
		IntraThs:  a.ths,
		PLRs:      a.plrs,
		LossRates: losses,
		Regimes:   regimes,
		Profile:   a.profile,
		Workers:   a.workers,
		Cache:     a.cache,
	})
	if err != nil {
		return err
	}

	if a.csv {
		fmt.Print(experiment.AnalyticSweepCSV(points))
		return nil
	}
	tb := experiment.NewTable(
		fmt.Sprintf("PBPAIR analytic operating points: %s, %d frames, %s", a.regimes, a.frames, a.profile.Name),
		"regime", "Intra_Th", "PLR", "loss", "intra/frame", "size(KB)", "energy(J)", "E[PSNR](dB)", "E[bad px]")
	for _, p := range points {
		tb.AddRow(
			p.Regime,
			fmt.Sprintf("%.2f", p.IntraTh),
			fmt.Sprintf("%.2f", p.PLR),
			fmt.Sprintf("%.2f", p.LossRate),
			fmt.Sprintf("%.1f", p.IntraMBsPerFrame),
			fmt.Sprintf("%.1f", p.FileKB),
			fmt.Sprintf("%.3f", p.EnergyJ),
			fmt.Sprintf("%.2f", p.ExpPSNR),
			fmt.Sprintf("%.0f", p.ExpBadPixels),
		)
	}
	fmt.Print(tb.String())
	return nil
}

func regimeFor(name string) (synth.Regime, error) {
	switch name {
	case "akiyo":
		return synth.RegimeAkiyo, nil
	case "foreman":
		return synth.RegimeForeman, nil
	case "garden":
		return synth.RegimeGarden, nil
	case "hall":
		return synth.RegimeHall, nil
	case "mobile":
		return synth.RegimeMobile, nil
	default:
		return 0, fmt.Errorf("unknown regime %q", name)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
