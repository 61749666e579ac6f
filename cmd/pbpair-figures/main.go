// pbpair-figures regenerates the paper's evaluation figures as text
// tables and CSV series (DESIGN.md experiments E1–E11, plus the
// multi-trial statistics and the E18 content-sensitivity study).
//
// Usage:
//
//	pbpair-figures -fig 5            # all four Figure 5 panels
//	pbpair-figures -fig 6a           # per-frame PSNR traces
//	pbpair-figures -fig headline     # §1/§5 energy-saving percentages
//	pbpair-figures -fig devices      # iPAQ vs Zaurus (§4.1)
//	pbpair-figures -fig recovery     # E11 recovery speed
//	pbpair-figures -fig stats -trials 1000   # Figure 5 with error bars
//	pbpair-figures -fig 5 -analytic  # closed-form Figure 5
//	pbpair-figures -fig content      # E18 five-regime study
//	pbpair-figures -fig 5 -frames 300   # paper-scale run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pbpair/internal/bitcache"
	"pbpair/internal/energy"
	"pbpair/internal/experiment"
)

// cache is the process-wide bitstream cache (nil when disabled). Every
// experiment below shares it, so figures that reuse the same encodes
// (e.g. -fig all, or repeated runs with -cache-dir) pay for them once.
var cache *bitcache.Store

// decWorkers is the process-wide decoder worker count from
// -dec-workers, shared by the Figure 6 and content simulations.
var decWorkers int

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pbpair-figures:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "5", "figure to regenerate: 5, 5a, 5b, 5c, 5d, 6, 6a, 6b, headline, devices, recovery, stats, content, all")
	frames := flag.Int("frames", 120, "frames per run (paper: 300 for Fig 5, 50 for Fig 6)")
	plr := flag.Float64("plr", 0.1, "packet loss rate for Fig 5")
	analytic := flag.Bool("analytic", false, "evaluate Figure 5 with the closed-form engine (expected metrics under i.i.d. loss at -plr, no channel simulation); does not combine with -trials > 1")
	trials := flag.Int("trials", 1, "Figure 5 channel realizations per cell through the bit-packed batch engine (trial 0 reproduces the single-run figure); -fig stats needs at least 2")
	workers := flag.Int("workers", 0, "concurrent experiment runs (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
	decWorkersFlag := flag.Int("dec-workers", 1, "decoder GOB-row reconstruction goroutines per Fig 6 / content simulation (1 = serial); output is identical for every value")
	cacheDir := flag.String("cache-dir", "", "bitstream cache spill directory (cross-process encode reuse)")
	cacheMB := flag.Int("cache-mb", 0, "in-memory bitstream cache budget in MiB; with -cache-dir unset, 0 disables the cache")
	flag.Parse()
	decWorkers = *decWorkersFlag

	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", *trials)
	}
	if *analytic && *trials > 1 {
		return fmt.Errorf("-analytic samples no channel trials; it does not combine with -trials %d", *trials)
	}
	switch *fig {
	case "5", "5a", "5b", "5c", "5d", "headline", "devices", "all":
	case "stats":
		if *trials < 2 {
			return fmt.Errorf("-fig stats reports the spread across channel trials: needs -trials >= 2, got %d", *trials)
		}
	case "6", "6a", "6b", "recovery", "content":
		if *analytic || *trials > 1 {
			return fmt.Errorf("-analytic and -trials apply to the Figure 5 views (5, 5a-5d, stats, headline, devices, all), not -fig %s", *fig)
		}
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}

	if *cacheMB > 0 || *cacheDir != "" {
		var err error
		cache, err = bitcache.New(bitcache.Config{MaxBytes: int64(*cacheMB) << 20, Dir: *cacheDir})
		if err != nil {
			return err
		}
		defer func() { fmt.Fprintln(os.Stderr, cache.Stats()) }()
	}

	switch *fig {
	case "6", "6a", "6b":
		return runFig6(*fig, *frames, *workers)
	case "recovery":
		return runRecovery(*frames, *workers)
	case "content":
		return runContent(*frames, *plr, *workers)
	}

	// Every other view renders the same Figure 5 rows.
	fig5 := experiment.Fig5Config{Frames: *frames, PLR: *plr, Trials: *trials, Workers: *workers, Cache: cache}
	if *analytic {
		fig5.Engine = experiment.EngineAnalytic
	}
	rows, err := experiment.Fig5(fig5)
	if err != nil {
		return err
	}
	switch *fig {
	case "stats":
		printStats(rows, fig5)
	case "headline":
		printHeadline(rows)
	case "devices":
		printDevices(rows)
	case "all":
		return printAll(rows, fig5)
	default:
		printFig5(*fig, rows, fig5)
	}
	return nil
}

// printAll renders every Figure 5 view from one set of rows, then
// regenerates Figure 6 and its recovery table (the headline and device
// tables are derived views, not reruns).
func printAll(rows []experiment.Fig5Row, fig5 experiment.Fig5Config) error {
	printFig5("5", rows, fig5)
	fmt.Println()
	printHeadline(rows)
	fmt.Println()
	printDevices(rows)
	fmt.Println()

	fig6Frames := fig5.Frames
	if fig6Frames > 50 {
		fig6Frames = 50
	}
	cfg := experiment.Fig6Config{Frames: fig6Frames, Workers: fig5.Workers, DecoderWorkers: decWorkers, Cache: cache}.WithDefaults()
	series, err := experiment.Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("loss events at frames %v\n", cfg.LossEvents)
	fmt.Println("Figure 6(a): per-frame PSNR (dB)")
	for _, s := range series {
		fmt.Println(experiment.FormatSeries(s.Scheme, s.PSNR, "%.2f"))
	}
	fmt.Println("Figure 6(b): per-frame encoded size (bytes)")
	for _, s := range series {
		fmt.Println(experiment.FormatSeries(s.Scheme, s.FrameBytes, "%.0f"))
	}
	fmt.Println()
	printRecovery(series, cfg)
	return nil
}

// runContent prints the E18 cross-content study: the five schemes over
// all five synthetic regimes.
func runContent(frames int, plr float64, workers int) error {
	rows, err := experiment.ContentTable(experiment.ContentConfig{Frames: frames, PLR: plr, Workers: workers, DecoderWorkers: decWorkers, Cache: cache})
	if err != nil {
		return err
	}
	tb := experiment.NewTable(
		fmt.Sprintf("E18: content sensitivity, %d frames, PLR=%.0f%%", frames, plr*100),
		"sequence", "scheme", "PSNR(dB)", "bad px", "size(KB)", "energy(J)", "intra/frame")
	for _, r := range rows {
		tb.AddRow(r.Sequence, r.Scheme,
			fmt.Sprintf("%.2f", r.AvgPSNR),
			fmt.Sprintf("%d", r.BadPixels),
			fmt.Sprintf("%.1f", r.FileKB),
			fmt.Sprintf("%.3f", r.EnergyJ),
			fmt.Sprintf("%.1f", r.IntraRate))
	}
	fmt.Print(tb.String())
	return nil
}

// printStats is Figure 5 with error bars: quality cells as mean ±
// stddev and 95% confidence interval over the -trials channel
// realizations of the bit-packed batch engine.
func printStats(rows []experiment.Fig5Row, fig5 experiment.Fig5Config) {
	tb := experiment.NewTable(
		fmt.Sprintf("Figure 5 across %d channel trials (batch engine, mean ± stddev), PLR=%.0f%%", fig5.Trials, fig5.PLR*100),
		"sequence", "scheme", "PSNR(dB)", "±CI95", "bad px", "±CI95", "size(KB)", "energy(J)")
	for _, r := range rows {
		tb.AddRow(r.Sequence, r.Scheme,
			fmt.Sprintf("%.2f ± %.2f", r.AvgPSNR, r.PSNRStd),
			fmt.Sprintf("%.2f", r.PSNRCI95),
			fmt.Sprintf("%.0f ± %.0f", r.BadPixels, r.BadPixStd),
			fmt.Sprintf("%.0f", r.BadPixCI95),
			fmt.Sprintf("%.1f", r.FileKB),
			fmt.Sprintf("%.3f", r.EnergyJ))
	}
	fmt.Print(tb.String())
}

// printFig5 prints the requested Figure 5 panels ("5" for all four)
// and the calibrated PBPAIR thresholds.
func printFig5(which string, rows []experiment.Fig5Row, fig5 experiment.Fig5Config) {
	if fig5.Engine == experiment.EngineAnalytic {
		fmt.Printf("closed-form expectations (no channel simulation), i.i.d. loss %.0f%%\n", fig5.PLR*100)
	}
	printFig5Panel(which, rows, fig5.PLR)
	for _, r := range rows {
		if r.Scheme == "PBPAIR" {
			fmt.Printf("calibrated Intra_Th for %s: %.3f\n", r.Sequence, r.IntraTh)
		}
	}
}

func printFig5Panel(which string, rows []experiment.Fig5Row, plr float64) {
	panels := []struct {
		key   string
		title string
		cell  func(experiment.Fig5Row) string
	}{
		{"5a", fmt.Sprintf("Figure 5(a): average PSNR (dB), PLR=%.0f%%", plr*100),
			func(r experiment.Fig5Row) string { return fmt.Sprintf("%.2f", r.AvgPSNR) }},
		{"5b", fmt.Sprintf("Figure 5(b): bad pixels (total), PLR=%.0f%%", plr*100),
			func(r experiment.Fig5Row) string { return fmt.Sprintf("%.0f", r.BadPixels) }},
		{"5c", "Figure 5(c): encoded file size (KB)",
			func(r experiment.Fig5Row) string { return fmt.Sprintf("%.1f", r.FileKB) }},
		{"5d", "Figure 5(d): encoding energy (J, iPAQ)",
			func(r experiment.Fig5Row) string { return fmt.Sprintf("%.3f", r.EnergyJ) }},
	}
	for _, p := range panels {
		if which != "5" && which != p.key {
			continue
		}
		fmt.Print(pivotTable(p.title, rows, p.cell).String())
		fmt.Println()
	}
}

// pivotTable renders Fig5 rows as sequences × schemes.
func pivotTable(title string, rows []experiment.Fig5Row, cell func(experiment.Fig5Row) string) *experiment.Table {
	schemes := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Scheme] {
			seen[r.Scheme] = true
			schemes = append(schemes, r.Scheme)
		}
	}
	headers := append([]string{"sequence"}, schemes...)
	tb := experiment.NewTable(title, headers...)
	seqs := []string{}
	seenSeq := map[string]bool{}
	for _, r := range rows {
		if !seenSeq[r.Sequence] {
			seenSeq[r.Sequence] = true
			seqs = append(seqs, r.Sequence)
		}
	}
	for _, seq := range seqs {
		cells := []string{seq}
		for _, scheme := range schemes {
			for _, r := range rows {
				if r.Sequence == seq && r.Scheme == scheme {
					cells = append(cells, cell(r))
					break
				}
			}
		}
		tb.AddRow(cells...)
	}
	return tb
}

func runFig6(which string, frames, workers int) error {
	if frames > 50 {
		frames = 50 // the paper's Figure 6 window
	}
	cfg := experiment.Fig6Config{Frames: frames, Workers: workers, DecoderWorkers: decWorkers, Cache: cache}
	series, err := experiment.Fig6(cfg)
	if err != nil {
		return err
	}
	cfg = experiment.Fig6Config{Frames: frames}.WithDefaults()
	fmt.Printf("loss events at frames %v\n", cfg.LossEvents)
	if which == "6" || which == "6a" {
		fmt.Println("Figure 6(a): per-frame PSNR (dB)")
		for _, s := range series {
			fmt.Println(experiment.FormatSeries(s.Scheme, s.PSNR, "%.2f"))
		}
	}
	if which == "6" || which == "6b" {
		fmt.Println("Figure 6(b): per-frame encoded size (bytes)")
		for _, s := range series {
			fmt.Println(experiment.FormatSeries(s.Scheme, s.FrameBytes, "%.0f"))
		}
	}
	return nil
}

func printHeadline(rows []experiment.Fig5Row) {
	savings := experiment.HeadlineSavings(rows)
	tb := experiment.NewTable(
		"Headline: PBPAIR energy saving vs. other schemes (paper: AIR 34%, GOP 24%, PGOP 17%)",
		"scheme", "saving")
	names := make([]string, 0, len(savings))
	for name := range savings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb.AddRow(name, fmt.Sprintf("%.1f%%", savings[name]*100))
	}
	fmt.Print(tb.String())
}

func printDevices(rows []experiment.Fig5Row) {
	tb := experiment.NewTable(
		"Encoding energy by device (§4.1): same work tally priced per profile",
		"sequence", "scheme", "iPAQ (J)", "Zaurus (J)")
	for _, r := range rows {
		tb.AddRow(r.Sequence, r.Scheme,
			fmt.Sprintf("%.3f", energy.IPAQ.Joules(r.Counters)),
			fmt.Sprintf("%.3f", energy.Zaurus.Joules(r.Counters)))
	}
	fmt.Print(tb.String())
}

func runRecovery(frames, workers int) error {
	if frames > 50 {
		frames = 50
	}
	series, err := experiment.Fig6(experiment.Fig6Config{Frames: frames, Workers: workers, DecoderWorkers: decWorkers, Cache: cache})
	if err != nil {
		return err
	}
	printRecovery(series, experiment.Fig6Config{Frames: frames}.WithDefaults())
	return nil
}

func printRecovery(series []experiment.Fig6Series, cfg experiment.Fig6Config) {
	headers := []string{"scheme"}
	for _, ev := range cfg.LossEvents {
		headers = append(headers, fmt.Sprintf("e@%d", ev))
	}
	tb := experiment.NewTable(
		"E11: frames to recover within 1 dB of loss-free PSNR (-1 = not within window)",
		headers...)
	for _, s := range series {
		cells := []string{s.Scheme}
		for _, r := range s.Recovery {
			cells = append(cells, fmt.Sprintf("%d", r))
		}
		tb.AddRow(cells...)
	}
	fmt.Print(tb.String())
}
