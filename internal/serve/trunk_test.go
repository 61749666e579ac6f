package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// privateEncode encodes a stream the way a lineage that never shared
// anything would: fresh encode state, the given per-frame knobs, the
// server's codec and packetiser settings. It returns the packets per
// frame, the total intra MB count and the modelled encode energy.
func privateEncode(t *testing.T, cfg Config, h hello, trace []TracePoint) (map[int][]network.Packet, int64, float64) {
	t.Helper()
	cfg = cfg.withDefaults()
	l := &lineage{key: keyOf(h), src: synth.New(h.Regime)}
	if err := l.restore(&cfg, nil); err != nil {
		t.Fatal(err)
	}
	out := make(map[int][]network.Packet)
	var intra int64
	for f, tp := range trace {
		if tp.Frame != f {
			t.Fatalf("trace point %d is frame %d", f, tp.Frame)
		}
		pkts, n, err := l.encodeFrame(f, lineageKnobs{plr: tp.Alpha, th: tp.IntraTh})
		if err != nil {
			t.Fatal(err)
		}
		out[f] = pkts
		intra += int64(n)
	}
	return out, intra, cfg.Profile.Joules(l.counters)
}

// summaryByID finds a finished session's summary.
func summaryByID(t *testing.T, srv *Server, id uint32) SessionSummary {
	t.Helper()
	for _, s := range srv.Summaries() {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("no summary for session %d", id)
	return SessionSummary{}
}

// firstDiverged returns the first frame whose applied knobs left
// (0, 0), or -1.
func firstDiverged(trace []TracePoint) int {
	for _, tp := range trace {
		if tp.Alpha != 0 || tp.IntraTh != 0 {
			return tp.Frame
		}
	}
	return -1
}

// TestTrunkFollowerDivergesLikePrivateEncode is the materialisation
// proof. A founder streams each cohort at (0, 0) and fills its trunk
// log; two later sessions of the same cohort, gathered by the cohort
// window into one follower lineage, follow the log until a loss report
// moves their knobs off (0, 0) at frame j — one right after a
// checkpoint frame (restore, no replay), one two frames past it
// (restore plus replay). The first divergence forks the shared
// follower, which is materialised once and cloned for the other group.
// Each follower's stream must be byte-identical to a private encode of
// its own applied knob trajectory, and its SessionSummary's books must
// match that encode. Plain, FEC and interleaved cohorts all run.
func TestTrunkFollowerDivergesLikePrivateEncode(t *testing.T) {
	const frames = 12
	cohorts := []hello{
		{Frames: frames, Regime: synth.RegimeForeman, QP: 8},
		{Frames: frames, Regime: synth.RegimeForeman, QP: 8, FECGroup: 3},
		{Frames: frames, Regime: synth.RegimeAkiyo, QP: 10, Interleave: 2},
	}
	// Reports observed at frame f are applied from frame f+1: j = 4
	// follows checkpoint frame 3 directly, j = 6 replays frames 4–5.
	// Each cohort gets its own server, and the frame interval leaves
	// room for a founder plus two private encodes per frame even on one
	// core under the race detector, so reports land before the next
	// dispatch.
	reportAt := []int{3, 5}
	onCheckpoint, offCheckpoint, replayed := 0, 0, 0.0
	for _, h := range cohorts {
		cfg := Config{
			Addr:          "127.0.0.1:0",
			MaxSessions:   8,
			FrameInterval: 80 * time.Millisecond,
			CohortWindow:  60 * time.Millisecond,
			QueueFrames:   64,
		}
		var logMu sync.Mutex
		dependentForks := 0
		cfg.Logf = func(format string, args ...any) {
			if strings.Contains(format, "dependent lineages") {
				logMu.Lock()
				dependentForks++
				logMu.Unlock()
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type follower struct {
			id   uint32
			pkts map[int][]network.Packet
			err  error
		}
		var mu sync.Mutex
		var followers []follower
		var founderErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := rawStreamHello(srv.Addr().String(), h)
			mu.Lock()
			founderErr = err
			mu.Unlock()
		}()
		// By the time the followers arrive the log is several frames
		// ahead of them.
		time.Sleep(cfg.CohortWindow + 4*cfg.FrameInterval)
		// The earlier report goes to the older session, which keeps the
		// shared follower lineage when it forks: the lineage materialises
		// for its own knobs and clones trunk state for the quiet group.
		for _, f := range reportAt {
			if f != reportAt[0] {
				time.Sleep(10 * time.Millisecond)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, pkts, err := reportingStreamHello(srv.Addr().String(), h, map[int]float64{f: 0.2})
				mu.Lock()
				followers = append(followers, follower{id, pkts, err})
				mu.Unlock()
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if founderErr != nil {
			t.Fatalf("founder stream: %v", founderErr)
		}

		for _, f := range followers {
			if f.err != nil {
				t.Fatalf("follower stream: %v", f.err)
			}
			sum := summaryByID(t, srv, f.id)
			if sum.Err != "" || len(sum.Trace) != frames {
				t.Fatalf("session %d: err %q, %d trace points", f.id, sum.Err, len(sum.Trace))
			}
			j := firstDiverged(sum.Trace)
			if j < 1 {
				t.Fatalf("session %d never diverged from (0, 0) (j = %d)", f.id, j)
			}
			if isCheckpointFrame(j - 1) {
				onCheckpoint++
			} else {
				offCheckpoint++
			}
			want, intra, joules := privateEncode(t, cfg, h, sum.Trace)
			wh, err := frameHashes(frames, want)
			if err != nil {
				t.Fatal(err)
			}
			gh, err := frameHashes(frames, f.pkts)
			if err != nil {
				t.Fatalf("session %d: %v", f.id, err)
			}
			for k := range wh {
				if wh[k] != gh[k] {
					t.Fatalf("session %d (fec %d, interleave %d, diverged at %d): frame %d differs from a private encode",
						f.id, h.FECGroup, h.Interleave, j, k)
				}
			}
			if sum.IntraMBs != intra || sum.EnergyJoules != joules {
				t.Errorf("session %d books: intra %d energy %v, private encode %d / %v",
					f.id, sum.IntraMBs, sum.EnergyJoules, intra, joules)
			}
		}
		snap := srv.Registry().Snapshot()
		if snap["server.trunk_hits"] < 1 {
			t.Errorf("fec %d interleave %d: no follower was ever served from the trunk log", h.FECGroup, h.Interleave)
		}
		if snap["server.lineage_forks"] < 1 {
			t.Errorf("fec %d interleave %d: the followers never shared a lineage", h.FECGroup, h.Interleave)
		}
		logMu.Lock()
		if dependentForks < 1 {
			t.Errorf("fec %d interleave %d: the shared follower fork did not materialise once for a dependent", h.FECGroup, h.Interleave)
		}
		logMu.Unlock()
		if snap["server.trunk_checkpoints"] != 0 {
			t.Errorf("server.trunk_checkpoints = %v after the cohort emptied", snap["server.trunk_checkpoints"])
		}
		replayed += snap["server.trunk_replay_frames"]
	}
	if onCheckpoint == 0 || offCheckpoint == 0 {
		t.Errorf("divergence frames: %d right after a checkpoint, %d past one; want both", onCheckpoint, offCheckpoint)
	}
	if replayed < 1 {
		t.Error("no follower materialisation replayed a frame")
	}
}

// TestTrunkFollowerByteIdentical pins that a follower of an FEC or
// interleaved cohort — served from the log for every frame it can be —
// receives exactly its founder's stream and books.
func TestTrunkFollowerByteIdentical(t *testing.T) {
	const frames = 12
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   8,
		FrameInterval: 20 * time.Millisecond,
		QueueFrames:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []hello{
		{Frames: frames, Regime: synth.RegimeGarden, QP: 8, FECGroup: 2},
		{Frames: frames, Regime: synth.RegimeForeman, QP: 12, Interleave: 3},
	} {
		type run struct {
			pkts map[int][]network.Packet
			err  error
		}
		runs := make(chan run, 2)
		stream := func() {
			pkts, err := rawStreamHello(srv.Addr().String(), h)
			runs <- run{pkts, err}
		}
		go stream()
		time.Sleep(100 * time.Millisecond)
		go stream()
		var hashes [][]string
		for i := 0; i < 2; i++ {
			r := <-runs
			if r.err != nil {
				t.Fatal(r.err)
			}
			hs, err := frameHashes(frames, r.pkts)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, hs)
		}
		for f := range hashes[0] {
			if hashes[0][f] != hashes[1][f] {
				t.Fatalf("fec %d interleave %d: frame %d differs between founder and follower", h.FECGroup, h.Interleave, f)
			}
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := srv.Registry().Snapshot()
	if snap["server.trunk_hits"] < 1 {
		t.Error("the late sessions were never served from the trunk log")
	}
	// The cohorts ran one after the other, founder first: summaries
	// pair up in finishing order.
	sums := srv.Summaries()
	for i := 0; i+1 < len(sums); i += 2 {
		a, b := sums[i], sums[i+1]
		if a.IntraMBs != b.IntraMBs || a.EnergyJoules != b.EnergyJoules || fmt.Sprint(a.Trace) != fmt.Sprint(b.Trace) {
			t.Errorf("sessions %d and %d: books differ (intra %d/%d, energy %v/%v)",
				a.ID, b.ID, a.IntraMBs, b.IntraMBs, a.EnergyJoules, b.EnergyJoules)
		}
	}
}

// TestTrunkCheckpointCapAndFree pins the trunk log's memory bound. With
// MaxSessions = 2 the log may hold two checkpoints (after frames 3 and
// 7); the checkpoint due after frame 11 would pass the cap, so the log
// freezes at 11 entries. A follower that reaches the frozen end
// materialises from the last checkpoint — replaying frames 8–10 — and
// encodes privately from there, still byte-identical to its founder.
// Once the cohort empties the log and its checkpoints are released.
func TestTrunkCheckpointCapAndFree(t *testing.T) {
	const frames = 20
	// The interval leaves the founder's encode room even on one core
	// under the race detector: a founder that fell behind its pacing
	// would let the follower (whose trunk hits cost no encode) catch up
	// and join it before the frozen end this test is about.
	const interval = 50 * time.Millisecond
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   2,
		FrameInterval: interval,
		QueueFrames:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Watch the checkpoint gauge for the whole run.
	stop := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		max := 0.0
		for {
			select {
			case <-stop:
				peak <- max
				return
			case <-time.After(2 * time.Millisecond):
			}
			max = math.Max(max, srv.Registry().Snapshot()["server.trunk_checkpoints"])
		}
	}()

	type run struct {
		hashes []string
		err    error
	}
	runs := make(chan run, 2)
	stream := func() {
		hs, err := hashedStream(srv.Addr().String(), frames)
		runs <- run{hs, err}
	}
	go stream()
	time.Sleep(4 * interval)
	go stream()
	var got [][]string
	for i := 0; i < 2; i++ {
		r := <-runs
		if r.err != nil {
			t.Fatal(r.err)
		}
		got = append(got, r.hashes)
	}
	// Let the scheduler observe the emptied cohort before stopping it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Snapshot()["server.trunk_checkpoints"] != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	maxCkpts := <-peak
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for f := range got[0] {
		if got[0][f] != got[1][f] {
			t.Fatalf("frame %d differs between founder and follower", f)
		}
	}
	if maxCkpts > 2 {
		t.Errorf("trunk checkpoints peaked at %v, cap is MaxSessions = 2", maxCkpts)
	}
	snap := srv.Registry().Snapshot()
	if snap["server.trunk_hits"] < 1 {
		t.Error("the follower was never served from the trunk log")
	}
	if r := snap["server.trunk_replay_frames"]; r < 1 || r > trunkCheckpointEvery-1 {
		t.Errorf("server.trunk_replay_frames = %v, want one materialisation of 1..%d frames", r, trunkCheckpointEvery-1)
	}
	if snap["server.trunk_checkpoints"] != 0 {
		t.Errorf("server.trunk_checkpoints = %v after the cohort emptied", snap["server.trunk_checkpoints"])
	}
	// The scheduler goroutine has exited: its state is safe to inspect.
	if n := len(srv.sched.trunks); n != 0 || srv.sched.checkpoints != 0 {
		t.Errorf("%d trunk logs and %d checkpoints outlived their cohort", n, srv.sched.checkpoints)
	}
}
