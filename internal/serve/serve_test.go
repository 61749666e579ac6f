package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pbpair/internal/codec"
	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// waitGoroutines polls until the goroutine count settles back to at
// most want, failing the test otherwise. A couple of runtime-internal
// goroutines (netpoll, timer) may appear once per process; the slack
// absorbs them.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, want <= %d\n%s", n, want, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// meanWindow averages trace fields over points [lo, hi), skipping
// frames encoded before any feedback arrived (α̂ still exactly 0):
// IntraTh is discontinuous at α=0 (0 there, ≈1 just above), so mixing
// pre-feedback points into a window mean would be meaningless.
func meanWindow(trace []TracePoint, lo, hi int) (alpha, th float64, n int) {
	for _, p := range trace {
		if p.Frame >= lo && p.Frame < hi && p.Alpha > 0 {
			alpha += p.Alpha
			th += p.IntraTh
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return alpha / float64(n), th / float64(n), n
}

// runSoak drives sessions concurrent clients against one server, each
// with a seeded loss step at frame stepAt, and checks the closed loop
// end to end: clean finishes, feedback consumed, α̂ tracking the
// injected loss, Intra_Th retuned in the controller's direction
// (higher α̂ ⇒ lower threshold, holding the refresh interval), no
// goroutine leaks, clean shutdown.
func runSoak(t *testing.T, sessions, frames, stepAt int, interval time.Duration) {
	t.Helper()
	before := runtime.NumGoroutine()

	// Small MTU and a gentle estimator weight keep the statistics
	// honest: each report then covers ~16 packets instead of ~5, so a
	// report's binomial noise (σ ≈ √(p(1−p)/n)) stays well inside the
	// assertion margins below. The frame interval must comfortably
	// exceed sessions × encode-time so pacing binds even on one core —
	// otherwise the encoders free-run, the receiver goroutines starve,
	// and feedback arrives in bursts that lag by tens of frames.
	srv, err := New(Config{
		Addr:            "127.0.0.1:0",
		MaxSessions:     sessions,
		FrameInterval:   interval,
		QueueFrames:     64,
		MTU:             500,
		EstimatorWeight: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	const lossLow, lossHigh = 0.10, 0.40

	type result struct {
		sum *ClientSummary
		err error
	}
	results := make(chan result, sessions)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for c := 0; c < sessions; c++ {
		cfg := ClientConfig{
			Server:      srv.Addr().String(),
			Frames:      frames,
			Regime:      synth.RegimeForeman,
			ReportEvery: 2, // frequent reports keep feedback lag well under a window
			Drop:        StepLoss{Before: lossLow, After: lossHigh, At: stepAt},
			Seed:        uint64(1000 + c),
		}
		go func() {
			sum, err := RunClient(ctx, cfg)
			results <- result{sum, err}
		}()
	}
	for i := 0; i < sessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("client error: %v", r.err)
		}
		if r.sum.FramesFlushed != frames {
			t.Errorf("client flushed %d/%d frames", r.sum.FramesFlushed, frames)
		}
		if r.sum.Reports == 0 {
			t.Error("client sent no reports")
		}
		if r.sum.InjectedDrops == 0 {
			t.Error("loss schedule injected nothing")
		}
	}

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	sums := srv.Summaries()
	if len(sums) != sessions {
		t.Fatalf("server recorded %d summaries, want %d", len(sums), sessions)
	}
	for _, sum := range sums {
		if sum.Err != "" {
			t.Errorf("session %d finished with error: %s", sum.ID, sum.Err)
		}
		if sum.FramesEncoded != frames {
			t.Errorf("session %d encoded %d/%d frames", sum.ID, sum.FramesEncoded, frames)
		}
		if sum.Reports == 0 {
			t.Errorf("session %d consumed no receiver reports", sum.ID)
		}

		// The loss step must move the loop the right way: α̂ up toward
		// the injected rate, and Intra_Th down — the §3.2 rule holds
		// the refresh interval as σ decays faster (see the adaptive
		// example). Averaged windows keep the binomial report noise out.
		window := stepAt / 2
		earlyAlpha, earlyTh, earlyN := meanWindow(sum.Trace, stepAt-window, stepAt)
		lateAlpha, lateTh, lateN := meanWindow(sum.Trace, frames-window, frames)
		if earlyN < window/3 || lateN < window/3 {
			t.Fatalf("session %d: feedback too sparse to judge the loop (%d/%d usable early points, %d/%d late)",
				sum.ID, earlyN, window, lateN, window)
		}
		if lateAlpha <= earlyAlpha {
			t.Errorf("session %d: α̂ did not rise across the loss step: %.3f → %.3f",
				sum.ID, earlyAlpha, lateAlpha)
		}
		if lateAlpha < 0.15 {
			t.Errorf("session %d: α̂ = %.3f not tracking injected %.2f", sum.ID, lateAlpha, lossHigh)
		}
		if earlyAlpha > 0.25 {
			t.Errorf("session %d: pre-step α̂ = %.3f too high for injected %.2f", sum.ID, earlyAlpha, lossLow)
		}
		if lateTh >= earlyTh {
			t.Errorf("session %d: Intra_Th did not fall as α̂ rose: %.3f → %.3f (α̂ %.3f → %.3f)",
				sum.ID, earlyTh, lateTh, earlyAlpha, lateAlpha)
		}
	}

	// Per-session metrics must be gone from the registry; server-level
	// aggregates must survive.
	snap := srv.Registry().Snapshot()
	for name := range snap {
		if strings.HasPrefix(name, "s") && !strings.HasPrefix(name, "server.") {
			t.Errorf("per-session metric %q leaked past session end", name)
		}
	}
	if snap["server.sessions_completed"] != float64(sessions) {
		t.Errorf("server.sessions_completed = %v, want %d", snap["server.sessions_completed"], sessions)
	}

	waitGoroutines(t, before+2)
}

func TestSoakSingleSession(t *testing.T) {
	runSoak(t, 1, 120, 60, 3*time.Millisecond)
}

func TestSoakFourSessions(t *testing.T) {
	runSoak(t, 4, 100, 50, 10*time.Millisecond)
}

func TestAdmissionControl(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   1,
		FrameInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Occupy the only slot with a long-running client.
	occupied := make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		sum, err := RunClient(ctx, ClientConfig{
			Server: srv.Addr().String(), Frames: 400, ReportEvery: 4,
		})
		_ = sum
		holder <- err
	}()
	for i := 0; i < 200; i++ {
		if srv.ActiveSessions() == 1 {
			close(occupied)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-occupied:
	default:
		t.Fatal("first session never became active")
	}

	_, err = RunClient(ctx, ClientConfig{Server: srv.Addr().String(), Frames: 10})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("second client: want RejectedError, got %v", err)
	}
	if !strings.Contains(rej.Reason, "capacity") {
		t.Fatalf("rejection reason %q does not mention capacity", rej.Reason)
	}

	// Invalid requests are rejected with their own reasons.
	if _, err := RunClient(ctx, ClientConfig{Server: srv.Addr().String(), Frames: 5, Regime: synth.Regime(99)}); !errors.As(err, &rej) {
		t.Fatalf("bad regime: want RejectedError, got %v", err)
	}

	// Graceful shutdown mid-stream: the holder's stream ends early but
	// cleanly — the client sees an End, not a timeout.
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-holder; err != nil {
		t.Fatalf("holder client after graceful shutdown: %v", err)
	}
	sums := srv.Summaries()
	if len(sums) != 1 {
		t.Fatalf("want 1 summary, got %d", len(sums))
	}
	if sums[0].Err != "" {
		t.Fatalf("graceful shutdown recorded an error: %s", sums[0].Err)
	}
	if sums[0].FramesEncoded >= 400 {
		t.Fatal("session ran to completion; shutdown was not mid-stream")
	}
	waitGoroutines(t, before+2)
}

func TestRejectAfterShutdown(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if _, err := RunClient(ctx, ClientConfig{Server: addr, Frames: 5, HandshakeTimeout: 300 * time.Millisecond}); err == nil {
		t.Fatal("client connected to a shut-down server")
	}
}

func TestFECAndInterleaveSession(t *testing.T) {
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		FrameInterval: time.Millisecond,
		MTU:           400, // force multi-packet frames so interleave/FEC matter
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sum, err := RunClient(ctx, ClientConfig{
		Server:      srv.Addr().String(),
		Frames:      30,
		Regime:      synth.RegimeForeman,
		ReportEvery: 4,
		FECGroup:    4,
		Interleave:  2,
		Drop:        ConstLoss(0.15),
		Seed:        7,
		Decode:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.FramesFlushed != 30 {
		t.Fatalf("flushed %d/30 frames", sum.FramesFlushed)
	}
	if sum.PacketsRecovered == 0 {
		t.Error("FEC recovered nothing at 15% injected loss over 4-packet groups")
	}
	if sum.FramesDecoded != 30 {
		t.Fatalf("decoded %d/30 frames", sum.FramesDecoded)
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := newFrameQueue(2)
	q.push(queuedFrame{frame: 0})
	q.push(queuedFrame{frame: 1})
	q.push(queuedFrame{frame: 2}) // evicts frame 0
	q.push(queuedFrame{frame: 3}) // evicts frame 1
	if got := q.droppedFrames(); got != 2 {
		t.Fatalf("dropped %d frames, want 2", got)
	}
	if got := (<-q.ch).frame; got != 2 {
		t.Fatalf("oldest surviving frame = %d, want 2", got)
	}
	if got := (<-q.ch).frame; got != 3 {
		t.Fatalf("next frame = %d, want 3", got)
	}
	if q.depth() != 0 {
		t.Fatalf("depth = %d, want 0", q.depth())
	}
}

func TestLossSchedules(t *testing.T) {
	s := StepLoss{Before: 0.1, After: 0.4, At: 10}
	if s.Rate(9) != 0.1 || s.Rate(10) != 0.4 {
		t.Fatal("StepLoss edges wrong")
	}
	r := RampLoss{From: 0, To: 0.4, Start: 10, End: 20}
	if r.Rate(0) != 0 || r.Rate(15) != 0.2 || r.Rate(25) != 0.4 {
		t.Fatalf("RampLoss interpolation wrong: %v %v %v", r.Rate(0), r.Rate(15), r.Rate(25))
	}
	if ConstLoss(0.3).Rate(123) != 0.3 {
		t.Fatal("ConstLoss wrong")
	}
}

// TestWireNetworkLoss pins that a queue eviction is indistinguishable
// from wire loss at the receiver: evicted packets appear as sequence
// gaps, which is exactly how backpressure is supposed to surface in
// the feedback loop (no silent re-numbering).
func TestWireNetworkLoss(t *testing.T) {
	stub := func(k int) *codec.EncodedFrame {
		return &codec.EncodedFrame{FrameNum: k, Data: make([]byte, 50)}
	}
	pktz := network.NewPacketizer(100)
	frameA := pktz.Packetize(stub(0))
	frameB := pktz.Packetize(stub(1))
	var mon network.LossMonitor
	for _, p := range frameA {
		mon.Observe(p.Seq)
	}
	// frameB evicted: its seq range never observed.
	frameC := pktz.Packetize(stub(2))
	for _, p := range frameC {
		mon.Observe(p.Seq)
	}
	if mon.Lost() != int64(len(frameB)) {
		t.Fatalf("monitor inferred %d lost, want %d", mon.Lost(), len(frameB))
	}
}

// TestHelloRetransmitAfterEnd pins duplicate-hello handling across a
// session's whole life. The client nonce tells a retransmitted hello —
// even one delayed past the session's End — from a new client reusing
// the address: a same-nonce hello re-accepts the live session and
// repeats the End of a finished one, never admitting a second session
// that would stream to a client that is done; a new nonce on the same
// port is admitted fresh.
func TestHelloRetransmitAfterEnd(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 4, FrameInterval: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, 65536)
	// await reads until a datagram of type want for session id (0: any
	// id) arrives, skipping media and anything else.
	await := func(want byte, id uint32) uint32 {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("waiting for %q: %v", want, err)
			}
			if n == 0 || buf[0] != want {
				continue
			}
			var got uint32
			switch want {
			case msgAccept:
				got, _, err = parseAccept(buf[:n])
			case msgEnd:
				var ok bool
				if got, _, ok = parseEnd(buf[:n]); !ok {
					err = fmt.Errorf("malformed end")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if id == 0 || got == id {
				return got
			}
		}
	}
	send := func(h hello) {
		t.Helper()
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			t.Fatal(err)
		}
	}

	h := hello{Frames: 4, Regime: synth.RegimeForeman, Nonce: newNonce()}
	send(h)
	first := await(msgAccept, 0)
	send(h) // retransmit while streaming
	if again := await(msgAccept, 0); again != first {
		t.Fatalf("retransmitted hello accepted as session %d, want existing %d", again, first)
	}
	await(msgEnd, first)
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	send(h) // the same hello, landing after the session is gone
	if got := await(msgEnd, 0); got != first {
		t.Fatalf("late retransmit answered with End for session %d, want %d", got, first)
	}
	time.Sleep(50 * time.Millisecond)
	if n := srv.Registry().Snapshot()["server.sessions_started"]; n != 1 || srv.ActiveSessions() != 0 {
		t.Fatalf("late retransmit admitted a session: %v started, %d active", n, srv.ActiveSessions())
	}

	h.Nonce = newNonce() // a new client on the reused port
	send(h)
	second := await(msgAccept, 0)
	if second == first {
		t.Fatalf("new client re-accepted onto finished session %d", first)
	}
	await(msgEnd, second)
	if n := srv.Registry().Snapshot()["server.sessions_started"]; n != 2 {
		t.Errorf("server.sessions_started = %v, want 2", n)
	}
}
