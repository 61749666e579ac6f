package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// drainStream is the 10k-soak's featherweight receiver: handshake, read
// until the End datagram, count — no packet retention (ten thousand
// recorded streams would swamp the test's memory). reportEvery > 0
// sends a clean loss report at every Nth frame boundary, which is how
// the scale benchmarks model the steady feedback torrent of a real
// receiver fleet. The handshake retries harder than rawStream's
// because an admission storm of ten thousand simultaneous hellos
// legitimately overflows the server's socket buffer; a dropped hello
// is retransmitted, not fatal.
func drainStream(server string, h hello, reportEvery int) (frames, packets int, err error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return 0, 0, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()

	h.Nonce = newNonce()
	var id uint32
	buf := make([]byte, 2048)
handshake:
	for attempt := 0; ; attempt++ {
		if attempt == 15 {
			return 0, 0, errors.New("drain client: no accept after 15 hellos")
		}
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			return 0, 0, err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				continue handshake
			}
			if n > 0 && buf[0] == msgAccept {
				if id, _, err = parseAccept(buf[:n]); err != nil {
					return 0, 0, err
				}
				break handshake
			}
			if n > 0 && buf[0] == msgReject {
				reason, _ := parseReject(buf[:n])
				return 0, 0, fmt.Errorf("drain client rejected: %s", reason)
			}
		}
	}
	defer conn.Write(appendBye(nil, id))

	var scratch []network.Packet
	maxFrame := -1
	bump := func(f int) {
		if f <= maxFrame {
			return
		}
		maxFrame = f
		if reportEvery > 0 && f%reportEvery == 0 {
			conn.Write(appendReport(nil, report{Session: id, Received: 100}))
		}
	}
	// Batched reads: at ten thousand concurrent receivers the harness
	// itself is a syscall load on the benchmark machine, so the drain
	// clients use the same recvmmsg path as the server — a burst of
	// coalesced media costs one wakeup, not one read per datagram.
	rcv := network.NewBatchReceiver(conn)
	slots := make([]network.RecvSlot, 8)
	for i := range slots {
		slots[i].Buf = make([]byte, 2048)
	}
	conn.SetReadDeadline(time.Now().Add(120 * time.Second))
	for {
		k, err := rcv.RecvBatch(slots)
		if err != nil {
			return 0, packets, fmt.Errorf("drain client %d read (last frame %d, %d pkts): %w",
				id, maxFrame, packets, err)
		}
		for si := 0; si < k; si++ {
			b := slots[si].Buf[:slots[si].N]
			if len(b) == 0 {
				continue
			}
			switch b[0] {
			case msgMedia:
				sid, pkt, err := parseMedia(b)
				if err == nil && sid == id {
					packets++
					bump(pkt.FrameNum)
				}
			case msgCoalesced:
				sid, pkts, err := parseCoalesced(scratch[:0], b)
				if err == nil && sid == id {
					packets += len(pkts)
					for _, pkt := range pkts {
						bump(pkt.FrameNum)
					}
				}
				scratch = pkts
			case msgEnd:
				if sid, fr, ok := parseEnd(b); ok && sid == id {
					return fr, packets, nil
				}
			}
		}
	}
}

// TestSoakTenThousandSessions is the multi-core farm's scale-out proof:
// ten thousand sessions (two thousand under -race) split across four
// cohorts against one server with sharded worker queues. Every session
// must finish its full frame count — and the cohorts must finish
// *fairly*: identical per-cohort completion totals, no cohort starved
// by another's fanout. Along the way it pins heavy encode sharing, the
// per-cohort shared-fraction gauges (present and high mid-run, removed
// after), genuinely batched receives, metric cleanup and zero goroutine
// leaks.
func TestSoakTenThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-session soak: tens of seconds of loopback traffic")
	}
	sessions := 10000
	if raceEnabled {
		sessions = 2000 // same topology, -race-sized
	}
	const (
		cohorts = 4
		frames  = 8
		baseQP  = 8
	)
	perCohort := sessions / cohorts
	before := runtime.NumGoroutine()

	srv, err := New(Config{
		Addr:        "127.0.0.1:0",
		MaxSessions: sessions + 64,
		// Unpaced: each lineage streams at farm speed; the cohort window
		// is what groups the admission storm into mega-lineages (it
		// comfortably covers the staggered launch below, so most of a
		// cohort rides its first wave).
		FrameInterval: 0,
		CohortWindow:  3 * time.Second,
		QueueFrames:   32,
		FarmWorkers:   4,
		FarmBacklog:   64,
		RecvBatch:     64,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Poll the per-cohort shared-fraction gauges while the run is live:
	// they exist only while their cohort has members, so the assertion
	// has to watch mid-run. Track the maximum each cohort ever reports.
	pollCtx, stopPoll := context.WithCancel(context.Background())
	var pollWG sync.WaitGroup
	maxShared := make(map[string]float64, cohorts)
	var mu sync.Mutex
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollCtx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			snap := srv.Registry().Snapshot()
			mu.Lock()
			for name, v := range snap {
				if strings.HasPrefix(name, "server.cohort.") && v > maxShared[name] {
					maxShared[name] = v
				}
			}
			mu.Unlock()
		}
	}()

	type result struct {
		cohort  int
		frames  int
		packets int
		err     error
	}
	// Launch staggered (~2s across the full fleet): ten thousand hellos
	// in one instant would overflow the listen socket faster than the
	// admission path can drain it, and the retransmit budget exists for
	// packet loss, not for a self-inflicted synchronised storm.
	results := make(chan result, sessions)
	stagger := 2 * time.Second / time.Duration(sessions)
	for i := 0; i < sessions; i++ {
		cohort := i % cohorts
		time.Sleep(stagger)
		go func() {
			fr, pk, err := drainStream(srv.Addr().String(), hello{
				Frames: frames,
				Regime: synth.RegimeForeman,
				QP:     baseQP + cohort,
			}, 0)
			results <- result{cohort, fr, pk, err}
		}()
	}

	var done [cohorts]int
	var flushed [cohorts]int
	for i := 0; i < sessions; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("cohort %d client: %v", r.cohort, r.err)
		}
		if r.frames != frames {
			t.Errorf("cohort %d client finished %d/%d frames", r.cohort, r.frames, frames)
		}
		if r.packets == 0 {
			t.Errorf("cohort %d client received no packets", r.cohort)
		}
		done[r.cohort]++
		flushed[r.cohort] += r.frames
	}
	stopPoll()
	pollWG.Wait()

	// Fairness: every cohort completed in full — equal session counts
	// and equal frame totals, no cohort starved by the others' fanout.
	for c := 0; c < cohorts; c++ {
		if done[c] != perCohort {
			t.Errorf("cohort %d: %d/%d sessions completed", c, done[c], perCohort)
		}
		if flushed[c] != perCohort*frames {
			t.Errorf("cohort %d: %d/%d frames served", c, flushed[c], perCohort*frames)
		}
	}

	// Every cohort's shared-fraction gauge must have been live and high:
	// thousands of members per cohort riding a handful of lineages.
	mu.Lock()
	for c := 0; c < cohorts; c++ {
		name := fmt.Sprintf("server.cohort.foreman_q%d_f0_i0.shared_fraction", baseQP+c)
		got, ok := maxShared[name]
		if !ok {
			t.Errorf("gauge %s never appeared during the run", name)
		} else if got < 0.5 {
			t.Errorf("gauge %s peaked at %.3f — cohort barely shared", name, got)
		}
	}
	mu.Unlock()

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := srv.Registry().Snapshot()
	if got := snap["server.sessions_completed"]; got != float64(sessions) {
		t.Errorf("server.sessions_completed = %v, want %d", got, sessions)
	}
	// Scale only works because encodes are shared: the farm must have
	// encoded an order of magnitude fewer frames than it served.
	total := float64(sessions * frames)
	if enc := snap["server.encodes"]; enc <= 0 || enc > total/10 {
		t.Errorf("server.encodes = %v for %v served frames — sharing collapsed", enc, total)
	}
	if shared := snap["server.encode_shared_frames"]; shared < total/2 {
		t.Errorf("server.encode_shared_frames = %v, want ≥ %v", shared, total/2)
	}
	// An admission storm of this size must actually exercise receive
	// batching: strictly more datagrams than recvmmsg calls.
	if b, d := snap["server.recv_batches"], snap["server.recv_datagrams"]; !(d > b && b > 0) {
		t.Errorf("receive path never batched: batches=%v datagrams=%v", b, d)
	}
	for name := range snap {
		if strings.HasPrefix(name, "server.cohort.") {
			t.Errorf("cohort gauge %q outlived its cohort", name)
		}
		if strings.HasPrefix(name, "s") && !strings.HasPrefix(name, "server.") {
			t.Errorf("per-session metric %q leaked past session end", name)
		}
	}

	waitGoroutines(t, before+2)
}
