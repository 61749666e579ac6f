package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// TestShardedStreamByteIdentical is the sharded datapath's correctness
// proof: a session served through N SO_REUSEPORT sockets — its media
// flowing through whichever shard's sender admission pinned it to —
// receives the byte-for-byte same packet stream as one served by a
// single-socket server. Media packet hashes ignore the datagram header
// (session id, send stamp), so the comparison is exactly the paper's
// deliverable: the encoded, packetised, FEC-protected stream.
//
// Each server also gets a late joiner: a session admitted in a later
// cohort window, after the first lineage has started, which is served
// from the cohort's trunk log rather than encoded. Its stream and its
// SessionSummary books (intra MBs, energy, trace) must match the solo
// session's exactly.
func TestShardedStreamByteIdentical(t *testing.T) {
	if !network.ReusePortSupported() {
		t.Skip("SO_REUSEPORT sharding requires linux")
	}
	const frames = 20

	single, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 1, RecvShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	singleHashes, err := hashedStream(single.Addr().String(), frames)
	if err != nil {
		t.Fatalf("single-socket stream: %v", err)
	}
	if err := single.Shutdown(context.Background()); err != nil {
		t.Fatalf("single-socket server shutdown: %v", err)
	}
	ref := single.Summaries()[0]

	for _, shards := range []int{1, 2, 4} {
		const window = 200 * time.Millisecond
		srv, err := New(Config{
			Addr:          "127.0.0.1:0",
			MaxSessions:   8,
			RecvShards:    shards,
			CohortWindow:  window,
			FrameInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		// Several concurrent members: their distinct source ports steer
		// them to different shards, so the shared lineage's fanout spans
		// shard senders. The late joiner arrives once that lineage runs.
		type run struct {
			hashes []string
			err    error
		}
		streams := make(chan run, 4)
		stream := func() {
			hashes, err := hashedStream(srv.Addr().String(), frames)
			streams <- run{hashes, err}
		}
		for c := 0; c < 3; c++ {
			go stream()
		}
		time.Sleep(window + 100*time.Millisecond)
		go stream()
		var runs [][]string
		for i := 0; i < 4; i++ {
			r := <-streams
			if r.err != nil {
				t.Fatalf("%d shards: member stream: %v", shards, r.err)
			}
			runs = append(runs, r.hashes)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("%d shards: shutdown: %v", shards, err)
		}
		for f := 0; f < frames; f++ {
			for i, r := range runs {
				if r[f] != singleHashes[f] {
					t.Fatalf("%d shards: frame %d: member %d stream diverges from single-socket stream",
						shards, f, i)
				}
			}
		}
		for _, sum := range srv.Summaries() {
			if sum.IntraMBs != ref.IntraMBs || sum.EnergyJoules != ref.EnergyJoules ||
				fmt.Sprint(sum.Trace) != fmt.Sprint(ref.Trace) {
				t.Errorf("%d shards: session %d books (intra %d, energy %v) differ from the solo session's (%d, %v)",
					shards, sum.ID, sum.IntraMBs, sum.EnergyJoules, ref.IntraMBs, ref.EnergyJoules)
			}
		}
		if snap := srv.Registry().Snapshot(); snap["server.trunk_hits"] < 1 {
			t.Errorf("%d shards: the late joiner was never served from the trunk log", shards)
		}
	}
}

// handoffStream is the cross-shard fault injector: it receives media on
// its connected hello socket — the one the kernel's 4-tuple steering
// pins to the session's shard — but sends every report and the bye from
// a second, unconnected socket whose distinct source port steers them
// to an arbitrary (usually different) shard. The server must handle
// those on whichever shard they land: reports reach the session's
// feedback channel in place, never forwarded, never lost to a
// wrong-shard check. Reports carry a real e2e sample so the server's
// latency histogram proves they were consumed.
func handoffStream(server string, frames int) (got int, err error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return 0, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	side, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer side.Close()

	h := hello{Frames: frames, Regime: synth.RegimeForeman, ReportEvery: 2, Nonce: newNonce()}
	var id uint32
	buf := make([]byte, 65536)
handshake:
	for attempt := 0; ; attempt++ {
		if attempt == 15 {
			return 0, errors.New("handoff client: no accept after 15 hellos")
		}
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			return 0, err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				continue handshake
			}
			if n > 0 && buf[0] == msgAccept {
				if id, _, err = parseAccept(buf[:n]); err != nil {
					return 0, err
				}
				break handshake
			}
			if n > 0 && buf[0] == msgReject {
				reason, _ := parseReject(buf[:n])
				return 0, fmt.Errorf("handoff client rejected: %s", reason)
			}
		}
	}
	defer side.WriteToUDP(appendBye(nil, id), raddr)

	var scratch []network.Packet
	maxFrame := -1
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return got, fmt.Errorf("handoff client %d read (last frame %d): %w", id, maxFrame, err)
		}
		if n == 0 {
			continue
		}
		e2e := uint32(1)
		if stamp := mediaStamp(buf[:n]); stamp > 0 {
			if d := time.Now().UnixMicro() - stamp; d > 0 {
				e2e = uint32(d)
			}
		}
		bump := func(f int) {
			if f <= maxFrame {
				return
			}
			maxFrame = f
			if f%2 == 0 {
				side.WriteToUDP(appendReport(nil, report{
					Session: id, Received: 100, E2EMicros: e2e,
				}), raddr)
			}
		}
		switch buf[0] {
		case msgMedia:
			sid, pkt, err := parseMedia(buf[:n])
			if err == nil && sid == id {
				got++
				bump(pkt.FrameNum)
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(scratch[:0], buf[:n])
			if err == nil && sid == id {
				got += len(pkts)
				for _, pkt := range pkts {
					bump(pkt.FrameNum)
				}
			}
			scratch = pkts
		case msgEnd:
			if sid, _, ok := parseEnd(buf[:n]); ok && sid == id {
				return got, nil
			}
		}
	}
}

// TestCrossShardHandoff churns sessions against a 4-shard server while
// every report and bye arrives on a socket the session was *not*
// admitted on. All sessions must finish their streams, the reports must
// demonstrably reach their sessions (the server-side e2e latency
// histogram fills from report echoes alone), and receive work must have
// spread across shards.
func TestCrossShardHandoff(t *testing.T) {
	if !network.ReusePortSupported() {
		t.Skip("SO_REUSEPORT sharding requires linux")
	}
	const (
		slots  = 8
		cycles = 4
		frames = 6
	)
	before := runtime.NumGoroutine()
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   64,
		RecvShards:    4,
		FrameInterval: 0,
		CohortWindow:  40 * time.Millisecond,
		QueueFrames:   16,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, slots*cycles)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				got, err := handoffStream(srv.Addr().String(), frames)
				if err != nil {
					errs <- err
					return
				}
				if got == 0 {
					errs <- errors.New("handoff client received no packets")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := srv.Registry().Snapshot()
	if got := snap["server.sessions_completed"]; got != float64(slots*cycles) {
		t.Errorf("server.sessions_completed = %v, want %d", got, slots*cycles)
	}
	// The latency histogram fills only from report echoes; with every
	// report arriving on an arbitrary shard, a non-empty histogram is
	// the proof that wrong-shard reports were consumed, not dropped.
	if got := snap["server.e2e_latency.count"]; got <= 0 {
		t.Errorf("server.e2e_latency.count = %v — cross-shard reports were lost", got)
	}
	busy := 0
	for i := 0; i < 4; i++ {
		if snap[fmt.Sprintf("server.shard%d.recv_datagrams", i)] > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d/4 shards received datagrams — kernel steering never spread the load", busy)
	}
	if bal, ok := snap["server.shard_rx_balance"]; !ok || bal <= 0 || bal > 1 {
		t.Errorf("server.shard_rx_balance = %v (present=%v), want in (0, 1]", bal, ok)
	}
	waitGoroutines(t, before+2)
}
