package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// reportingStream is rawStream plus scripted feedback: reports[f] is a
// loss fraction sent the first time a packet of frame f is observed
// (loopback delivery is in order, so "first packet of frame f" is a
// reliable frame boundary). It records the exact media packets like
// rawStream does, so a reporting receiver's stream can be compared
// byte-for-byte against a silent one.
func reportingStream(server string, frames int, regime synth.Regime, reports map[int]float64) (map[int][]network.Packet, error) {
	_, got, err := reportingStreamHello(server, hello{Frames: frames, Regime: regime}, reports)
	return got, err
}

// reportingStreamHello is reportingStream for an arbitrary hello; it
// also returns the session id, to match the stream to its server-side
// SessionSummary.
func reportingStreamHello(server string, h hello, reports map[int]float64) (uint32, map[int][]network.Packet, error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return 0, nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()

	// ReportEvery stays 0: the server consumes reports from any session,
	// and not promising a cadence keeps the sparse script clear of the
	// feedback-timeout reaper.
	h.ReportEvery = 0
	h.Nonce = newNonce()
	var id uint32
	buf := make([]byte, 65536)
handshake:
	for attempt := 0; ; attempt++ {
		if attempt == 3 {
			return 0, nil, errors.New("reporting client: no accept after 3 hellos")
		}
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			return 0, nil, err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				continue handshake
			}
			if n > 0 && buf[0] == msgAccept {
				if id, _, err = parseAccept(buf[:n]); err != nil {
					return 0, nil, err
				}
				break handshake
			}
			if n > 0 && buf[0] == msgReject {
				reason, _ := parseReject(buf[:n])
				return 0, nil, fmt.Errorf("reporting client rejected: %s", reason)
			}
		}
	}
	defer conn.Write(appendBye(nil, id))

	got := make(map[int][]network.Packet)
	cur := -1
	record := func(pkt network.Packet) {
		if pkt.FrameNum > cur {
			cur = pkt.FrameNum
			if fr, ok := reports[cur]; ok {
				conn.Write(appendReport(nil, report{
					Session: id, Fraction: fr, Received: 100, Lost: int64(fr * 100),
				}))
			}
		}
		got[pkt.FrameNum] = append(got[pkt.FrameNum], pkt)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return 0, nil, fmt.Errorf("reporting client read: %w", err)
		}
		if n == 0 {
			continue
		}
		switch buf[0] {
		case msgMedia:
			sid, pkt, err := parseMedia(buf[:n])
			if err == nil && sid == id {
				record(pkt)
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(nil, buf[:n])
			if err == nil && sid == id {
				for _, pkt := range pkts {
					record(pkt)
				}
			}
		case msgEnd:
			if sid, _, ok := parseEnd(buf[:n]); ok && sid == id {
				return id, got, nil
			}
		}
	}
}

// TestLineageRemergeAfterBlip is the re-merge proof: a transient loss
// blip forks a session off its cohort, its estimator decays back
// through the α̂ quantum to exactly 0, and the scheduler folds the fork
// back into the cohort lineage — after which the pair share encodes
// again and both receivers hold bit-identical streams end to end.
//
// The report script is built on the estimator's seeding semantics: the
// first report a session ever sends seeds α̂ directly (no EMA weight),
// so a 0.01 blip lands exactly on α̂ = 0.01, which quantises to 1/64
// and forks. One zero report then decays it to 0.0065, which quantises
// back to 0 — the quiescence precondition. The blip must be separated
// from the zero by a frame boundary so they are drained in different
// scheduling passes (drained together they cancel before any fork);
// the generous FrameInterval against a ~3ms encode makes that ordering
// robust. Byte identity across the fork is what makes the merge legal:
// the single frame encoded at α̂ = 1/64 still has σ ≡ 1 everywhere, so
// the motion penalty λ·α·(1−σ) is exactly 0 and σ < Th cannot fire —
// the forked frame is bit-identical and the encoder states reconverge.
func TestLineageRemergeAfterBlip(t *testing.T) {
	const frames = 30

	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   4,
		FrameInterval: 40 * time.Millisecond,
		CohortWindow:  400 * time.Millisecond,
		QueueFrames:   64,
	})
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		pkts map[int][]network.Packet
		err  error
	}
	quiet := make(chan run, 1)
	blip := make(chan run, 1)
	go func() {
		pkts, err := rawStream(srv.Addr().String(), frames)
		quiet <- run{pkts, err}
	}()
	// The quiet session must be admitted first (the fork keeps the
	// parent lineage with the oldest member, so the blip session is the
	// one that forks off and later merges back).
	time.Sleep(100 * time.Millisecond)
	go func() {
		pkts, err := reportingStream(srv.Addr().String(), frames, synth.RegimeForeman, map[int]float64{
			3: 0.01, // transient blip: seeds α̂ = 0.01 → quantises to 1/64 → fork
			4: 0,    // recovery: decays α̂ to 0.0065 → quantises to 0 → quiesce
			6: 0,    // belt and braces: keeps decaying toward 0
		})
		blip <- run{pkts, err}
	}()
	rq, rb := <-quiet, <-blip
	if rq.err != nil {
		t.Fatalf("quiet stream: %v", rq.err)
	}
	if rb.err != nil {
		t.Fatalf("blip stream: %v", rb.err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := srv.Registry().Snapshot()
	if snap["server.lineage_forks"] < 1 {
		t.Fatal("the blip report forced no lineage fork")
	}
	if snap["server.lineage_merges"] < 1 {
		t.Fatalf("the recovered lineage never merged back (forks=%v encodes=%v)",
			snap["server.lineage_forks"], snap["server.encodes"])
	}
	// Sharing must have resumed after the merge: only the few frames
	// encoded while forked cost a second encode.
	if enc := snap["server.encodes"]; enc > frames+8 {
		t.Errorf("server.encodes = %v for %d frames × 2 members — sharing never resumed", enc, frames)
	}
	// The batched receive path carried all of this session's inbound
	// traffic (hellos, reports, byes).
	if snap["server.recv_batches"] < 1 || snap["server.recv_datagrams"] < snap["server.recv_batches"] {
		t.Errorf("implausible receive accounting: batches=%v datagrams=%v",
			snap["server.recv_batches"], snap["server.recv_datagrams"])
	}
	if snap["server.recv_batch_size.count"] != snap["server.recv_batches"] {
		t.Errorf("recv_batch_size.count = %v, want %v (one observation per batch)",
			snap["server.recv_batch_size.count"], snap["server.recv_batches"])
	}

	// Byte identity end to end: through fork, forked frames, and merge,
	// the blip receiver saw exactly the quiet receiver's stream.
	qh, err := frameHashes(frames, rq.pkts)
	if err != nil {
		t.Fatalf("quiet stream hashes: %v", err)
	}
	bh, err := frameHashes(frames, rb.pkts)
	if err != nil {
		t.Fatalf("blip stream hashes: %v", err)
	}
	for f := 0; f < frames; f++ {
		if qh[f] != bh[f] {
			t.Fatalf("frame %d: blip stream diverges from quiet stream across fork/merge", f)
		}
	}
}

// TestMergeDisabled pins the DisableMerge knob: the same blip script
// forks, but with merging off the lineages stay split to the end.
func TestMergeDisabled(t *testing.T) {
	const frames = 16
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		MaxSessions:   4,
		FrameInterval: 40 * time.Millisecond,
		CohortWindow:  400 * time.Millisecond,
		QueueFrames:   64,
		DisableMerge:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet := make(chan error, 1)
	go func() {
		_, err := rawStream(srv.Addr().String(), frames)
		quiet <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := reportingStream(srv.Addr().String(), frames, synth.RegimeForeman, map[int]float64{3: 0.01, 4: 0}); err != nil {
		t.Fatalf("blip stream: %v", err)
	}
	if err := <-quiet; err != nil {
		t.Fatalf("quiet stream: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	snap := srv.Registry().Snapshot()
	if snap["server.lineage_forks"] < 1 {
		t.Fatal("the blip report forced no lineage fork")
	}
	if snap["server.lineage_merges"] != 0 {
		t.Errorf("server.lineage_merges = %v with DisableMerge set", snap["server.lineage_merges"])
	}
}
