package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	"pbpair/internal/codec"
	"pbpair/internal/metrics"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/synth"
)

// ClientConfig parameterises one receiver client (pbpair-load runs M
// of them concurrently).
type ClientConfig struct {
	// Server is the server's UDP address ("127.0.0.1:9800").
	Server string
	// Frames requests the stream length.
	Frames int
	// Regime selects the content (default RegimeForeman).
	Regime synth.Regime
	// QP requests a quantiser (0 = server default).
	QP int
	// ReportEvery sends a receiver report every N flushed frames
	// (default 8; 0 disables feedback — the open-loop ablation).
	ReportEvery int
	// FECGroup asks the server for XOR parity every N media packets
	// (0 = off); the client runs recovery on what arrives.
	FECGroup int
	// Interleave asks for n-way GOB interleaving (<= 1 = off).
	Interleave int

	// Drop injects receiver-side loss: each arriving datagram is
	// discarded with probability Drop.Rate(frame) before it reaches
	// the loss monitor, so reports see it as wire loss. nil = none.
	Drop LossSchedule
	// Seed makes the injected loss pattern reproducible.
	Seed uint64

	// Decode runs the real decoder over what arrives and scores PSNR
	// against the regenerated originals. Costs CPU; off by default.
	Decode bool

	// IdleTimeout gives up when no datagram arrives for this long
	// (default 10s).
	IdleTimeout time.Duration
	// HandshakeTimeout bounds each hello/accept attempt (default 2s,
	// 3 attempts).
	HandshakeTimeout time.Duration
}

// ClientSummary is what one client measured.
type ClientSummary struct {
	Session          uint32
	FramesRequested  int
	FramesFlushed    int   // frames delivered to the reassembly stage
	FramesDecoded    int   // frames run through the decoder (Decode only)
	PacketsReceived  int64 // datagrams that survived injected loss (incl. parity)
	PacketsRecovered int64 // media packets reconstructed by FEC
	InjectedDrops    int64
	WireLost         int64 // loss monitor's cumulative count (injected + real)
	Bytes            int64 // payload bytes received
	Reports          int
	PSNRSum          float64 // sum over decoded frames (Decode only)
	Elapsed          time.Duration
	// E2E holds one sample per media datagram: receive clock minus the
	// media header's send stamp. Same-clock caveat applies — see the
	// protocol doc in wire.go. Never nil after RunClient; mergeable
	// across clients with obs.(*Histogram).Merge.
	E2E *obs.Histogram
}

// MeanPSNR returns the mean luma PSNR over decoded frames, or 0 when
// decoding was off.
func (s *ClientSummary) MeanPSNR() float64 {
	if s.FramesDecoded == 0 {
		return 0
	}
	return s.PSNRSum / float64(s.FramesDecoded)
}

// RejectedError is returned when the server refuses admission; Reason
// is the server's explanation.
type RejectedError struct{ Reason string }

func (e *RejectedError) Error() string { return "serve: rejected: " + e.Reason }

// RunClient connects to a server, receives one full session and
// returns the measurements. It is the receiver half of the closed
// loop: loss monitor → interval reports → (server-side) estimator and
// controllers. Cancelling ctx sends the server a bye and returns the
// partial summary with ctx's error.
func RunClient(ctx context.Context, cfg ClientConfig) (*ClientSummary, error) {
	if cfg.Frames <= 0 {
		return nil, errors.New("serve: client must request at least one frame")
	}
	if cfg.Regime == 0 {
		cfg.Regime = synth.RegimeForeman
	}
	if cfg.ReportEvery == 0 {
		cfg.ReportEvery = 8
	}
	if cfg.ReportEvery < 0 {
		cfg.ReportEvery = 0 // explicit opt-out
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 2 * time.Second
	}

	raddr, err := net.ResolveUDPAddr("udp", cfg.Server)
	if err != nil {
		return nil, fmt.Errorf("serve: resolve %q: %w", cfg.Server, err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	defer conn.Close()

	start := time.Now()
	sum := &ClientSummary{FramesRequested: cfg.Frames, E2E: &obs.Histogram{}}
	id, err := handshake(ctx, conn, cfg)
	if err != nil {
		return nil, err
	}
	sum.Session = id
	defer func() {
		conn.Write(appendBye(nil, id))
		sum.Elapsed = time.Since(start)
	}()

	err = receive(ctx, conn, cfg, id, sum)
	return sum, err
}

// handshake sends hellos until an accept or reject arrives.
func handshake(ctx context.Context, conn *net.UDPConn, cfg ClientConfig) (uint32, error) {
	h := hello{
		Frames:      cfg.Frames,
		Regime:      cfg.Regime,
		QP:          cfg.QP,
		ReportEvery: cfg.ReportEvery,
		FECGroup:    cfg.FECGroup,
		Interleave:  cfg.Interleave,
		Nonce:       newNonce(),
	}
	buf := make([]byte, 2048)
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if _, err := conn.Write(appendHello(nil, h)); err != nil {
			return 0, fmt.Errorf("serve: hello: %w", err)
		}
		conn.SetReadDeadline(time.Now().Add(cfg.HandshakeTimeout))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: retransmit the hello
			}
			if n == 0 {
				continue
			}
			switch buf[0] {
			case msgAccept:
				id, _, err := parseAccept(buf[:n])
				return id, err
			case msgReject:
				if reason, ok := parseReject(buf[:n]); ok {
					return 0, &RejectedError{Reason: reason}
				}
			default:
				continue // early media; keep waiting for the accept
			}
		}
	}
	return 0, fmt.Errorf("serve: no response from %s after 3 hellos", cfg.Server)
}

// receive runs the media/report loop until the stream ends.
func receive(ctx context.Context, conn *net.UDPConn, cfg ClientConfig, id uint32, sum *ClientSummary) error {
	var dec *codec.Decoder
	var src synth.Source
	if cfg.Decode {
		src = synth.New(cfg.Regime)
		w, h := src.Dims()
		var err error
		if dec, err = codec.NewDecoder(w, h); err != nil {
			return err
		}
	}
	rng := &splitmix64{state: cfg.Seed}
	var monitor network.LossMonitor

	cur := -1
	var pending []network.Packet
	// lastE2E is the freshest end-to-end latency sample (µs) since the
	// previous report; echoed in the next report and reset, so the
	// server's server.e2e_latency histogram sees at most one sample per
	// report interval per session (0 = none this interval).
	var lastE2E uint32
	sendReport := func() {
		r := report{
			Session:   id,
			Fraction:  monitor.Rate(),
			Received:  monitor.Received(),
			Lost:      monitor.Lost(),
			E2EMicros: lastE2E,
		}
		lastE2E = 0
		sum.WireLost += monitor.Lost()
		monitor.Reset()
		if _, err := conn.Write(appendReport(nil, r)); err == nil {
			sum.Reports++
		}
	}
	// flush advances the current frame to next, running FEC recovery,
	// reassembly and (optionally) decode + PSNR on each frame passed.
	flush := func(next int) error {
		if cur < 0 {
			cur = next
			return nil
		}
		for cur < next {
			media := pending
			if cfg.FECGroup > 0 {
				received := 0
				for _, p := range pending {
					if !p.IsParity() {
						received++
					}
				}
				media = network.RecoverFEC(pending)
				if rec := len(media) - received; rec > 0 {
					sum.PacketsRecovered += int64(rec)
				}
			}
			pending = pending[:0]
			sum.FramesFlushed++
			if dec != nil {
				var res *codec.DecodeResult
				if payload := network.Reassemble(media); payload == nil {
					res = dec.ConcealLostFrame()
				} else {
					var err error
					if res, err = dec.DecodeFrame(payload); err != nil {
						return fmt.Errorf("serve: decode frame %d: %w", cur, err)
					}
				}
				if p, err := metrics.PSNR(src.Frame(cur), res.Frame); err == nil {
					sum.PSNRSum += p
					sum.FramesDecoded++
				}
			}
			cur++
			if cfg.ReportEvery > 0 && sum.FramesFlushed%cfg.ReportEvery == 0 {
				sendReport()
			}
		}
		return nil
	}

	// handlePkt applies the per-packet pipeline — injected loss, loss
	// monitoring, frame-boundary flush — identically whether the packet
	// arrived in its own 'M' datagram or inside a coalesced 'C' batch.
	handlePkt := func(pkt network.Packet) error {
		// Injected receiver-side loss: discard before the monitor
		// sees it, so it is indistinguishable from wire loss.
		if cfg.Drop != nil && rng.float64() < cfg.Drop.Rate(pkt.FrameNum) {
			sum.InjectedDrops++
			return nil
		}
		sum.PacketsReceived++
		sum.Bytes += int64(len(pkt.Payload))
		if !pkt.IsParity() {
			monitor.Observe(pkt.Seq)
		}
		if pkt.FrameNum != cur {
			if err := flush(pkt.FrameNum); err != nil {
				return err
			}
		}
		pending = append(pending, pkt)
		return nil
	}

	buf := make([]byte, 65536)
	var batch []network.Packet
	deadline := time.Now().Add(cfg.IdleTimeout)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: no media for %v (flushed %d/%d frames)",
				cfg.IdleTimeout, sum.FramesFlushed, cfg.Frames)
		}
		// Short poll deadline so ctx cancellation is honoured promptly
		// even when the server goes quiet.
		poll := time.Now().Add(250 * time.Millisecond)
		if poll.After(deadline) {
			poll = deadline
		}
		conn.SetReadDeadline(poll)
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// A connected UDP socket surfaces ICMP port-unreachable as
			// ECONNREFUSED on the next read — *before* datagrams already
			// buffered (such as the server's final End burst). The ICMP
			// is advisory; keep reading and let the idle timeout decide
			// whether the server is really gone.
			if errors.Is(err, syscall.ECONNREFUSED) {
				continue
			}
			return fmt.Errorf("serve: read: %w", err)
		}
		if n == 0 {
			continue
		}
		deadline = time.Now().Add(cfg.IdleTimeout)
		// End-to-end latency sample: receive clock minus the media
		// header's send stamp. Negative differences (clock skew across
		// hosts) are discarded rather than clamped into fake zeros.
		if stamp := mediaStamp(buf[:n]); stamp > 0 {
			if d := time.Now().UnixMicro() - stamp; d >= 0 {
				sum.E2E.ObserveValue(d)
				switch {
				case d == 0:
					d = 1 // 0 means "no sample" on the wire
				case d > int64(^uint32(0)):
					d = int64(^uint32(0))
				}
				lastE2E = uint32(d)
			}
		}
		switch buf[0] {
		case msgMedia:
			sid, pkt, err := parseMedia(buf[:n])
			if err != nil || sid != id {
				continue
			}
			if err := handlePkt(pkt); err != nil {
				return err
			}
		case msgCoalesced:
			sid, pkts, err := parseCoalesced(batch[:0], buf[:n])
			batch = pkts
			if err != nil || sid != id {
				continue
			}
			for _, pkt := range pkts {
				if err := handlePkt(pkt); err != nil {
					return err
				}
			}
		case msgEnd:
			sid, frames, ok := parseEnd(buf[:n])
			if !ok || sid != id {
				continue
			}
			if err := flush(frames); err != nil {
				return err
			}
			if cfg.ReportEvery > 0 {
				sendReport() // final interval, so the books balance
			}
			return nil
		case msgAccept:
			continue // duplicate accept from a retransmitted hello
		default:
			continue
		}
	}
}
