// Package serve is the closed-loop streaming layer: a UDP server that
// runs the paper's §3.2 codec/network interfacing loop live, per
// session — encoder goroutine → packetiser (optional interleave + FEC)
// → bounded send queue → socket, with receiver reports flowing back
// into a PLR estimator and quality/energy controllers that retune
// PBPAIR's Intra_Th mid-stream. See ARCHITECTURE.md, "Serving layer".
//
// This file defines the datagram protocol between pbpair-serve and
// pbpair-load. Every datagram starts with a one-byte type:
//
//	client → server
//	  'H' hello:  ver u8 | frames u32 | regime u8 | qp u8 |
//	              reportEvery u8 | fecGroup u8 | interleave u8 | nonce u64
//	  'R' report: session u32 | fractionLost per-mille u16 |
//	              received u32 | lost u32 | e2eMicros u32
//	  'B' bye:    session u32
//
//	server → client
//	  'A' accept: session u32 | frames u32
//	  'J' reject: reasonLen u8 | reason bytes
//	  'M' media:  session u32 | sendMicros u64 | network.Packet wire encoding
//	  'C' media:  session u32 | sendMicros u64 | network wire batch (coalesced)
//	  'E' end:    session u32 | framesEncoded u32
//
// nonce is drawn at random once per client session and repeated in
// every retransmit of its hello, so the server can tell a late
// retransmit (same nonce: answer for the existing session, or repeat
// its End once it is over) from a new client that reuses the address
// (new nonce: a fresh admission).
//
// sendMicros is the server's transmit timestamp (unix µs, stamped as
// the datagram leaves the sender); a client subtracts it from its
// receive clock and echoes the freshest difference in its reports'
// e2eMicros field (0 = no sample yet), closing the end-to-end latency
// SLO loop. The subtraction mixes two clocks, so on distinct hosts the
// figure includes their offset — meaningful for same-host harnesses
// and NTP-disciplined fleets, a relative signal otherwise.
//
// Multi-byte integers are big-endian. Media payloads reuse
// network.(Packet).AppendWire / network.ParseWire (one packet per 'M')
// and network.AppendWireBatch / network.ParseWireBatch (several small
// packets coalesced into one 'C' datagram), so FEC parity metadata
// survives the socket boundary and receivers can run network.RecoverFEC
// on what arrives. Receivers treat each packet inside a 'C' exactly as
// if it had arrived in its own 'M' — coalescing is a transport
// optimisation, invisible to loss accounting and FEC recovery.
package serve

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// protocolVersion gates hellos: a server rejects clients speaking a
// different version rather than mis-parsing them. Version 2 added the
// 'C' coalesced media datagram; version 3 added the media send
// timestamp and the report's end-to-end latency echo; version 4 added
// the hello's client nonce.
const protocolVersion = 4

// mediaHeaderLen is the 'M'/'C' datagram header: type byte, session
// id, send timestamp. Both media types share the layout, which is what
// lets the sender fan one rendered template out to a whole lineage by
// rewriting only this header per member (see sender.appendFrame).
const mediaHeaderLen = 1 + 4 + 8

// Datagram type bytes.
const (
	msgHello     = 'H'
	msgReport    = 'R'
	msgBye       = 'B'
	msgAccept    = 'A'
	msgReject    = 'J'
	msgMedia     = 'M'
	msgCoalesced = 'C'
	msgEnd       = 'E'
)

// hello is a client's session request.
type hello struct {
	Frames      int
	Regime      synth.Regime
	QP          int
	ReportEvery int
	FECGroup    int // 0 = no FEC, else parity every FECGroup media packets
	Interleave  int // <= 1 = contiguous packetisation, else n-way GOB interleave
	Nonce       uint64
}

// newNonce draws a hello nonce: one per client session, reused by its
// retransmits.
func newNonce() uint64 { return rand.Uint64() }

// helloLen is the encoded hello size.
const helloLen = 19

func appendHello(buf []byte, h hello) []byte {
	var b [helloLen]byte
	b[0] = msgHello
	b[1] = protocolVersion
	binary.BigEndian.PutUint32(b[2:6], uint32(h.Frames))
	b[6] = byte(h.Regime)
	b[7] = byte(h.QP)
	b[8] = byte(h.ReportEvery)
	b[9] = byte(h.FECGroup)
	b[10] = byte(h.Interleave)
	binary.BigEndian.PutUint64(b[11:19], h.Nonce)
	return append(buf, b[:]...)
}

func parseHello(b []byte) (hello, error) {
	if len(b) < 2 || b[0] != msgHello {
		return hello{}, fmt.Errorf("serve: malformed hello (%d bytes)", len(b))
	}
	if b[1] != protocolVersion {
		return hello{}, fmt.Errorf("serve: protocol version %d, want %d", b[1], protocolVersion)
	}
	if len(b) < helloLen {
		return hello{}, fmt.Errorf("serve: malformed hello (%d bytes)", len(b))
	}
	return hello{
		Frames:      int(binary.BigEndian.Uint32(b[2:6])),
		Regime:      synth.Regime(b[6]),
		QP:          int(b[7]),
		ReportEvery: int(b[8]),
		FECGroup:    int(b[9]),
		Interleave:  int(b[10]),
		Nonce:       binary.BigEndian.Uint64(b[11:19]),
	}, nil
}

func appendAccept(buf []byte, id uint32, frames int) []byte {
	var b [9]byte
	b[0] = msgAccept
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], uint32(frames))
	return append(buf, b[:]...)
}

func parseAccept(b []byte) (id uint32, frames int, err error) {
	if len(b) < 9 || b[0] != msgAccept {
		return 0, 0, fmt.Errorf("serve: malformed accept (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint32(b[1:5]), int(binary.BigEndian.Uint32(b[5:9])), nil
}

func appendReject(buf []byte, reason string) []byte {
	if len(reason) > 255 {
		reason = reason[:255]
	}
	buf = append(buf, msgReject, byte(len(reason)))
	return append(buf, reason...)
}

func parseReject(b []byte) (string, bool) {
	if len(b) < 2 || b[0] != msgReject || len(b) < 2+int(b[1]) {
		return "", false
	}
	return string(b[2 : 2+int(b[1])]), true
}

// appendMedia encodes one packet as an 'M' datagram. The session id
// and send timestamp are written as zero placeholders; the sender
// patches both into the header as the datagram leaves (template reuse
// across a lineage's members — see sender.appendFrame).
func appendMedia(buf []byte, id uint32, pkt network.Packet) []byte {
	var b [mediaHeaderLen]byte
	b[0] = msgMedia
	binary.BigEndian.PutUint32(b[1:5], id)
	buf = append(buf, b[:]...)
	return pkt.AppendWire(buf)
}

func parseMedia(b []byte) (id uint32, pkt network.Packet, err error) {
	if len(b) < mediaHeaderLen || b[0] != msgMedia {
		return 0, network.Packet{}, fmt.Errorf("serve: malformed media (%d bytes)", len(b))
	}
	id = binary.BigEndian.Uint32(b[1:5])
	pkt, err = network.ParseWire(b[mediaHeaderLen:])
	return id, pkt, err
}

// mediaStamp reads the send timestamp (unix µs) out of an 'M' or 'C'
// datagram header; 0 when the datagram is too short to carry one.
func mediaStamp(b []byte) int64 {
	if len(b) < mediaHeaderLen || (b[0] != msgMedia && b[0] != msgCoalesced) {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b[5:13]))
}

// appendCoalesced encodes several packets for one session into a
// single 'C' datagram (the sender's per-flush coalescing; see
// network.AppendWireBatch for the container format). Like appendMedia,
// id and timestamp are placeholders the sender patches.
func appendCoalesced(buf []byte, id uint32, pkts []network.Packet) []byte {
	var b [mediaHeaderLen]byte
	b[0] = msgCoalesced
	binary.BigEndian.PutUint32(b[1:5], id)
	buf = append(buf, b[:]...)
	return network.AppendWireBatch(buf, pkts)
}

// parseCoalesced appends the datagram's packets to dst, mirroring
// network.ParseWireBatch's strictness: a truncated or trailing-bytes
// container is an error, never phantom packets.
func parseCoalesced(dst []network.Packet, b []byte) (id uint32, pkts []network.Packet, err error) {
	if len(b) < mediaHeaderLen || b[0] != msgCoalesced {
		return 0, dst, fmt.Errorf("serve: malformed coalesced media (%d bytes)", len(b))
	}
	id = binary.BigEndian.Uint32(b[1:5])
	pkts, err = network.ParseWireBatch(dst, b[mediaHeaderLen:])
	return id, pkts, err
}

// report is one receiver feedback datagram: the interval fraction lost
// (what adapt.PLREstimator.ObserveReport consumes), cumulative-interval
// receive/loss counts for the server's books, and the client's
// freshest end-to-end latency sample (receive clock minus the media
// header's send stamp, µs; 0 = no sample this interval).
type report struct {
	Session   uint32
	Fraction  float64
	Received  int64
	Lost      int64
	E2EMicros uint32
}

func appendReport(buf []byte, r report) []byte {
	var b [19]byte
	b[0] = msgReport
	binary.BigEndian.PutUint32(b[1:5], r.Session)
	perMille := int(r.Fraction * 1000)
	if perMille < 0 {
		perMille = 0
	}
	if perMille > 1000 {
		perMille = 1000
	}
	binary.BigEndian.PutUint16(b[5:7], uint16(perMille))
	binary.BigEndian.PutUint32(b[7:11], uint32(r.Received))
	binary.BigEndian.PutUint32(b[11:15], uint32(r.Lost))
	binary.BigEndian.PutUint32(b[15:19], r.E2EMicros)
	return append(buf, b[:]...)
}

func parseReport(b []byte) (report, error) {
	if len(b) < 19 || b[0] != msgReport {
		return report{}, fmt.Errorf("serve: malformed report (%d bytes)", len(b))
	}
	return report{
		Session:   binary.BigEndian.Uint32(b[1:5]),
		Fraction:  float64(binary.BigEndian.Uint16(b[5:7])) / 1000,
		Received:  int64(binary.BigEndian.Uint32(b[7:11])),
		Lost:      int64(binary.BigEndian.Uint32(b[11:15])),
		E2EMicros: binary.BigEndian.Uint32(b[15:19]),
	}, nil
}

func appendBye(buf []byte, id uint32) []byte {
	var b [5]byte
	b[0] = msgBye
	binary.BigEndian.PutUint32(b[1:5], id)
	return append(buf, b[:]...)
}

func parseBye(b []byte) (uint32, bool) {
	if len(b) < 5 || b[0] != msgBye {
		return 0, false
	}
	return binary.BigEndian.Uint32(b[1:5]), true
}

func appendEnd(buf []byte, id uint32, frames int) []byte {
	var b [9]byte
	b[0] = msgEnd
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], uint32(frames))
	return append(buf, b[:]...)
}

func parseEnd(b []byte) (id uint32, frames int, ok bool) {
	if len(b) < 9 || b[0] != msgEnd {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(b[1:5]), int(binary.BigEndian.Uint32(b[5:9])), true
}
