package serve

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"pbpair/internal/network"
)

// sender is one shard's transmit goroutine (single-socket servers have
// exactly one). It drains its enrolled sessions' frame queues per
// flush pass, coalesces small packets into 'C' datagrams (bounded by
// the coalesce limit so the path MTU is respected), and pushes the
// whole pass to the kernel through a network.BatchSender — one
// sendmmsg(2) per flush on Linux instead of one sendto per packet.
// Datagram buffers and the batch slice are recycled across flushes, so
// a steady-state flush allocates nothing. With RecvShards > 1 each
// shard's sender owns that shard's socket, so send-side coalescing no
// longer serialises every session through one goroutine: admission
// pins each session to the shard that received its hello (session.sh)
// and the scheduler enrolls it with that shard's sender.
//
// Shared-lineage fanout reuses wire templates: the members of one
// lineage queue the *same* packet slice for a frame, so the sender
// renders the datagram payloads once per (frame, lineage) — with a
// zero session-id/timestamp placeholder — and per member emits
// two-segment datagrams (network.Datagram.Tail): a 13-byte header
// carrying the member's id and the send stamp, plus the shared
// template body, submitted to the kernel as two iovecs. Fanning a
// frame out to a thousand members costs a thousand header patches, not
// a thousand ~MTU-sized template copies.
type sender struct {
	srv *Server
	sh  *shard

	wake chan struct{}

	// Both cross-goroutine hand-offs — scheduler→sender registrations
	// and sender→scheduler End confirmations — are mutex-guarded slices,
	// never bounded channels. A mega-lineage can end thousands of
	// members in one flush; with bounded channels on both edges the
	// sender blocks handing Ends to the scheduler while the scheduler
	// blocks handing registrations to the sender, and the read loop
	// piles up behind admission — a whole-server deadlock.
	mu     sync.Mutex
	joined []*session // enrolled, not yet folded into members
	ended  []*session // End burst on the wire, awaiting scheduler finalize

	members []*session
	batch   network.BatchSender

	// stamp is the flush's send timestamp (unix µs), patched into every
	// media header of the pass: one clock read per flush, not per
	// datagram, and well within the power-of-two latency buckets the
	// other end feeds.
	stamp uint64

	dgrams []network.Datagram
	bufs   [][]byte
	nbuf   int

	// hbufs pools the per-member media header segments (13 bytes each;
	// pooled separately from bufs so the fanout path doesn't burn
	// MTU-sized buffers on headers).
	hbufs [][]byte
	nhbuf int

	// Per-flush template cache, keyed by the identity of a queued
	// frame's first packet (members of a lineage share the exact
	// slice, so the pointer is the frame's identity within a flush).
	// Cleared each flush; entries and their buffers are recycled.
	tmpl  map[*network.Packet]*frameTemplate
	tents []*frameTemplate
	nent  int
	tbufs [][]byte
	ntbuf int
}

// frameTemplate is one frame's rendered datagram payloads with a zero
// session id and timestamp in the media header of each, plus the
// packet/coalesce accounting shared by every member that sends it.
type frameTemplate struct {
	bufs      [][]byte
	npkts     int64
	coalesced int64
}

func newSender(srv *Server, sh *shard) *sender {
	return &sender{
		srv:   srv,
		sh:    sh,
		wake:  make(chan struct{}, 1),
		batch: network.NewBatchSender(sh.conn),
		tmpl:  make(map[*network.Packet]*frameTemplate),
	}
}

// enroll hands a newly admitted session to the sender. Called by the
// scheduler; the sender folds registrations in at its next pass.
// Never blocks — see the sender.mu comment.
func (sn *sender) enroll(m *session) {
	sn.mu.Lock()
	sn.joined = append(sn.joined, m)
	sn.mu.Unlock()
	sn.poke()
}

// takeEnded hands the scheduler every member whose End burst is on the
// wire, reusing the caller's scratch slice. Never blocks.
func (sn *sender) takeEnded(scratch []*session) []*session {
	sn.mu.Lock()
	scratch = append(scratch[:0], sn.ended...)
	clear(sn.ended)
	sn.ended = sn.ended[:0]
	sn.mu.Unlock()
	return scratch
}

// poke nudges the sender without blocking.
func (sn *sender) poke() {
	select {
	case sn.wake <- struct{}{}:
	default:
	}
}

// buf returns a recycled datagram buffer.
func (sn *sender) buf() []byte {
	if sn.nbuf < len(sn.bufs) {
		b := sn.bufs[sn.nbuf][:0]
		sn.nbuf++
		return b
	}
	b := make([]byte, 0, sn.srv.cfg.MTU+64)
	sn.bufs = append(sn.bufs, b)
	sn.nbuf++
	return b
}

// hbuf returns a recycled media header segment buffer.
func (sn *sender) hbuf() []byte {
	if sn.nhbuf < len(sn.hbufs) {
		b := sn.hbufs[sn.nhbuf][:0]
		sn.nhbuf++
		return b
	}
	b := make([]byte, 0, mediaHeaderLen)
	sn.hbufs = append(sn.hbufs, b)
	sn.nhbuf++
	return b
}

// run is the sender goroutine body.
func (sn *sender) run(ctx context.Context) {
	defer sn.srv.farmWG.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-sn.wake:
		}
		sn.mu.Lock()
		sn.members = append(sn.members, sn.joined...)
		clear(sn.joined)
		sn.joined = sn.joined[:0]
		sn.mu.Unlock()
		sn.flush()
	}
}

// flush drains every member queue into one batched send. Members whose
// queues closed get their End burst appended to the same batch; their
// confirmations go to the scheduler only after the batch is on the
// wire, so finalised packet counts are complete.
func (sn *sender) flush() {
	sn.dgrams = sn.dgrams[:0]
	sn.nbuf = 0
	sn.nhbuf = 0
	sn.nent = 0
	sn.ntbuf = 0
	clear(sn.tmpl)
	sn.stamp = uint64(time.Now().UnixMicro())
	var ended []*session
	live := sn.members[:0]
	for _, m := range sn.members {
		closed := false
		var hdr []byte // m's media header this flush, built on first use
	memberDrain:
		for {
			select {
			case item, ok := <-m.queue.ch:
				if !ok {
					closed = true
					break memberDrain
				}
				hdr = sn.appendFrame(m, item, hdr)
			default:
				break memberDrain
			}
		}
		if closed {
			// End of stream: repeat the End datagram a few times so a
			// lossy path is unlikely to strand the client until its
			// idle timeout. Flip endSent first — the instant the burst
			// is on the wire the client can close, so a hello retransmit
			// that arrives from now on must get the End repeated rather
			// than the accept (see handleHello).
			m.endSent.Store(true)
			frames := int(m.framesEncoded.Load())
			for i := 0; i < 3; i++ {
				buf := appendEnd(sn.buf(), m.id, frames)
				sn.dgrams = append(sn.dgrams, network.Datagram{Payload: buf, Addr: m.client})
			}
			ended = append(ended, m)
		} else {
			live = append(live, m)
		}
	}
	sn.members = live
	if len(sn.dgrams) > 0 {
		sent, err := sn.batch.SendBatch(sn.dgrams)
		sn.srv.mSendBatches.Add(1)
		sn.srv.mSendDatagrams.Add(int64(sent))
		if sent != len(sn.dgrams) {
			sn.srv.cfg.logf("sender: short batch %d/%d (%v)", sent, len(sn.dgrams), err)
		}
	}
	if len(ended) > 0 {
		sn.mu.Lock()
		sn.ended = append(sn.ended, ended...)
		sn.mu.Unlock()
		sn.srv.sched.poke()
	}
}

// appendFrame turns one queued frame into datagrams for member m and
// accounts the frame's scheduling→wire latency. Each datagram is the
// member's patched 13-byte header (hdr, built once per member per
// flush — every media datagram of a flush shares the member's id, the
// flush stamp and the config-determined type byte) plus the frame
// template's shared body as the scatter-gather tail. It returns hdr so
// the caller can thread it through the member's drain.
func (sn *sender) appendFrame(m *session, item queuedFrame, hdr []byte) []byte {
	if len(item.pkts) == 0 {
		sn.srv.mFrameLat.Observe(time.Since(item.enqueued))
		return hdr
	}
	te := sn.template(item.pkts)
	if hdr == nil {
		hdr = sn.hbuf()
		hdr = append(hdr, te.bufs[0][:mediaHeaderLen]...)
		binary.BigEndian.PutUint32(hdr[1:5], m.id)
		binary.BigEndian.PutUint64(hdr[5:13], sn.stamp)
	}
	var nbytes int64
	for _, tb := range te.bufs {
		sn.dgrams = append(sn.dgrams, network.Datagram{
			Payload: hdr,
			Tail:    tb[mediaHeaderLen:],
			Addr:    m.client,
		})
		nbytes += int64(len(tb))
	}
	if te.coalesced > 0 {
		sn.srv.mCoalesced.Add(te.coalesced)
	}
	m.mPackets.Add(te.npkts)
	m.mBytes.Add(nbytes)
	sn.srv.mFrameLat.Observe(time.Since(item.enqueued))
	return hdr
}

// template returns the flush-scoped wire template for a queued packet
// slice, rendering it on first sight: the packets coalesced into 'C'
// datagrams (or one-packet 'M's when coalescing is disabled) with zero
// session id and timestamp placeholders in the media header — both
// media datagram types share the header layout, which is what makes
// the per-member patch work.
func (sn *sender) template(pkts []network.Packet) *frameTemplate {
	key := &pkts[0]
	if te := sn.tmpl[key]; te != nil {
		return te
	}
	te := sn.tent()
	limit := sn.srv.cfg.CoalesceBytes
	for start := 0; start < len(pkts); {
		end := start + 1
		size := mediaHeaderLen + 1 + 2 + pkts[start].WireSize()
		for end < len(pkts) && end-start < network.MaxBatchPackets {
			next := size + 2 + pkts[end].WireSize()
			if next > limit {
				break
			}
			size = next
			end++
		}
		var buf []byte
		if end == start+1 && limit <= 0 {
			// Coalescing disabled: classic one-packet 'M' datagrams.
			buf = appendMedia(sn.tbuf(), 0, pkts[start])
		} else {
			buf = appendCoalesced(sn.tbuf(), 0, pkts[start:end])
		}
		te.bufs = append(te.bufs, buf)
		te.npkts += int64(end - start)
		if end-start > 1 {
			te.coalesced += int64(end - start)
		}
		start = end
	}
	sn.tmpl[key] = te
	return te
}

// tent returns a recycled template entry.
func (sn *sender) tent() *frameTemplate {
	if sn.nent < len(sn.tents) {
		te := sn.tents[sn.nent]
		sn.nent++
		te.bufs = te.bufs[:0]
		te.npkts, te.coalesced = 0, 0
		return te
	}
	te := &frameTemplate{}
	sn.tents = append(sn.tents, te)
	sn.nent++
	return te
}

// tbuf returns a recycled template payload buffer (the templates'
// analogue of buf; separate pools because template buffers must stay
// intact for the whole flush while datagram buffers are per-datagram).
func (sn *sender) tbuf() []byte {
	if sn.ntbuf < len(sn.tbufs) {
		b := sn.tbufs[sn.ntbuf][:0]
		sn.ntbuf++
		return b
	}
	b := make([]byte, 0, sn.srv.cfg.MTU+64)
	sn.tbufs = append(sn.tbufs, b)
	sn.ntbuf++
	return b
}
