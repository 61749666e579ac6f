package serve

import (
	"fmt"
	"math"
	"time"

	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/network"
	"pbpair/internal/synth"
)

// The serving layer's central observation: the encoder is
// deterministic. Two sessions with the same cohort key (content
// regime, QP, FEC group, interleave — everything the client's hello
// can vary that reaches the encoder or packetiser) and the same
// applied (α̂, Intra_Th) trajectory produce bit-identical packet
// streams. The farm therefore encodes once per *lineage* — a group of
// sessions whose streams are still provably identical — and fans the
// packets out to every member. The moment a member's feedback moves
// its knobs away from its lineage-mates (a lossy receiver raising α̂),
// it forks: the encoder, planner and packetiser are cloned
// copy-on-divergence and the member continues on its own lineage with
// an unbroken bitstream and sequence space.
//
// Forking is reversible. A transient loss blip forks a session off its
// cohort, but once its α̂ decays back to exactly 0 (reachable because
// the applied knob is quantised — Config.AlphaQuantum) the forked
// lineage's stream re-synchronises with its cohort-mates': at knobs
// (0, 0) the planner's σ history is provably output-irrelevant, so two
// lineages with equal encoder state (reference frame, frame number,
// configuration) and equal packetiser sequence position produce
// bit-identical futures. The scheduler detects this — digest prefilter,
// then a deep state comparison — and folds the fork back into its
// cohort-mate (lineage re-merge), so a recovered receiver goes back to
// costing a packet fanout instead of a private encode per frame.
//
// On a machine where encode dominates the frame budget this is what
// makes thousands-of-session serving possible at all: N no-loss
// sessions of one cohort cost one encode per frame plus N packet
// fanouts, not N encodes. The trunk log (trunk.go) carries the same
// argument across time: lineages that start later replay the cohort's
// logged (0, 0) frames instead of encoding them again.

// cohortKey is the encode-affecting part of a client's hello. Sessions
// can share a lineage only when their keys are equal (server-side
// settings — MTU, search kind, worker count — are process-wide and so
// never split a cohort).
type cohortKey struct {
	regime     synth.Regime
	qp         int
	fec        int
	interleave int
}

func keyOf(h hello) cohortKey {
	return cohortKey{regime: h.Regime, qp: h.QP, fec: h.FECGroup, interleave: h.Interleave}
}

// gaugeName is the cohort's shared-fraction gauge:
// "server.cohort.<regime>_q<qp>_f<fec>_i<interleave>.shared_fraction".
func (k cohortKey) gaugeName() string {
	return fmt.Sprintf("server.cohort.%s_q%d_f%d_i%d.shared_fraction", k.regime, k.qp, k.fec, k.interleave)
}

// lineageKnobs is one frame's applied control state. Partitioning
// compares bit patterns, not values: two applied knob sets that differ
// in the last ulp have genuinely diverged and must fork (an
// approximate match would silently desynchronise planner σ state from
// what the receiver decodes against). The α̂ reaching here is already
// quantised (session.knobs), so estimator noise below the quantum
// never splits a cohort — exact comparison and coarse partitioning
// compose instead of fighting.
type lineageKnobs struct {
	plr float64
	th  float64
}

// bits returns the exact-equality partition key.
func (k lineageKnobs) bits() [2]uint64 {
	return [2]uint64{math.Float64bits(k.plr), math.Float64bits(k.th)}
}

// lineage is a group of sessions advancing in lockstep through one
// shared encoder. All fields are scheduler-owned; the encode worker
// borrows enc/planner/src/pktz/fec/counters only while inflight is
// true, during which the scheduler keeps its hands off.
//
// A trunk lineage (trunk.go) may hold no encode state at all (enc ==
// nil): it is a follower, served from its cohort's trunk log, and its
// state is by construction the trunk state after frame-1. Only trunk
// lineages are ever without an encoder.
type lineage struct {
	id      uint32
	key     cohortKey
	members []*session

	// home is the receive-shard index of the lineage's founding member:
	// the sticky key for the farm's per-worker job queues (see
	// scheduler.enqueue). Keying by receive shard instead of lineage id
	// aligns a session's inbound datagram stream, its lineage's encodes
	// and its outbound sender on one worker index — soft core affinity
	// for the whole per-session datapath.
	home int

	frame    int       // next frame index to encode
	due      time.Time // pacing: earliest next dispatch
	formed   time.Time // first member's admission (cohort window gate)
	started  bool      // frame 0 dispatched; no more joins
	inflight bool      // a job is out for this lineage (or it is borrowed as a dependent)

	// trunk: every dispatch so far applied knobs exactly (0, 0).
	trunk bool
	// dependents are follower forks that get their encode state by
	// cloning this lineage's, once its next job has materialised it. A
	// follower that forks is materialised once, not once per group.
	// Each dependent stays inflight (borrowed) until that job completes.
	dependents []*lineage

	src          synth.Source
	planner      *core.PBPAIR
	enc          *codec.Encoder
	counters     energy.Counters // written by the worker during encode
	prevCounters energy.Counters // worker-owned between jobs
	pktz         *network.Packetizer
	fec          *network.FECEncoder
}

// oldestMember returns the smallest member session id — the lineage's
// scheduling priority. Load shedding defers lineages with the largest
// value first, so the newest sessions degrade before anyone else.
func (l *lineage) oldestMember() uint32 {
	oldest := ^uint32(0)
	for _, m := range l.members {
		if m.id < oldest {
			oldest = m.id
		}
	}
	return oldest
}

// stateMatches reports whether two same-cohort lineages have
// bit-identical forward-looking encode state: same next frame, same
// transport sequence position, and encoders whose output-relevant
// state (configuration, frame number, reference frame) is equal. The
// cheap fields and a digest run first; the full reference-frame
// comparison only confirms what the digest already said. Planner σ is
// deliberately not compared — the caller guarantees both lineages are
// quiescent (applied knobs exactly (0, 0)), and at (0, 0) σ cannot
// influence any mode decision: the intra-refresh comparison σ < Th is
// unsatisfiable at Th = 0, and the ME σ-penalty carries a factor of
// α̂ = 0. Divergent σ histories therefore produce identical bytes.
func (l *lineage) stateMatches(o *lineage) bool {
	return l.frame == o.frame &&
		l.pktz.Seq() == o.pktz.Seq() &&
		l.enc.StateDigest() == o.enc.StateDigest() &&
		l.enc.StateEqual(o.enc)
}

// removeMember drops m from the member list (order preserved —
// fan-out order is stable for determinism of tests and traces).
func (l *lineage) removeMember(m *session) {
	for i, x := range l.members {
		if x == m {
			l.members = append(l.members[:i], l.members[i+1:]...)
			return
		}
	}
}

// fork splits a group of diverging members off onto a new lineage.
// Called by the scheduler before the parent's next dispatch, so parent
// and fork share every frame up to — but not including — the frame
// about to be encoded. When the parent holds encode state it is cloned
// here (a reference frame copy plus planner σ state: cheap relative to
// one encode); a follower parent has none, so the fork starts without
// any too and the scheduler arranges its materialisation.
func (l *lineage) fork(id uint32, members []*session) (*lineage, error) {
	nl := &lineage{
		id:      id,
		key:     l.key,
		members: members,
		home:    shardIdx(members[0]),
		frame:   l.frame,
		due:     l.due,
		formed:  l.formed,
		started: l.started,
		trunk:   l.trunk,
		src:     l.src, // sources are concurrency-safe and read-only
	}
	if l.enc != nil {
		if err := l.cloneInto(nl); err != nil {
			return nil, err
		}
	}
	for _, m := range members {
		m.lin = nl
		l.removeMember(m)
	}
	return nl, nil
}

// cloneInto gives d an independent copy of l's encode state.
func (l *lineage) cloneInto(d *lineage) error {
	d.planner = l.planner.Clone()
	d.pktz = l.pktz.Clone()
	d.counters = l.counters
	d.prevCounters = l.prevCounters
	var err error
	if d.enc, err = l.enc.Clone(d.planner, &d.counters); err != nil {
		return err
	}
	// FEC group state is flushed at every frame boundary, so a fresh
	// encoder with the same group size is an exact clone.
	return d.newFEC()
}

func (l *lineage) newFEC() error {
	l.fec = nil
	if l.key.fec > 0 {
		var err error
		if l.fec, err = network.NewFECEncoder(l.key.fec); err != nil {
			return err
		}
	}
	return nil
}

// restore builds l's encode state from a trunk checkpoint (nil: the
// stream start). The caller replays any frames between the checkpoint
// and l.frame.
func (l *lineage) restore(cfg *Config, ck *trunkCheckpoint) error {
	if ck != nil {
		l.planner = ck.planner.Clone()
		l.pktz = ck.pktz.Clone()
		l.counters = ck.counters
		var err error
		if l.enc, err = ck.enc.Clone(l.planner, &l.counters); err != nil {
			return err
		}
	} else {
		w, h := l.src.Dims()
		var err error
		if l.planner, err = newPlanner(w, h); err != nil {
			return err
		}
		l.pktz = network.NewPacketizer(cfg.MTU)
		l.counters = energy.Counters{}
		if l.enc, err = newLineageEncoder(cfg, l.key, w, h, l.planner, &l.counters); err != nil {
			return err
		}
	}
	l.prevCounters = l.counters
	return l.newFEC()
}

// encodeFrame encodes, packetises and protects one frame of l at knob,
// returning the packets and the frame's intra macroblock count. Farm
// workers call it on a borrowed (inflight) lineage.
func (l *lineage) encodeFrame(frame int, knob lineageKnobs) ([]network.Packet, int, error) {
	l.planner.SetPLR(knob.plr)
	l.planner.SetIntraTh(knob.th)
	ef, err := l.enc.EncodeFrame(l.src.Frame(frame))
	if err != nil {
		return nil, 0, err
	}
	var pkts []network.Packet
	if l.key.interleave > 1 {
		pkts = l.pktz.PacketizeInterleaved(ef, l.key.interleave)
	} else {
		pkts = l.pktz.Packetize(ef)
	}
	if l.fec != nil {
		pkts = append(l.fec.Protect(pkts), l.fec.Flush()...)
	}
	return pkts, ef.Plan.IntraCount(), nil
}

// dropState releases l's encode state: l becomes a follower again.
// Only legal for a trunk lineage, whose state the log reconstructs.
func (l *lineage) dropState() {
	l.enc, l.planner, l.pktz, l.fec = nil, nil, nil, nil
}

// newPlanner builds a fresh PBPAIR planner for a w×h stream (frame 0
// state: error-free σ matrix, α = Th = 0).
func newPlanner(w, h int) (*core.PBPAIR, error) {
	return core.New(core.Config{
		Rows: h / 16, Cols: w / 16,
		IntraTh: 0, PLR: 0,
	})
}

// newLineageEncoder builds a lineage's encoder from its cohort key and
// the server-wide codec settings.
func newLineageEncoder(cfg *Config, key cohortKey, w, h int, planner *core.PBPAIR, counters *energy.Counters) (*codec.Encoder, error) {
	return codec.NewEncoder(codec.Config{
		Width: w, Height: h,
		QP:       key.qp,
		Search:   cfg.Search,
		Planner:  planner,
		Counters: counters,
		Workers:  cfg.Workers,
	})
}
