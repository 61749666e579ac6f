package serve

import (
	"pbpair/internal/codec"
	"pbpair/internal/core"
	"pbpair/internal/energy"
	"pbpair/internal/network"
)

// The trunk log extends lineage sharing across time. Lineage dedup
// shares an encode between sessions that advance in lockstep; the
// trunk log shares it between sessions that start at different times.
//
// A trunk lineage is one whose every dispatch so far applied knobs
// exactly (0, 0). Its state after frame k — reference frame, planner
// σ, packetiser sequence position, cumulative energy counters — is a
// pure function of its cohort key and k, because the encoder is
// deterministic and nothing else ever reached it. So the first trunk
// lineage of a cohort to encode frame k appends the frame's packets
// and books to the cohort's log, and every later trunk lineage of that
// cohort serves frame k from the log: no encode, no source render, no
// encoder held (a follower).
//
// A follower needs encode state of its own only when its knobs leave
// (0, 0) or it reaches the end of the log. It then materialises inside
// its next farm job: restore the nearest checkpoint at or before the
// frame it last served, and replay the frames after it at (0, 0). The
// log keeps a checkpoint after every trunkCheckpointEvery-th frame, so
// a replay is at most trunkCheckpointEvery-1 encodes, and it is exact
// by the same determinism argument.
//
// Memory: each checkpoint holds one reference frame (codec.Encoder
// clones defer their scratch) plus σ, about one lineage's encode state,
// which admission already budgets per session. Live checkpoints across
// all logs are capped at Config.MaxSessions; a log whose next
// checkpoint would pass the cap stops growing (frozen), and trunk
// lineages past its end encode privately, as lineages did before the
// log existed. A log is freed once its cohort has no live members.

// trunkCheckpointEvery is the checkpoint spacing K: the log keeps a
// restore point after frames K-1, 2K-1, …, bounding a follower's
// materialisation replay to K-1 encodes. Smaller K trades memory (one
// reference frame per checkpoint) for shorter replays.
const trunkCheckpointEvery = 4

// trunkEntry is one logged trunk frame: everything fanout needs to
// serve it without encoding.
type trunkEntry struct {
	pkts        []network.Packet
	intraMBs    int
	frameEnergy float64
	counters    energy.Counters // cumulative through this frame
	ckpt        *trunkCheckpoint
}

// trunkCheckpoint is a frozen restore point: the trunk encode state
// after frame `frame`. Immutable once logged, so farm workers may
// restore from it concurrently.
type trunkCheckpoint struct {
	frame    int
	enc      *codec.Encoder // clone that never encodes: reference frame only
	planner  *core.PBPAIR
	pktz     *network.Packetizer
	counters energy.Counters
}

// trunkLog is one cohort's log. Scheduler-owned.
type trunkLog struct {
	entries []trunkEntry
	ckpts   int  // live checkpoints, released when the log is freed
	frozen  bool // a checkpoint was due past the cap: no more appends
	// writer is the lineage whose in-flight job will append the next
	// entry (nil when none). A trunk lineage that reaches the end of
	// the log while the writer is encoding that very frame joins it
	// instead of encoding a duplicate.
	writer *lineage
}

// restorePoint returns the latest checkpoint holding the trunk state
// after a frame at or before `frame` (nil: the stream start, which
// needs no checkpoint). The caller is a follower that served every
// frame up to `frame` from this log, so those entries exist, and every
// entry on a checkpoint frame carries its checkpoint (append refuses
// the entry otherwise): the replay after it is under
// trunkCheckpointEvery frames.
func (t *trunkLog) restorePoint(frame int) *trunkCheckpoint {
	c := (frame+1)/trunkCheckpointEvery*trunkCheckpointEvery - 1
	if c < 0 {
		return nil
	}
	return t.entries[c].ckpt
}

// isCheckpointFrame reports whether the trunk state after frame k is
// kept as a restore point.
func isCheckpointFrame(k int) bool { return (k+1)%trunkCheckpointEvery == 0 }

// checkpointOf freezes l's current encode state (after frame
// l.frame-1) into a restore point.
func checkpointOf(l *lineage, counters energy.Counters) (*trunkCheckpoint, error) {
	ck := &trunkCheckpoint{
		frame:    l.frame - 1,
		planner:  l.planner.Clone(),
		pktz:     l.pktz.Clone(),
		counters: counters,
	}
	var err error
	if ck.enc, err = l.enc.Clone(ck.planner, &ck.counters); err != nil {
		return nil, err
	}
	return ck, nil
}
