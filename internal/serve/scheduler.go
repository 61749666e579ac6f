package serve

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pbpair/internal/adapt"
	"pbpair/internal/energy"
	"pbpair/internal/network"
	"pbpair/internal/obs"
	"pbpair/internal/parallel"
)

// encodeJob is one unit of farm work: encode frame `frame` of lineage
// `lin` with the knobs its members agreed on, packetise and protect
// it. The scheduler fills the top half, a farm worker the bottom.
//
// A job may also carry trunk-log work (trunk.go): restoring replays the
// lineage up to `frame` from a checkpoint before encoding it, forks
// receive a clone of the restored state, and a fromLog job is a trunk
// hit the scheduler completes itself — no farm, no encode.
type encodeJob struct {
	lin   *lineage
	frame int
	knob  lineageKnobs
	start time.Time // dispatch stamp; end-to-end frame latency baseline

	restore *trunkCheckpoint // when lin holds no encode state: restore point (nil: the stream start)
	forks   []*lineage       // dependents cloned from the restored state
	fromLog bool             // trunk hit: served from the log

	pkts        []network.Packet
	intraMBs    int
	frameEnergy float64
	counters    energy.Counters // lineage's cumulative counters after the frame
	replayed    int             // frames replayed while materialising
	encodeTime  time.Duration
	err         error
}

// scheduler is the serving layer's single control goroutine: it owns
// every lineage and every session's control state, so no lock guards
// any of it. Work arrives on channels (admissions from the read loop,
// completed jobs from the farm, End confirmations from the sender,
// wake pokes) and leaves as encode jobs on a bounded queue.
//
// Load shedding: the job queue bound is the overload signal. When a
// dispatch pass cannot enqueue every due lineage, the newest lineages
// (largest oldest-member id) are deferred first and the server is
// flagged overloaded, which makes admission reject new hellos until
// the backlog drains. Deferral costs a session nothing but added frame
// latency — and if its queue then overflows, drop-oldest eviction
// surfaces as wire loss, which is exactly the signal the §3.2 loop is
// built to absorb.
type scheduler struct {
	srv *Server

	admit chan *session
	wake  chan struct{}
	// jobs is sharded per worker: each worker owns one queue, and
	// dispatch assigns a lineage to the queue at lin.home — the
	// founder's receive-shard index — modulo the worker count (sticky,
	// so a lineage's cache-warm encode state keeps landing on the same
	// core, and aligned with the shard whose socket and sender carry
	// the founder's datagrams), spilling to the next queues when the
	// sticky one is full. Past GOMAXPROCS=1 this partitions the
	// dispatch fan-in instead of funnelling every worker through one
	// contended channel.
	jobs    []chan *encodeJob
	results chan *encodeJob

	qctl       *adapt.QualityController
	lineages   []*lineage
	pendingEnd map[uint32]*session // queue closed, awaiting sender End
	endScratch []*session          // scratch for sender.takeEnded
	nextLinID  uint32
	overloaded bool

	// orderDirty elides the dispatch-order sort: lineages are sorted by
	// oldest member only after membership or the lineage set changed,
	// not on every pass (at thousands of paced sessions, most passes
	// change nothing).
	orderDirty bool
	// cohortGauges tracks the per-cohort shared-fraction gauges
	// ("server.cohort.<name>.shared_fraction"); entries are removed
	// from the registry when their cohort has no members left.
	cohortGauges map[cohortKey]*obs.Gauge
	cohortCounts map[cohortKey][2]int // scratch: members, lineages

	// trunks holds each live cohort's trunk log (trunk.go); checkpoints
	// counts live checkpoints across all of them (capped at
	// MaxSessions). hits collects a dispatch pass's trunk hits, which
	// complete once the pass has finished walking the lineage list.
	trunks      map[cohortKey]*trunkLog
	checkpoints int
	hits        []*encodeJob
}

func newScheduler(srv *Server, qctl *adapt.QualityController) *scheduler {
	// FarmBacklog stays the total job bound; each worker queue gets an
	// equal share (rounded up so every queue can hold at least one job).
	perQueue := (srv.cfg.FarmBacklog + srv.cfg.FarmWorkers - 1) / srv.cfg.FarmWorkers
	if perQueue < 1 {
		perQueue = 1
	}
	jobs := make([]chan *encodeJob, srv.cfg.FarmWorkers)
	for i := range jobs {
		jobs[i] = make(chan *encodeJob, perQueue)
	}
	return &scheduler{
		srv:          srv,
		admit:        make(chan *session, 256),
		wake:         make(chan struct{}, 1),
		jobs:         jobs,
		results:      make(chan *encodeJob, srv.cfg.FarmBacklog+srv.cfg.FarmWorkers),
		qctl:         qctl,
		pendingEnd:   make(map[uint32]*session),
		cohortGauges: make(map[cohortKey]*obs.Gauge),
		cohortCounts: make(map[cohortKey][2]int),
		trunks:       make(map[cohortKey]*trunkLog),
	}
}

// poke nudges the scheduler without blocking (coalescing is fine: one
// pass services everything pending).
func (sc *scheduler) poke() {
	select {
	case sc.wake <- struct{}{}:
	default:
	}
}

// run is the scheduler goroutine body.
func (sc *scheduler) run(ctx context.Context) {
	defer sc.srv.farmWG.Done()
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		if d, ok := sc.nextDue(); ok {
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			sc.hardStop(ctx)
			return
		case s := <-sc.admit:
			sc.place(s, time.Now())
		case job := <-sc.results:
			sc.complete(job, time.Now())
		case <-sc.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
		// Fold any burst into this pass before dispatching.
	drain:
		for {
			select {
			case s := <-sc.admit:
				sc.place(s, time.Now())
			case job := <-sc.results:
				sc.complete(job, time.Now())
			default:
				break drain
			}
		}
		// Collect every shard sender's End confirmations (a sender pokes
		// wake when new ones land, so none linger past the pass they
		// arrived in).
		for _, sh := range sc.srv.shards {
			sc.endScratch = sh.snd.takeEnded(sc.endScratch[:0])
			for _, m := range sc.endScratch {
				sc.finalize(m, nil)
			}
		}
		clear(sc.endScratch)
		now := time.Now()
		sc.reap(now)
		sc.dispatch(now)
	}
}

// nextDue returns how long until the earliest lineage becomes
// dispatchable, clamped to >= 1ms so a deferred-due lineage cannot
// spin the loop.
func (sc *scheduler) nextDue() (time.Duration, bool) {
	var earliest time.Time
	for _, l := range sc.lineages {
		if l.inflight || len(l.members) == 0 {
			continue
		}
		t := l.due
		if !l.started && sc.srv.cfg.CohortWindow > 0 {
			if g := l.formed.Add(sc.srv.cfg.CohortWindow); g.After(t) {
				t = g
			}
		}
		if earliest.IsZero() || t.Before(earliest) {
			earliest = t
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	d := time.Until(earliest)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}

// place admits a session into the farm: controller state, metrics, and
// a lineage — joining an existing frame-0 lineage of its cohort when
// one exists (encode sharing), otherwise founding a new one.
func (sc *scheduler) place(s *session, now time.Time) {
	cfg := &sc.srv.cfg
	var err error
	if s.est, err = adapt.NewPLREstimator(cfg.EstimatorWeight); err != nil {
		sc.admitFailed(s, err)
		return
	}
	if cfg.EnergyBudget > 0 {
		if s.ectl, err = adapt.NewEnergyController(cfg.EnergyBudget, 0, 0); err != nil {
			sc.admitFailed(s, err)
			return
		}
	}
	s.lastFeedback = now
	s.deadline = now.Add(cfg.SessionTimeout)
	s.sum = SessionSummary{ID: s.id, Client: s.client.String(), FramesRequested: s.req.Frames}
	s.registerMetrics(sc.srv.reg)

	key := keyOf(s.req)
	for _, l := range sc.lineages {
		// Joinable while still at frame 0 on the trunk: every frame-0
		// dispatch uses knobs (0, 0) — no feedback can have arrived yet —
		// so a joiner is bit-identical to the founders by construction.
		if l.key == key && l.frame == 0 && l.trunk {
			l.members = append(l.members, s)
			s.lin = l
			sc.orderDirty = true
			sc.srv.shards[shardIdx(s)].snd.enroll(s)
			return
		}
	}
	l := sc.newLineage(key, s, now)
	sc.lineages = append(sc.lineages, l)
	sc.orderDirty = true
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
	sc.srv.shards[shardIdx(s)].snd.enroll(s)
}

// admitFailed finishes a session that never got encode state (the
// accept was already sent, so the client is left to its idle timeout —
// this path needs a construction error, which no valid hello produces).
func (sc *scheduler) admitFailed(s *session, err error) {
	s.sum.Err = err.Error()
	s.finished = true
	sc.srv.finishSession(s)
}

// newLineage founds a trunk lineage for s at frame 0. It holds no
// encode state: its first job materialises it from the stream start,
// unless its cohort's trunk log already covers the frames it needs.
func (sc *scheduler) newLineage(key cohortKey, s *session, now time.Time) *lineage {
	sc.trunkFor(key)
	sc.nextLinID++
	l := &lineage{
		id:      sc.nextLinID,
		key:     key,
		members: []*session{s},
		home:    shardIdx(s),
		formed:  now,
		due:     now,
		trunk:   true,
		src:     sc.srv.sourceFor(key.regime),
	}
	s.lin = l
	return l
}

// reap handles graceful stops, session deadlines and feedback
// timeouts. Runs every pass so a bye or Shutdown acts promptly even on
// a lineage that is not due.
func (sc *scheduler) reap(now time.Time) {
	cfg := &sc.srv.cfg
	for _, l := range append([]*lineage(nil), sc.lineages...) {
		for _, m := range append([]*session(nil), l.members...) {
			if m.closing {
				continue
			}
			if m.stopReq.Load() {
				sc.closeMember(m)
				continue
			}
			if now.After(m.deadline) {
				m.sum.Err = "serve: session deadline exceeded"
				sc.closeMember(m)
				continue
			}
			if cfg.ReportTimeout > 0 && m.req.ReportEvery > 0 {
				m.drainFeedback(now)
				if now.Sub(m.lastFeedback) > cfg.ReportTimeout {
					m.sum.Err = fmt.Sprintf("serve: no receiver feedback for %v", cfg.ReportTimeout)
					sc.closeMember(m)
				}
			}
		}
	}
}

// dispatch runs one scheduling pass: oldest-member-first over due
// lineages, partitioning each by the knobs its members want (forking
// divergers), serving trunk lineages from their cohort's trunk log
// where it reaches, and handing encode jobs to the farm until the
// backlog is full. Everything left over is load-shed: deferred,
// counted, and — via the overloaded flag — admission-gated. Trunk hits
// take no farm slot, so they are never deferred by a full backlog.
func (sc *scheduler) dispatch(now time.Time) {
	if sc.orderDirty {
		sort.Slice(sc.lineages, func(i, j int) bool {
			return sc.lineages[i].oldestMember() < sc.lineages[j].oldestMember()
		})
		sc.orderDirty = false
		sc.updateCohortShared()
	}
	overloaded := false
	// Partitioning may append forked lineages; they inherit the parent's
	// due time and are picked up by the index loop.
	for i := 0; i < len(sc.lineages); i++ {
		l := sc.lineages[i]
		if l.inflight || len(l.members) == 0 {
			continue
		}
		if !l.started && now.Before(l.formed.Add(sc.srv.cfg.CohortWindow)) {
			continue
		}
		if now.Before(l.due) {
			continue
		}
		// Past a full backlog only a possible trunk hit — which needs no
		// farm slot — is worth partitioning; everything else waits whole.
		if overloaded && !(l.trunk && l.frame < len(sc.trunkFor(l.key).entries)) {
			sc.srv.mShedDeferrals.Add(1)
			continue
		}
		knob, shells, ok := sc.partition(l, now)
		if !ok {
			continue // lineage dissolved (fork error path)
		}
		zero := knob.bits() == [2]uint64{}
		if zero && !l.trunk && sc.rejoin(l) {
			sc.srv.cfg.logf("lineage %d: rejoined the trunk at frame %d", l.id, l.frame)
		}
		act, writer := actEncode, (*lineage)(nil)
		if l.trunk && zero && len(l.dependents) == 0 {
			act, writer = sc.trunkAction(l)
		}
		if len(shells) > 0 {
			// A follower forked: materialise once and clone for the rest.
			// The host is l itself when it encodes this pass anyway,
			// otherwise the first fork.
			host := l
			if act != actEncode {
				host, shells = shells[0], shells[1:]
			}
			for _, d := range shells {
				d.inflight = true // borrowed until host's job clones into it
			}
			host.dependents = append(host.dependents, shells...)
			if len(shells) > 0 {
				sc.srv.cfg.logf("lineage %d: follower fork at frame %d, materialised once for %d dependent lineages",
					host.id, host.frame, len(shells))
			}
		}
		switch act {
		case actHit:
			sc.hit(l, knob, now)
			continue
		case actJoin:
			sc.join(l, writer)
			i-- // l left the list; its successor now sits at index i
			continue
		}
		if overloaded {
			sc.srv.mShedDeferrals.Add(1)
			continue
		}
		job := &encodeJob{lin: l, frame: l.frame, knob: knob, start: now, forks: l.dependents}
		if l.enc == nil {
			// Followers hold the trunk state after frame-1 by construction.
			job.restore = sc.trunkFor(l.key).restorePoint(l.frame - 1)
		}
		if sc.enqueue(l, job) {
			l.inflight = true
			l.started = true
			l.dependents = nil
			if !zero {
				l.trunk = false
			} else if t := sc.trunkFor(l.key); l.trunk && !t.frozen && l.frame == len(t.entries) {
				t.writer = l
			}
			if sc.srv.cfg.FrameInterval > 0 {
				l.due = now.Add(sc.srv.cfg.FrameInterval)
			}
		} else {
			overloaded = true
			sc.srv.mShedDeferrals.Add(1)
		}
	}
	// Trunk hits complete after the walk: completion may merge or drop
	// lineages, which must not reshuffle the list under the index loop.
	for _, job := range sc.hits {
		sc.complete(job, now)
	}
	clear(sc.hits)
	sc.hits = sc.hits[:0]
	depth := 0
	for _, q := range sc.jobs {
		depth += len(q)
	}
	sc.srv.mFarmDepth.Set(float64(depth))
	sc.setOverloaded(overloaded)
}

// trunkAct is what a trunk lineage whose members all want (0, 0) does
// with its next frame.
type trunkAct int

const (
	actEncode trunkAct = iota // encode it (materialising first if needed)
	actHit                    // serve it from the trunk log
	actJoin                   // join the log's writer, which is encoding it now
)

func (sc *scheduler) trunkAction(l *lineage) (trunkAct, *lineage) {
	t := sc.trunkFor(l.key)
	switch {
	case l.frame < len(t.entries):
		return actHit, nil
	case !t.frozen && !sc.srv.cfg.DisableMerge && t.writer != nil && t.writer != l && t.writer.frame == l.frame:
		return actJoin, t.writer
	}
	return actEncode, nil
}

// join folds trunk lineage l into w, the log's writer, whose in-flight
// job encodes exactly the frame l needs next: both are trunk lineages
// at the same frame, identical by construction, and the completion
// fans the frame out to every member w has by then. Followers behind
// a writer whose encodes outlast the frame interval would otherwise
// trail it one frame apart forever, never idle together for tryMerge.
func (sc *scheduler) join(l, w *lineage) {
	for _, m := range l.members {
		m.lin = w
	}
	w.members = append(w.members, l.members...)
	l.members = nil
	sc.dropLineage(l)
	sc.srv.mMerges.Add(1)
	sc.srv.cfg.logf("lineage %d: joined trunk writer lineage %d at frame %d (%d members)",
		l.id, w.id, w.frame, len(w.members))
}

// hit queues a trunk hit: frame l.frame served from the log. A trunk
// lineage that still held encode state (one materialised for a fork, or
// a former writer the log has caught up with) drops it — the log's
// checkpoints reconstruct it whenever it is needed again.
func (sc *scheduler) hit(l *lineage, knob lineageKnobs, now time.Time) {
	e := &sc.trunkFor(l.key).entries[l.frame]
	l.dropState()
	l.inflight = true
	l.started = true
	if sc.srv.cfg.FrameInterval > 0 {
		l.due = now.Add(sc.srv.cfg.FrameInterval)
	}
	sc.hits = append(sc.hits, &encodeJob{
		lin: l, frame: l.frame, knob: knob, start: now, fromLog: true,
		pkts: e.pkts, intraMBs: e.intraMBs, frameEnergy: e.frameEnergy, counters: e.counters,
	})
}

// enqueue offers a job to the lineage's sticky worker queue first, then
// spills to the others; false means every queue is full (overload).
func (sc *scheduler) enqueue(l *lineage, job *encodeJob) bool {
	qi := l.home % len(sc.jobs)
	for k := 0; k < len(sc.jobs); k++ {
		select {
		case sc.jobs[(qi+k)%len(sc.jobs)] <- job:
			return true
		default:
		}
	}
	return false
}

// updateCohortShared refreshes the per-cohort shared-fraction gauges:
// 1 − lineages/members per cohort (1 would mean every member rides one
// lineage for free; 0 means every member encodes privately). Gauges of
// emptied cohorts are unregistered so the registry tracks the live set,
// and their trunk logs are freed.
func (sc *scheduler) updateCohortShared() {
	counts := sc.cohortCounts
	clear(counts)
	for _, l := range sc.lineages {
		if len(l.members) == 0 {
			continue
		}
		c := counts[l.key]
		c[0] += len(l.members)
		c[1]++
		counts[l.key] = c
	}
	for key := range sc.cohortGauges {
		if _, live := counts[key]; !live {
			sc.srv.reg.Remove(key.gaugeName())
			delete(sc.cohortGauges, key)
		}
	}
	for key, t := range sc.trunks {
		if _, live := counts[key]; !live {
			sc.checkpoints -= t.ckpts
			delete(sc.trunks, key)
		}
	}
	sc.srv.mTrunkCkpts.Set(float64(sc.checkpoints))
	for key, c := range counts {
		g := sc.cohortGauges[key]
		if g == nil {
			g = sc.srv.reg.Gauge(key.gaugeName())
			sc.cohortGauges[key] = g
		}
		g.Set(1 - float64(c[1])/float64(c[0]))
	}
}

func (sc *scheduler) setOverloaded(v bool) {
	if v == sc.overloaded {
		return
	}
	sc.overloaded = v
	sc.srv.overloaded.Store(v)
	if v {
		sc.srv.mOverloaded.Set(1)
	} else {
		sc.srv.mOverloaded.Set(0)
	}
}

// partition drains every member's feedback, groups members by the
// knobs they want applied next, forks every group that diverged from
// the one holding the oldest member, and returns the knobs for the
// lineage l itself. Forked lineages keep l's due time, so divergence
// never costs a frame of pacing. Forks of a follower (l.enc == nil)
// come back as shells without encode state; dispatch arranges their
// materialisation.
func (sc *scheduler) partition(l *lineage, now time.Time) (lineageKnobs, []*lineage, bool) {
	type group struct {
		knob    lineageKnobs
		members []*session
	}
	groups := make(map[[2]uint64]*group)
	var order [][2]uint64
	for _, m := range l.members {
		m.drainFeedback(now)
		k := m.knobs(sc.qctl, sc.srv.cfg.AlphaQuantum)
		bits := k.bits()
		g := groups[bits]
		if g == nil {
			g = &group{knob: k}
			groups[bits] = g
			order = append(order, bits)
		}
		g.members = append(g.members, m)
	}
	// The group holding the oldest member keeps the parent lineage (and
	// with it the parent's scheduling priority).
	keeper := order[0]
	oldest := ^uint32(0)
	for _, bits := range order {
		for _, m := range groups[bits].members {
			if m.id < oldest {
				oldest = m.id
				keeper = bits
			}
		}
	}
	var shells []*lineage
	for _, bits := range order {
		if bits == keeper {
			continue
		}
		g := groups[bits]
		sc.nextLinID++
		nl, err := l.fork(sc.nextLinID, g.members)
		if err != nil {
			for _, m := range g.members {
				m.sum.Err = err.Error()
				sc.closeMember(m)
			}
			continue
		}
		if nl.enc == nil {
			shells = append(shells, nl)
		}
		sc.lineages = append(sc.lineages, nl)
		sc.orderDirty = true
		sc.srv.mForks.Add(1)
	}
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
	if len(l.members) == 0 {
		sc.dropLineage(l)
		return lineageKnobs{}, nil, false
	}
	return groups[keeper].knob, shells, true
}

// complete fans a finished job out to every member of its lineage,
// advances their books, appends a trunk frame to the cohort's log, and
// retires members that reached their requested frame count.
func (sc *scheduler) complete(job *encodeJob, now time.Time) {
	l := job.lin
	l.inflight = false
	t := sc.trunkFor(l.key)
	if t.writer == l {
		t.writer = nil
	}
	for _, d := range job.forks {
		d.inflight = false
		if job.err != nil {
			for _, m := range append([]*session(nil), d.members...) {
				m.sum.Err = job.err.Error()
				sc.closeMember(m)
			}
		}
		if len(d.members) == 0 {
			sc.dropLineage(d)
		}
	}
	if job.err != nil {
		for _, m := range append([]*session(nil), l.members...) {
			m.sum.Err = job.err.Error()
			sc.closeMember(m)
		}
		sc.dropLineage(l)
		return
	}
	l.frame = job.frame + 1
	if !job.fromLog && l.trunk && job.frame == len(t.entries) && !t.frozen {
		sc.appendTrunk(t, l, job)
	}
	profile := sc.srv.cfg.Profile
	totalJoules := profile.Joules(job.counters)
	fanout := 0
	for _, m := range l.members {
		if !m.closing {
			fanout++
		}
	}
	// Fan the frame out to every live member. Members are independent
	// (each owns its queue, books and metrics), so a mega-lineage's
	// fanout parallelises across cores; small lineages stay serial —
	// parallel.ForEach degrades to an inline loop at workers==1, and
	// below the threshold the goroutine round-trip costs more than the
	// bookkeeping it would spread out.
	members := l.members
	fan := func(i int) {
		m := members[i]
		if m.closing {
			return
		}
		sc.fanoutMember(m, job, totalJoules)
	}
	if fanout >= parallelFanoutMin {
		parallel.ForEach(0, len(members), fan)
	} else {
		for i := range members {
			fan(i)
		}
	}
	if job.fromLog {
		sc.srv.mTrunkHits.Add(1)
		sc.srv.mSharedFrames.Add(int64(fanout))
	} else {
		sc.srv.mEncodes.Add(int64(1 + job.replayed))
		sc.srv.mTrunkReplay.Add(int64(job.replayed))
		if fanout > 1 {
			sc.srv.mSharedFrames.Add(int64(fanout - 1))
		}
		sc.srv.mEncodeLat.Observe(job.encodeTime)
	}
	sc.srv.pokeSenders()

	for _, m := range append([]*session(nil), l.members...) {
		if !m.closing && m.sum.FramesEncoded >= m.req.Frames {
			sc.closeMember(m)
		}
	}
	if len(l.members) == 0 {
		sc.dropLineage(l)
		return
	}
	sc.tryMerge(l)
}

// appendTrunk logs the trunk frame l just encoded. On a checkpoint
// frame it also freezes l's encode state as a restore point — unless
// the server-wide checkpoint cap is reached, in which case the log
// freezes instead: an entry without its checkpoint would stretch a
// later replay past trunkCheckpointEvery-1 frames.
func (sc *scheduler) appendTrunk(t *trunkLog, l *lineage, job *encodeJob) {
	e := trunkEntry{pkts: job.pkts, intraMBs: job.intraMBs, frameEnergy: job.frameEnergy, counters: job.counters}
	if isCheckpointFrame(job.frame) {
		if sc.checkpoints >= sc.srv.cfg.MaxSessions {
			t.frozen = true
			return
		}
		ck, err := checkpointOf(l, job.counters)
		if err != nil {
			t.frozen = true
			return
		}
		e.ckpt = ck
		t.ckpts++
		sc.checkpoints++
		sc.srv.mTrunkCkpts.Set(float64(sc.checkpoints))
	}
	t.entries = append(t.entries, e)
}

// trunkFor returns key's trunk log, creating an empty one if the
// cohort has none (a log is only a cache of the cohort's deterministic
// trunk, so starting one afresh is always sound).
func (sc *scheduler) trunkFor(key cohortKey) *trunkLog {
	t := sc.trunks[key]
	if t == nil {
		t = &trunkLog{}
		sc.trunks[key] = t
	}
	return t
}

// parallelFanoutMin is the member count above which complete() fans a
// frame out with parallel workers instead of a serial loop.
const parallelFanoutMin = 64

// fanoutMember delivers one encoded frame to one member: queue push,
// summary books, trace point, per-session metrics. Safe to run for
// different members concurrently — every touched field belongs to m
// alone (the frameQueue's single-producer contract holds per queue:
// the scheduler is the only producer, whether it pushes inline or via
// the joined fanout workers).
func (sc *scheduler) fanoutMember(m *session, job *encodeJob, totalJoules float64) {
	m.queue.push(queuedFrame{frame: job.frame, pkts: job.pkts, enqueued: job.start})
	m.framesEncoded.Store(int64(job.frame + 1))
	m.sum.FramesEncoded = job.frame + 1
	m.sum.IntraMBs += int64(job.intraMBs)
	m.sum.FinalAlpha = job.knob.plr
	m.sum.FinalIntraTh = job.knob.th
	m.sum.EnergyJoules = totalJoules
	m.sum.Trace = append(m.sum.Trace, TracePoint{
		Frame: job.frame, Alpha: job.knob.plr, IntraTh: job.knob.th, IntraMBs: job.intraMBs,
	})
	if m.ectl != nil {
		m.ectl.Observe(job.frameEnergy)
	}
	m.mFrames.Add(1)
	m.mIntra.Add(int64(job.intraMBs))
	m.mAlpha.Set(job.knob.plr)
	m.mTh.Set(job.knob.th)
	m.mDepth.Set(float64(m.queue.depth()))
	m.mJoules.Set(totalJoules)
	if d := m.queue.droppedFrames() - m.sum.QueueDroppedFrames; d > 0 {
		m.mQueueDrop.Add(d)
		m.sum.QueueDroppedFrames += d
	}
}

// tryMerge folds lineage l back into a cohort-mate when their streams
// have provably reconverged — the inverse of the partition fork. The
// preconditions mirror the correctness argument in lineage.go: both
// lineages quiescent (every member's applied knobs exactly (0, 0), so
// divergent planner σ histories cannot reach the bitstream), neither
// inflight, and equal forward-looking encode state (sameState). At
// most one merge per call — the next completion retries, so chains of
// forks still collapse, just one completion apart.
func (sc *scheduler) tryMerge(l *lineage) {
	if sc.srv.cfg.DisableMerge || !mergeable(l) || !sc.quiescent(l) {
		return
	}
	for _, p := range sc.lineages {
		if p == l || !mergeable(p) || p.key != l.key || p.frame != l.frame {
			continue
		}
		if !sc.quiescent(p) || !sc.sameState(l, p) {
			continue
		}
		// Keep the state worth keeping: a trunk lineage's over a
		// recovered fork's (so the log's invariants keep holding for the
		// merged members), encode state over none (a follower folded
		// into its cohort's writer stops costing a replay); otherwise the
		// older lineage, whose members have waited longest.
		keep, drop := l, p
		switch {
		case p.trunk != l.trunk:
			if p.trunk {
				keep, drop = p, l
			}
		case (p.enc != nil) != (l.enc != nil):
			if p.enc != nil {
				keep, drop = p, l
			}
		case p.oldestMember() < l.oldestMember():
			keep, drop = p, l
		}
		for _, m := range drop.members {
			m.lin = keep
		}
		keep.members = append(keep.members, drop.members...)
		drop.members = nil
		if drop.due.Before(keep.due) {
			keep.due = drop.due
		}
		sc.dropLineage(drop)
		sc.srv.mMerges.Add(1)
		sc.srv.cfg.logf("lineage %d: merged into lineage %d at frame %d (%d members)",
			drop.id, keep.id, keep.frame, len(keep.members))
		return
	}
}

// mergeable: live, started, idle, and not hosting a pending
// materialisation for dependents.
func mergeable(l *lineage) bool {
	return !l.inflight && l.started && len(l.members) > 0 && len(l.dependents) == 0
}

// sameState reports whether two same-cohort lineages at the same frame
// have equal forward-looking encode state. Two trunk lineages do by
// construction (trunk state is a function of cohort and frame), so no
// comparison runs; otherwise both hold encoders to compare. (A
// recovered fork meets a follower, which holds none, through rejoin.)
func (sc *scheduler) sameState(l, p *lineage) bool {
	switch {
	case l.trunk && p.trunk:
		return true
	case l.enc != nil && p.enc != nil:
		return l.stateMatches(p)
	}
	return false
}

// rejoin returns a recovered fork to its cohort's trunk. A lineage
// whose members all want (0, 0) again and whose encode state equals
// the log's checkpoint for its last frame is, from here on, exactly a
// trunk lineage: planner σ, the one difference, cannot reach the
// bitstream at (0, 0). It drops its state and follows the log. Unlike
// tryMerge this needs no partner lineage idle at the same moment — two
// lineages paced in lockstep whose encodes together outlast a frame
// interval never are — and the log's checkpoints keep true trunk σ.
func (sc *scheduler) rejoin(l *lineage) bool {
	t := sc.trunkFor(l.key)
	k := l.frame - 1
	if sc.srv.cfg.DisableMerge || k < 0 || k >= len(t.entries) || t.entries[k].ckpt == nil {
		return false
	}
	ck := t.entries[k].ckpt
	if l.pktz.Seq() != ck.pktz.Seq() || l.enc.StateDigest() != ck.enc.StateDigest() || !l.enc.StateEqual(ck.enc) {
		return false
	}
	l.dropState()
	l.trunk = true
	return true
}

// quiescent reports whether every member of l currently wants the
// frame-0 operating point — applied knobs exactly (0, 0).
func (sc *scheduler) quiescent(l *lineage) bool {
	for _, m := range l.members {
		if m.closing {
			continue
		}
		if m.knobs(sc.qctl, sc.srv.cfg.AlphaQuantum).bits() != [2]uint64{} {
			return false
		}
	}
	return true
}

// closeMember ends a member's production: its queue closes (the sender
// drains what is queued and announces the end of the stream) and it
// leaves its lineage. Finalisation waits for the sender's End
// confirmation so packet/byte counts are complete.
func (sc *scheduler) closeMember(m *session) {
	if m.closing || m.finished {
		return
	}
	m.closing = true
	m.queue.close()
	if m.lin != nil {
		m.lin.removeMember(m)
		sc.orderDirty = true
		if len(m.lin.members) == 0 && !m.lin.inflight {
			sc.dropLineage(m.lin)
		}
		m.lin = nil
	}
	sc.pendingEnd[m.id] = m
	sc.srv.pokeSenders()
}

func (sc *scheduler) dropLineage(l *lineage) {
	for i, x := range sc.lineages {
		if x == l {
			sc.lineages = append(sc.lineages[:i], sc.lineages[i+1:]...)
			break
		}
	}
	sc.orderDirty = true
	sc.srv.mLineages.Set(float64(len(sc.lineages)))
	// Pending dependents need a new host: the first takes over the
	// materialisation (it is a follower too) for the rest, or, if its
	// members left while it was borrowed, passes them on in turn.
	if deps := l.dependents; len(deps) > 0 {
		l.dependents = nil
		h := deps[0]
		h.inflight = false
		h.dependents = append(h.dependents, deps[1:]...)
		if len(h.members) == 0 {
			sc.dropLineage(h)
		}
	}
}

// finalize records a session's summary once its End is on the wire (or
// once a hard stop abandons it, err non-nil).
func (sc *scheduler) finalize(m *session, err error) {
	if m.finished {
		return
	}
	m.finished = true
	delete(sc.pendingEnd, m.id)
	// Late feedback that arrived after the last frame still counts in
	// the books (a final report races the End datagram).
	for {
		select {
		case <-m.feedback:
			m.sum.Reports++
			m.mReports.Add(1)
			continue
		default:
		}
		break
	}
	m.sum.PacketsSent = m.mPackets.Value()
	m.sum.BytesSent = m.mBytes.Value()
	if d := m.queue.droppedFrames() - m.sum.QueueDroppedFrames; d > 0 {
		m.mQueueDrop.Add(d)
		m.sum.QueueDroppedFrames += d
	}
	if err != nil && m.sum.Err == "" {
		m.sum.Err = err.Error()
	}
	sc.srv.finishSession(m)
}

// hardStop abandons every live session when the root context is
// cancelled (Close, or Shutdown's drain budget expiring). Summaries
// are still recorded — with the cancellation as their error — so no
// session ever vanishes from the books.
func (sc *scheduler) hardStop(ctx context.Context) {
	err := ctx.Err()
	for _, l := range append([]*lineage(nil), sc.lineages...) {
		for _, m := range append([]*session(nil), l.members...) {
			if !m.closing {
				m.closing = true
				m.queue.close()
			}
			m.lin = nil
			sc.finalize(m, err)
		}
	}
	sc.lineages = nil
	for _, m := range sc.pendingEnd {
		sc.finalize(m, err)
	}
	// Admissions racing the cancellation still need their books closed.
	for {
		select {
		case s := <-sc.admit:
			s.sum = SessionSummary{ID: s.id, Client: s.client.String(), FramesRequested: s.req.Frames, Err: err.Error()}
			s.finished = true
			sc.srv.finishSession(s)
		default:
			return
		}
	}
}

// worker is one farm goroutine: it borrows a lineage's encode state
// for the duration of a job (the scheduler guarantees exclusivity via
// the inflight flag) and hands the result back. Worker i owns job
// queue i — see the scheduler.jobs field and enqueue for the sticky
// sharding.
func (sc *scheduler) worker(ctx context.Context, i int) {
	defer sc.srv.farmWG.Done()
	queue := sc.jobs[i]
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-queue:
			sc.encode(job)
			select {
			case sc.results <- job:
			case <-ctx.Done():
				return
			}
		}
	}
}

// encode runs the job: materialise the lineage if it is a follower
// (restore its checkpoint, replay to the frame before this one at
// (0, 0)), clone the state into any dependents, then retune the
// planner, encode, packetise, protect.
func (sc *scheduler) encode(job *encodeJob) {
	l := job.lin
	t0 := time.Now()
	defer func() { job.encodeTime = time.Since(t0) }()
	if l.enc == nil {
		if job.err = l.restore(&sc.srv.cfg, job.restore); job.err != nil {
			return
		}
		from := 0
		if job.restore != nil {
			from = job.restore.frame + 1
		}
		for f := from; f < job.frame; f++ {
			if _, _, job.err = l.encodeFrame(f, lineageKnobs{}); job.err != nil {
				return
			}
			l.prevCounters = l.counters
		}
		job.replayed = job.frame - from
	}
	for _, d := range job.forks {
		if job.err = l.cloneInto(d); job.err != nil {
			return
		}
	}
	pkts, intraMBs, err := l.encodeFrame(job.frame, job.knob)
	if err != nil {
		job.err = err
		return
	}
	job.pkts = pkts
	job.intraMBs = intraMBs
	job.frameEnergy = sc.srv.cfg.Profile.Joules(l.counters.Sub(l.prevCounters))
	job.counters = l.counters
	l.prevCounters = l.counters
}
