// Package bitcache is a concurrency-safe, content-addressed store for
// encoded bitstreams: it maps a canonical fingerprint of the encode
// inputs (sequence, frame count, scheme, every bitstream-affecting
// codec knob) to the immutable codec.EncodedSequence those inputs
// produce. It exists because the encoder never sees the channel, so
// every (seed, PLR) simulation of an experiment grid can share one
// encode — the store is the memo between the experiment layer's
// encode and simulate phases (see ARCHITECTURE.md, "Two-phase
// experiment pipeline").
//
// Properties:
//
//   - Single-flight: concurrent GetOrCompute calls for the same key
//     run the compute function once; the others block and share the
//     result. This is what deduplicates the seed axis when Figure 5
//     runs for several seeds share one cache concurrently.
//   - Bounded: entries are evicted least-recently-used once the byte
//     budget (sized by EncodedSequence.SizeBytes) is exceeded. An
//     eviction only costs a recompute — results never depend on cache
//     state, because the encode they memoize is deterministic.
//   - Observable: hit/miss/evict/spill counters are kept internally
//     and, when a registry is supplied, mirrored through internal/obs
//     under the "bitcache." prefix.
//   - Spillable: with a Dir configured, computed sequences are also
//     written to disk keyed by the same fingerprint, and misses try
//     the disk before encoding — cross-process reuse for the cmd
//     tools. Spill I/O is best-effort: a corrupt or unreadable file
//     falls back to recomputing.
package bitcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pbpair/internal/codec"
	"pbpair/internal/obs"
)

// Key is the content address of an encoded sequence: the SHA-256 of
// the canonical serialization of its encode inputs.
type Key [sha256.Size]byte

// KeyOf hashes a canonical encode-input serialization into a Key.
// Callers are responsible for canonicalisation (equal inputs must
// serialize equal — see codec.Config.BitstreamKey).
func KeyOf(canonical string) Key { return sha256.Sum256([]byte(canonical)) }

// String renders the key as lowercase hex (also the spill file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// DefaultMaxBytes is the in-memory byte budget when Config.MaxBytes
// is unset: 256 MiB, roomy enough for every experiment in this
// repository at paper scale.
const DefaultMaxBytes = 256 << 20

// Config parameterises a Store.
type Config struct {
	// MaxBytes is the in-memory byte budget (default DefaultMaxBytes).
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk spill: one file per
	// key, shared across processes.
	Dir string
	// Metrics, when non-nil, receives "bitcache.*" counters and gauges.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits        int64 // GetOrCompute served from memory (incl. coalesced waiters)
	Misses      int64 // GetOrCompute had to load or compute
	Evictions   int64 // entries dropped to respect the byte budget
	SpillHits   int64 // misses served from the on-disk spill
	SpillWrites int64 // sequences written to the spill
	Entries     int   // resident entries
	Bytes       int64 // resident bytes (SizeBytes sum)
}

// Store is the cache. Safe for concurrent use.
type Store struct {
	maxBytes int64
	dir      string

	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // *entry values; front = most recently used
	bytes   int64

	hits, misses, evictions, spillHits, spillWrites atomic.Int64

	// obs mirrors (nil when no registry was configured).
	mHits, mMisses, mEvictions, mSpillHits, mSpillWrites *obs.Counter
	gBytes, gEntries                                     *obs.Gauge
}

// entry is one cache slot. ready is closed once seq/err are final;
// elem is the entry's LRU position, nil while the compute is pending
// and after eviction. seq and err are written before ready closes and
// only read after it, so waiters need no lock for them.
type entry struct {
	ready chan struct{}
	seq   *codec.EncodedSequence
	err   error
	key   Key
	size  int64
	elem  *list.Element
}

// New builds a store. It fails only when a spill directory is
// configured but cannot be created.
func New(cfg Config) (*Store, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("bitcache: spill dir: %w", err)
		}
	}
	s := &Store{
		maxBytes: cfg.MaxBytes,
		dir:      cfg.Dir,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
	}
	if cfg.Metrics != nil {
		s.mHits = cfg.Metrics.Counter("bitcache.hits")
		s.mMisses = cfg.Metrics.Counter("bitcache.misses")
		s.mEvictions = cfg.Metrics.Counter("bitcache.evictions")
		s.mSpillHits = cfg.Metrics.Counter("bitcache.spill_hits")
		s.mSpillWrites = cfg.Metrics.Counter("bitcache.spill_writes")
		s.gBytes = cfg.Metrics.Gauge("bitcache.bytes")
		s.gEntries = cfg.Metrics.Gauge("bitcache.entries")
	}
	return s, nil
}

// GetOrCompute returns the sequence stored under key, computing (or
// loading from the spill) and storing it on a miss. Concurrent calls
// for the same key coalesce onto one compute; callers must treat the
// returned sequence as immutable. A failed compute is not cached —
// waiters coalesced onto it receive the error, later calls retry.
func (s *Store) GetOrCompute(key Key, compute func() (*codec.EncodedSequence, error)) (*codec.EncodedSequence, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		s.count(&s.hits, s.mHits)
		s.mu.Lock()
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		return e.seq, nil
	}
	e := &entry{ready: make(chan struct{}), key: key}
	s.entries[key] = e
	s.mu.Unlock()
	s.count(&s.misses, s.mMisses)

	seq, err := s.loadOrCompute(key, compute)
	if err == nil && seq == nil {
		err = fmt.Errorf("bitcache: compute for %s returned no sequence", key)
	}
	e.seq, e.err = seq, err

	s.mu.Lock()
	if err != nil {
		delete(s.entries, key)
	} else {
		e.size = seq.SizeBytes()
		e.elem = s.lru.PushFront(e)
		s.bytes += e.size
		s.evictLocked()
		s.updateGaugesLocked()
	}
	s.mu.Unlock()
	close(e.ready)
	return seq, err
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		SpillHits:   s.spillHits.Load(),
		SpillWrites: s.spillWrites.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// String renders the stats in the form the cmd tools print.
func (st Stats) String() string {
	return fmt.Sprintf("bitcache: %d hits, %d misses, %d evictions, %d spill hits, %d spill writes, %d entries (%d bytes) resident",
		st.Hits, st.Misses, st.Evictions, st.SpillHits, st.SpillWrites, st.Entries, st.Bytes)
}

func (s *Store) count(c *atomic.Int64, m *obs.Counter) {
	c.Add(1)
	if m != nil {
		m.Add(1)
	}
}

// evictLocked drops least-recently-used entries until the resident
// bytes fit the budget. Pending entries are never in the LRU list, so
// only finished sequences are evicted; an oversized sequence may be
// evicted immediately after insertion, which callers never observe
// (they already hold the pointer) — it simply is not retained.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		victim.elem = nil
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.count(&s.evictions, s.mEvictions)
	}
}

func (s *Store) updateGaugesLocked() {
	if s.gBytes != nil {
		s.gBytes.Set(float64(s.bytes))
		s.gEntries.Set(float64(len(s.entries)))
	}
}

// loadOrCompute tries the disk spill, then the compute function, and
// writes freshly computed sequences back to the spill.
func (s *Store) loadOrCompute(key Key, compute func() (*codec.EncodedSequence, error)) (*codec.EncodedSequence, error) {
	if s.dir != "" {
		if data, err := os.ReadFile(s.spillPath(key)); err == nil {
			var seq codec.EncodedSequence
			if err := seq.UnmarshalBinary(data); err == nil {
				s.count(&s.spillHits, s.mSpillHits)
				return &seq, nil
			}
			// Corrupt spill: recompute (and overwrite it below).
		}
	}
	seq, err := compute()
	if err != nil || seq == nil {
		return seq, err
	}
	if s.dir != "" && s.writeSpill(key, seq) {
		s.count(&s.spillWrites, s.mSpillWrites)
	}
	return seq, nil
}

// writeSpill persists a sequence via a temp file + rename, so a
// concurrent process never reads a half-written spill. Failures are
// swallowed: the spill is an optimisation, never a correctness
// dependency.
func (s *Store) writeSpill(key Key, seq *codec.EncodedSequence) bool {
	data, err := seq.MarshalBinary()
	if err != nil {
		return false
	}
	tmp, err := os.CreateTemp(s.dir, key.String()+".tmp*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), s.spillPath(key)); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}

func (s *Store) spillPath(key Key) string {
	return filepath.Join(s.dir, key.String()+".pbseq")
}
