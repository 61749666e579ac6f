package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSnapshotLockScope pins the copy-on-read contract: Snapshot's
// value-reading phase must not touch the registry lock. The test
// collects the metric table, then holds the registry mutex while
// reading values from the copy — if snapshotValues (re)acquired the
// lock this would deadlock, and the test would fail its timeout
// instead of completing. At 1k serving sessions the metrics endpoint
// walks thousands of histogram quantiles per scrape; holding the lock
// across that walk would stall session registration and removal.
func TestSnapshotLockScope(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Counter(fmt.Sprintf("s%d.frames", i)).Add(int64(i))
		r.Histogram(fmt.Sprintf("s%d.lat", i)).Observe(time.Duration(i) * time.Millisecond)
	}
	table := r.collect()

	done := make(chan map[string]float64, 1)
	r.mu.Lock()
	go func() { done <- snapshotValues(table) }()
	var snap map[string]float64
	select {
	case snap = <-done:
	case <-time.After(2 * time.Second):
		r.mu.Unlock()
		t.Fatal("snapshot value reading blocked on the registry lock")
	}
	r.mu.Unlock()

	if snap["s7.frames"] != 7 {
		t.Fatalf("s7.frames = %v, want 7", snap["s7.frames"])
	}
	if snap["s10.lat.count"] != 1 {
		t.Fatalf("s10.lat.count = %v, want 1", snap["s10.lat.count"])
	}

	// The collected table stays readable even after the entries are
	// unregistered: the copy owns its view, mutation of the registry
	// map cannot invalidate an in-flight scrape.
	for i := 0; i < 100; i++ {
		r.Remove(fmt.Sprintf("s%d.frames", i), fmt.Sprintf("s%d.lat", i))
	}
	late := snapshotValues(table)
	if late["s7.frames"] != 7 {
		t.Fatalf("post-removal read of collected table: s7.frames = %v, want 7", late["s7.frames"])
	}
}

// TestSnapshotConcurrentChurn hammers Snapshot against concurrent
// registration, mutation and removal — the serving layer's steady
// state with sessions starting and finishing during scrapes. Run under
// -race this pins that copy-on-read introduced no unsynchronised
// access.
func TestSnapshotConcurrentChurn(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			prefix := fmt.Sprintf("s%d.", i%8)
			r.Counter(prefix + "frames").Add(1)
			r.Histogram(prefix + "lat").Observe(time.Millisecond)
			if i%5 == 4 {
				r.Remove(prefix+"frames", prefix+"lat")
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}
