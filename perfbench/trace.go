package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call recorded by the benchmark around a layer's
// public function: workload pass → ladder step or grid cell → layer call.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: Begin returns 0 and End ignores it, so call sites
// need no branches.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span under parent (0 = root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Spans returns the closed spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes every closed span as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write span %d: %w", s.ID, err)
		}
	}
	return nil
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total int64 // Σ span durations, ns
	Self  int64 // Σ self times, ns
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval covered by its children;
// children that overlap (parallel calls under one parent) cover an
// instant once.
func selfTimes(spans []Span) map[string]layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(intervals [][2]int64, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(intervals))
	for _, c := range intervals {
		a, b := max(c[0], lo), min(c[1], hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, c := range iv {
		switch {
		case !open:
			curA, curB, open = c[0], c[1], true
		case c[0] <= curB:
			curB = max(curB, c[1])
		default:
			total += curB - curA
			curA, curB = c[0], c[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
