package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (module.operation), its
// interval relative to the tracer's origin, and the span that caused it
// (-1 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. It is
// safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON to dir/name.
func (t *tracer) writeFile(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var clipped [][2]time.Duration
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			if x[1] > curB {
				curB = x[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// children indexes spans by parent.
func children(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// childCoverage returns the share of root's interval its direct
// children cover.
func childCoverage(spans []span, root int) float64 {
	kids := children(spans)[root]
	r := spans[root]
	var iv [][2]time.Duration
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{k.Start, k.End})
	}
	return ratio(float64(covered(iv, r.Start, r.End)), float64(r.dur()))
}

// selfTimes sums each span's self time — its duration minus the part
// of its interval its children cover — by module, the part of the span
// name before the first dot. Spans without a dot (roots) are skipped.
func selfTimes(spans []span) map[string]time.Duration {
	kids := children(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		mod, _, ok := strings.Cut(s.Name, ".")
		if !ok || s.End < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, k := range kids[s.ID] {
			iv = append(iv, [2]time.Duration{k.Start, k.End})
		}
		out[mod] += s.dur() - covered(iv, s.Start, s.End)
	}
	return out
}

// durationsOf collects the durations of every span with the given name.
func durationsOf(spans []span, name string) *samples {
	var s samples
	for _, x := range spans {
		if x.Name == name && x.End >= 0 {
			s.add(x.dur())
		}
	}
	return &s
}
