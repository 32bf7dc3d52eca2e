package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; the HTTP middleware records from server goroutines.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID reserves a span ID, so a parent can hand its ID to children before
// its own end is known.
func (t *tracer) newID() int64 { return t.nextID.Add(1) }

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished span with a fresh id and returns the id.
func (t *tracer) add(parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, parent, name, start, end)
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span and the per-name self-time summary as JSON.
func (t *tracer) writeFile(path string) error {
	spans := t.snapshot()
	doc := struct {
		Spans []span               `json:"spans"`
		Self  map[string]nameStats `json:"self_us"`
	}{spans, summarize(spans)}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its children cover. Children may overlap
// each other (a router's concurrent shard calls), so their union counts,
// clipped to the parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// nameStats summarizes the spans of one name, in microseconds.
type nameStats struct {
	Count      int     `json:"count"`
	DurationUs float64 `json:"duration_p50_us"`
	SelfUs     float64 `json:"self_p50_us"`
}

// summarize groups spans by name and reports median duration and median
// self time.
func summarize(spans []span) map[string]nameStats {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]nameStats, len(durs))
	for name, d := range durs {
		out[name] = nameStats{Count: len(d), DurationUs: median(d), SelfUs: median(selfs[name])}
	}
	return out
}
